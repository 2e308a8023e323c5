"""Memory-controller integration tests: the Figure-2 loop end to end."""

import pytest

from repro.core.codes import muse_80_69, muse_144_132
from repro.core.symbols import SymbolLayout
from repro.memory.controller import MemoryController, MuseEcc, ReadStatus
from repro.memory.dram import ddr4_144bit, ddr5_80bit_x4
from repro.memory.striping import DeviceStriping


def muse_controller() -> MemoryController:
    code = muse_144_132()
    striping = DeviceStriping(code.layout, ddr4_144bit())
    return MemoryController(MuseEcc(code), striping)


class TestWriteRead:
    def test_clean_roundtrip(self):
        controller = muse_controller()
        controller.write(0, 0xDEAD_BEEF_CAFE)
        result = controller.read(0)
        assert result.status is ReadStatus.OK
        assert result.data == 0xDEAD_BEEF_CAFE

    def test_unwritten_address_raises(self):
        with pytest.raises(KeyError):
            muse_controller().read(99)

    def test_stats_track_operations(self):
        controller = muse_controller()
        controller.write(0, 1)
        controller.write(1, 2)
        controller.read(0)
        assert controller.stats.writes == 2
        assert controller.stats.reads == 1


class TestChipKill:
    """The headline scenario: a dead chip, transparent recovery."""

    def test_muse_survives_device_failure(self):
        controller = muse_controller()
        for address in range(16):
            controller.write(address, address * 0xABCDEF0123)
        controller.fail_device(11)
        for address in range(16):
            result = controller.read(address)
            assert result.status in (ReadStatus.OK, ReadStatus.CORRECTED)
            assert result.data == address * 0xABCDEF0123
        assert controller.stats.uncorrectable == 0

    @pytest.mark.parametrize(
        "stuck_value", (0x0, 0xF), ids=("stuck-at-0", "stuck-at-1")
    )
    def test_muse_corrects_any_single_stuck_device(self, stuck_value):
        """Every one of the 36 x4 devices, stuck at all-zeros or
        all-ones, in turn."""
        controller = muse_controller()
        payloads = [address * 0x0123_4567_89AB_CDEF for address in range(4)]
        for address, payload in enumerate(payloads):
            controller.write(address, payload)
        for device in range(controller.striping.geometry.devices):
            controller.fail_device(device, stuck_value=stuck_value)
            for address, payload in enumerate(payloads):
                assert controller.read(address).data == payload
            controller.repair_device(device)
        assert controller.stats.uncorrectable == 0

    def test_device_stuck_at_its_stored_bits_reads_clean(self):
        """A fault that forces the bits the device already holds
        changes nothing: the read is clean, not a correction."""
        controller = muse_controller()
        controller.write(0, 0xC0FFEE)
        stored = controller.striping.device_slice(
            controller.ecc.encode(0xC0FFEE), 7
        )
        controller.fail_device(7, stuck_value=stored)
        result = controller.read(0)
        assert result.status is ReadStatus.OK
        assert result.data == 0xC0FFEE
        assert controller.stats.corrected == 0

    def test_muse_80_69_survives_each_ddr5_device(self):
        code = muse_80_69()
        geometry = ddr5_80bit_x4()
        controller = MemoryController(
            MuseEcc(code), DeviceStriping(code.layout, geometry)
        )
        controller.write(0, 0x1F_2E3D_4C5B_6A79)
        for device in range(geometry.devices):
            controller.fail_device(device)
            assert controller.read(0).data == 0x1F_2E3D_4C5B_6A79
            controller.repair_device(device)
        assert controller.stats.uncorrectable == 0

    def test_failed_devices_listed_until_repaired(self):
        controller = muse_controller()
        controller.fail_device(9)
        controller.fail_device(2)
        assert controller.failed_devices == (2, 9)
        controller.repair_device(9)
        assert controller.failed_devices == (2,)
        controller.repair_device(9)  # repairing twice is harmless
        assert controller.failed_devices == (2,)

    def test_two_failed_devices_detected_not_miscorrected_silently(self):
        controller = muse_controller()
        controller.write(0, 0x1234_5678_9ABC)
        controller.fail_device(0, stuck_value=0x5)
        controller.fail_device(20, stuck_value=0xA)
        result = controller.read(0)
        # Double-device errors are beyond the SSC guarantee; they must
        # not be returned as clean data.
        assert result.status is not ReadStatus.OK

    def test_repair_and_scrub_restores_protection(self):
        controller = muse_controller()
        controller.write(0, 0xFEED)
        controller.fail_device(2)
        assert controller.read(0).data == 0xFEED
        controller.repair_device(2)
        controller.scrub(0)
        # A new single-device failure is again correctable.
        controller.fail_device(30)
        result = controller.read(0)
        assert result.data == 0xFEED
        assert result.status in (ReadStatus.OK, ReadStatus.CORRECTED)

    def test_corrected_reads_counted(self):
        controller = muse_controller()
        controller.write(0, 7)
        controller.fail_device(5, stuck_value=0xF)
        before = controller.stats.corrected
        status = controller.read(0).status
        if status is ReadStatus.CORRECTED:
            assert controller.stats.corrected == before + 1


class TestAdapters:
    def test_device_fault_requires_striping(self):
        controller = MemoryController(MuseEcc(muse_144_132()))
        with pytest.raises(RuntimeError):
            controller.fail_device(0)

    def test_striping_width_mismatch_rejected(self):
        code = muse_80_69()
        striping = DeviceStriping(SymbolLayout.sequential(80, 4), ddr5_80bit_x4())
        MemoryController(MuseEcc(code), striping)  # OK
        bad_striping = DeviceStriping(
            SymbolLayout.sequential(144, 4), ddr4_144bit()
        )
        with pytest.raises(ValueError):
            MemoryController(MuseEcc(code), bad_striping)

    def test_stuck_value_width_check(self):
        controller = muse_controller()
        controller.write(0, 1)
        with pytest.raises(ValueError):
            controller.fail_device(0, stuck_value=16)
