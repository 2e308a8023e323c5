"""Cross-module integration tests: the full system flows.

Each test exercises a complete paper scenario through multiple
subsystems (codec + striping + controller + security/PIM),
rather than any single module.
"""

import random

import pytest

from repro.core.codes import muse_80_67, muse_80_69, muse_144_132
from repro.memory import (
    DeviceStriping,
    MemoryController,
    MuseEcc,
    ddr4_144bit,
    ddr5_40bit_x8_two_beats,
    ddr5_80bit_x4,
)


class TestChipkillLifecycle:
    """Write -> chip death -> correction -> repair -> scrub -> reprotect."""

    def test_full_lifecycle_muse(self):
        code = muse_144_132()
        controller = MemoryController(
            MuseEcc(code), DeviceStriping(code.layout, ddr4_144bit())
        )
        rng = random.Random(1)
        data = {addr: rng.randrange(1 << code.k) for addr in range(32)}
        for addr, value in data.items():
            controller.write(addr, value)

        controller.fail_device(rng.randrange(36))
        assert all(controller.read(a).data == v for a, v in data.items())

        failed = controller.failed_devices[0]
        controller.repair_device(failed)
        for addr in data:
            controller.scrub(addr)
        controller.fail_device((failed + 7) % 36)
        assert all(controller.read(a).data == v for a, v in data.items())


class TestRetentionErrorFlow:
    """The C8A story: skip refresh, decay bits, still read clean data."""

    def test_muse_80_67_on_ddr5_channel(self):
        code = muse_80_67()
        striping = DeviceStriping(code.layout, ddr5_40bit_x8_two_beats())
        rng = random.Random(3)
        for _ in range(50):
            data = rng.randrange(1 << code.k)
            codeword = code.encode(data)
            # transfer over the 40-bit bus in two beats, reassemble
            beats = striping.beat_slices(codeword)
            received = striping.from_beat_slices(beats)
            assert received == codeword
            # retention decay inside one device: set bits leak to 0
            device = rng.randrange(10)
            charged = [
                bit for bit in code.layout.symbols[device]
                if received >> bit & 1
            ]
            leaked = rng.sample(
                charged, rng.randint(1, len(charged)) if charged else 0
            )
            decayed = received
            for bit in leaked:
                decayed &= ~(1 << bit)
            result = code.decode(decayed)
            assert result.data == data
            if leaked:
                assert result.status.name == "CORRECTED"


class TestMonteCarloAgreesWithController:
    """The Table IV simulator and the controller view the same physics."""

    def test_single_device_faults_are_always_corrected(self):
        code = muse_80_69()
        striping = DeviceStriping(code.layout, ddr5_80bit_x4())
        layout = code.layout
        rng = random.Random(5)
        for _ in range(100):
            data = rng.randrange(1 << code.k)
            codeword = code.encode(data)
            # A failed device reads back any value but the stored one.
            device = rng.randrange(layout.symbol_count)
            original = layout.extract_symbol(codeword, device)
            garbage = rng.choice([
                value for value in range(1 << len(layout.symbols[device]))
                if value != original
            ])
            corrupted = layout.insert_symbol(codeword, device, garbage)
            result = code.decode(corrupted)
            assert result.status.name == "CORRECTED"
            assert result.data == data
            # The striping confirms the fault hit exactly one device.
            changed = codeword ^ corrupted
            assert striping.layout.confined_to_single_symbol(changed)


class TestSparseBitsBudget:
    """Spare-bit arithmetic consistency across the registry."""

    @pytest.mark.parametrize(
        "builder,payload,expected_spare",
        [
            (muse_80_69, 64, 5),
            (muse_80_67, 64, 3),
            (muse_144_132, 128, 4),
        ],
    )
    def test_spare_bits(self, builder, payload, expected_spare):
        code = builder()
        assert code.spare_bits(payload) == expected_spare
        # The spare bits are real: encode a payload with metadata packed
        # above it and get both back.
        metadata = (1 << expected_spare) - 1
        data = (metadata << payload) | (payload * 0x1111 & ((1 << payload) - 1))
        result = code.decode(code.encode(data))
        assert result.data == data
