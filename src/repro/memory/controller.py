"""Memory controller with integrated MUSE ECC (paper Figure 2).

The controller owns the write path (encode, stripe, store) and the read
path (gather, decode, correct-or-flag) around a :class:`MuseEcc`.

The backing store is sparse (a dict of codeword-address -> codeword
integer), with per-device fault state layered on top: a failed device
corrupts *every* read touching it until the device is replaced, which
models a permanent chip failure (the ChipKill scenario) rather than a
single transient.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.core.codec import DecodeStatus, MuseCode
from repro.memory.striping import DeviceStriping


class ReadStatus(enum.Enum):
    OK = "clean"
    CORRECTED = "corrected"
    UNCORRECTABLE = "uncorrectable"


@dataclass(frozen=True)
class ReadResult:
    status: ReadStatus
    data: int | None
    address: int


@dataclass(frozen=True)
class MuseEcc:
    """The MUSE codec as the controller sees it."""

    code: MuseCode

    @property
    def data_bits(self) -> int:
        return self.code.k

    @property
    def codeword_bits(self) -> int:
        return self.code.n

    def encode(self, data: int) -> int:
        return self.code.encode(data)

    def decode(self, codeword: int) -> tuple[ReadStatus, int | None]:
        result = self.code.decode(codeword)
        if result.status is DecodeStatus.CLEAN:
            return ReadStatus.OK, result.data
        if result.status is DecodeStatus.CORRECTED:
            return ReadStatus.CORRECTED, result.data
        return ReadStatus.UNCORRECTABLE, None


@dataclass
class ControllerStats:
    reads: int = 0
    writes: int = 0
    corrected: int = 0
    uncorrectable: int = 0


class MemoryController:
    """Figure 2: encoder/decoder pair around a striped DRAM channel.

    Parameters
    ----------
    ecc:
        The :class:`MuseEcc` codec.
    striping:
        Optional device striping.  Required for device-level fault
        injection; when present, its layout width must equal the ECC
        codeword width.
    """

    def __init__(self, ecc: MuseEcc, striping: DeviceStriping | None = None):
        if striping is not None and striping.layout.n != ecc.codeword_bits:
            raise ValueError(
                f"striping covers {striping.layout.n} bits but the ECC "
                f"produces {ecc.codeword_bits}-bit codewords"
            )
        self.ecc = ecc
        self.striping = striping
        self.stats = ControllerStats()
        self._store: dict[int, int] = {}
        self._failed_devices: dict[int, int] = {}  # device -> stuck value
        self._rng = random.Random(0xECC)

    # ------------------------------------------------------------------
    # Write / read paths
    # ------------------------------------------------------------------

    def write(self, address: int, data: int) -> None:
        """Encode and store one payload word."""
        self.stats.writes += 1
        self._store[address] = self.ecc.encode(data)

    def read(self, address: int) -> ReadResult:
        """Fetch, apply device faults, decode."""
        self.stats.reads += 1
        if address not in self._store:
            raise KeyError(f"address {address} was never written")
        codeword = self._apply_device_faults(self._store[address])
        status, data = self.ecc.decode(codeword)
        if status is ReadStatus.CORRECTED:
            self.stats.corrected += 1
        elif status is ReadStatus.UNCORRECTABLE:
            self.stats.uncorrectable += 1
        return ReadResult(status=status, data=data, address=address)

    # ------------------------------------------------------------------
    # Fault state
    # ------------------------------------------------------------------

    def fail_device(self, device: int, stuck_value: int | None = None) -> None:
        """Permanently fail one DRAM device.

        Every subsequent read sees the device's bits replaced by
        ``stuck_value`` (random garbage if None) — the ChipKill event.
        """
        if self.striping is None:
            raise RuntimeError("device faults need a striping configuration")
        width = len(self.striping.layout.symbols[device])
        if stuck_value is None:
            stuck_value = self._rng.randrange(1 << width)
        if stuck_value >> width:
            raise ValueError(f"stuck value wider than the {width}-bit device")
        self._failed_devices[device] = stuck_value

    def repair_device(self, device: int) -> None:
        """Replace a failed device (field service swap)."""
        self._failed_devices.pop(device, None)

    def scrub(self, address: int) -> ReadResult:
        """Read-correct-writeback, re-encoding the corrected data.

        After repairing a failed device, scrubbing restores codewords to
        a clean state so future single-device failures stay correctable.
        """
        result = self.read(address)
        if result.status is not ReadStatus.UNCORRECTABLE:
            self._store[address] = self.ecc.encode(result.data)
        return result

    @property
    def failed_devices(self) -> tuple[int, ...]:
        return tuple(sorted(self._failed_devices))

    def _apply_device_faults(self, codeword: int) -> int:
        if not self._failed_devices or self.striping is None:
            return codeword
        for device, stuck_value in self._failed_devices.items():
            codeword = self.striping.replace_device_slice(
                codeword, device, stuck_value
            )
        return codeword
