"""DRAM substrate: geometry, striping, controller.

* :mod:`repro.memory.dram` — channel shapes (DDR4 144-bit, DDR5 80-bit,
  HBM2-PIM) the paper's codes are sized for.
* :mod:`repro.memory.striping` — symbol-to-device routing incl. the
  shuffles of Figure 1(a) and the two-beat bus split of MUSE(80,67).
* :mod:`repro.memory.controller` — the Figure-2 read/write paths around
  the MUSE codec, with permanent device failures (the ChipKill event).

The Monte-Carlo injects its faults through :mod:`repro.scenarios`.
"""

from repro.memory.controller import (
    ControllerStats,
    MemoryController,
    MuseEcc,
    ReadResult,
    ReadStatus,
)
from repro.memory.dram import (
    ChannelGeometry,
    MemoryConfig,
    ddr4_144bit,
    ddr5_40bit_x8_two_beats,
    ddr5_80bit_x4,
    hbm2_pim_256bit,
)
from repro.memory.striping import DeviceStriping, muse_striping

__all__ = [
    "ChannelGeometry",
    "ControllerStats",
    "DeviceStriping",
    "MemoryConfig",
    "MemoryController",
    "MuseEcc",
    "ReadResult",
    "ReadStatus",
    "ddr4_144bit",
    "ddr5_40bit_x8_two_beats",
    "ddr5_80bit_x4",
    "hbm2_pim_256bit",
    "muse_striping",
]
