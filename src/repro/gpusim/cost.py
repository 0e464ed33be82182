"""Analytic kernel cost model.

Converts the traffic a kernel *actually generated* — measured from the
real data structures, not assumed — into a simulated runtime:

``time = launch_overhead + max(dram_time, link_time, compute_time)``

* ``dram_time`` — bytes touched in device-resident arrays over the
  device bandwidth, with sector-granularity amplification for
  uncoalesced accesses (an uncoalesced 4 B load still moves a 32 B
  sector).
* ``link_time`` — bytes touched in host-resident arrays over the PCIe
  bandwidth at zero-copy cacheline granularity (the EMOGI model,
  Sec. II).
* ``compute_time`` — instructions over the chip's effective
  instruction throughput.  ``simt_efficiency`` models divergence,
  dependency stalls and occupancy limits of irregular kernels (binary
  searches, LUT probes, shared-memory syncs); graph kernels typically
  sustain 10-20% of peak issue rate.

Serialized work (CGR's dependent varint chains, where one lane of a
warp parses while the rest idle) is charged via
:meth:`KernelLaunch.serial_work`, which multiplies by the warp width —
the SIMT cost of a sequential algorithm.

The overlap assumption (``max`` rather than sum) matches a
memory-bound GPU kernel with enough concurrent warps to hide whichever
component is not the bottleneck.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.memory import MemoryManager, Residency

__all__ = [
    "AccessPattern",
    "ArrayTraffic",
    "CostParams",
    "KernelCost",
    "CostModel",
    "stream_transfer_bytes",
]


#: Accesses whose transfer unit reappeared within this many prior
#: accesses are merged — models the coalescer plus the L2/MSHR window
#: that combines requests from concurrently-running warps.
COALESCE_WINDOW = 32

_INT32_MIN, _INT32_MAX = np.iinfo(np.int32).min, np.iinfo(np.int32).max


def stream_transfer_bytes(
    ids: np.ndarray,
    elem_bytes: int,
    unit_bytes: int,
    window: int = COALESCE_WINDOW,
) -> int:
    """Bytes a coalescing memory system moves for an access stream.

    ``ids`` are element indices in issue order.  An access whose
    ``unit_bytes`` transfer unit (DRAM sector or PCIe cacheline) was
    touched within the previous ``window`` accesses is merged with the
    in-flight request — the hardware coalescer + L2 hit behaviour — so
    a clustered stream costs close to ``len * elem_bytes`` while a
    scattered one costs a full unit per access.  This is what makes the
    model sensitive to frontier ordering (Sec. VI-E) and to graph
    reordering (Sec. VIII-D): locality is *measured* from the ids the
    kernel really touches.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return 0
    if elem_bytes <= 0 or unit_bytes <= 0:
        raise ValueError("elem_bytes and unit_bytes must be positive")
    if window < 1:
        raise ValueError("window must be >= 1")
    units = (ids.astype(np.int64) * elem_bytes) // unit_bytes
    if units.min() >= _INT32_MIN and units.max() <= _INT32_MAX:
        # Half the bytes per compare pass; the count is unchanged.
        units = units.astype(np.int32)
    n = units.shape[0]
    merged = np.zeros(n, dtype=bool)
    same = np.empty(n, dtype=bool)
    for k in range(1, min(window, n - 1) + 1):
        np.equal(units[k:], units[:-k], out=same[: n - k])
        np.logical_or(merged[k:], same[: n - k], out=merged[k:])
    misses = n - int(np.count_nonzero(merged))
    return misses * unit_bytes


class AccessPattern(enum.Enum):
    """How a kernel touches an array."""

    #: Sequential, full-sector utilisation (e.g. scanning elist ranges).
    COALESCED = "coalesced"
    #: Data-dependent scatter/gather — every element pulls a whole
    #: sector (device) or cacheline (host link).
    RANDOM = "random"
    #: One fetch shared by the whole block (e.g. a list header).
    BROADCAST = "broadcast"


@dataclass(frozen=True)
class CostParams:
    """Calibration constants (documented in DESIGN.md).

    ``simt_efficiency`` — sustained fraction of peak issue rate for
    irregular integer kernels.  ``warp_width`` — lanes that idle while
    serialized code runs on one.  ``cached_bw_ratio`` — bandwidth of
    on-chip cache/shared-memory reads relative to DRAM (L2 on Pascal
    sustains roughly 3-5x DRAM bandwidth); cached reads recorded via
    :meth:`KernelLaunch.cached_read` are charged at this multiple.
    """

    simt_efficiency: float = 0.15
    warp_width: int = 32
    cached_bw_ratio: float = 4.0

    def __post_init__(self) -> None:
        if not 0 < self.simt_efficiency <= 1:
            raise ValueError("simt_efficiency must be in (0, 1]")
        if self.warp_width < 1:
            raise ValueError("warp_width must be >= 1")
        if self.cached_bw_ratio < 1:
            raise ValueError("cached_bw_ratio must be >= 1")


@dataclass
class ArrayTraffic:
    """Traffic one kernel generated against one array (or cache tag).

    The emulated-counter analogue of an nvprof per-data-structure row:

    * ``residency`` — ``"device"``, ``"host"`` or ``"cache"``; decides
      which byte column (and which transfer unit) the traffic landed in.
    * ``moved_bytes`` — bytes the memory system actually transferred,
      at sector/cacheline granularity.  Sums over a launch's entries
      reproduce ``device_bytes`` / ``host_bytes`` / ``cached_bytes``
      exactly — the attribution invariant the counters module checks.
    * ``requested_bytes`` — bytes the lanes logically demanded
      (``count * elem_bytes``).  ``requested / moved`` is the coalescing
      efficiency; it exceeds 1 when broadcasts or the coalescing window
      merge many requests into one transfer.
    * ``sectors`` — transfer units moved (DRAM sectors or PCIe
      cachelines); the nvprof transaction count.  Cache hits move no
      sectors.
    * ``accesses`` — element-level requests issued.
    """

    residency: str
    moved_bytes: float = 0.0
    requested_bytes: float = 0.0
    sectors: float = 0.0
    accesses: float = 0.0

    def add(
        self, moved: float, requested: float, sectors: float, accesses: float
    ) -> None:
        self.moved_bytes += moved
        self.requested_bytes += requested
        self.sectors += sectors
        self.accesses += accesses

    def merge(self, other: "ArrayTraffic") -> None:
        self.add(
            other.moved_bytes, other.requested_bytes, other.sectors, other.accesses
        )

    def copy(self) -> "ArrayTraffic":
        return ArrayTraffic(
            residency=self.residency,
            moved_bytes=self.moved_bytes,
            requested_bytes=self.requested_bytes,
            sectors=self.sectors,
            accesses=self.accesses,
        )

    def to_dict(self) -> dict[str, float | str]:
        return {
            "residency": self.residency,
            "moved_bytes": self.moved_bytes,
            "requested_bytes": self.requested_bytes,
            "sectors": self.sectors,
            "accesses": self.accesses,
        }


@dataclass
class KernelCost:
    """Accumulated cost of one kernel launch.

    ``floor_seconds`` is a critical-path lower bound that the ``max``
    in :meth:`CostModel.kernel_seconds` cannot hide behind bandwidth:
    a dependent chain no amount of parallel hardware can shorten
    (e.g. CGR's longest per-list varint chain).

    ``traffic`` carries the per-array attribution of every byte term
    (keyed by the registered array name, or ``cache:<tag>`` for cached
    reads); ``active_lanes`` / ``lane_slots`` accumulate the warp
    occupancy recorded by :meth:`KernelLaunch.warp_occupancy`.
    """

    name: str
    device_bytes: float = 0.0
    host_bytes: float = 0.0
    cached_bytes: float = 0.0
    instructions: float = 0.0
    floor_seconds: float = 0.0
    launches: int = 1
    breakdown: dict[str, float] = field(default_factory=dict)
    traffic: dict[str, ArrayTraffic] = field(default_factory=dict)
    active_lanes: float = 0.0
    lane_slots: float = 0.0

    @property
    def warp_efficiency(self) -> float:
        """Active-lane fraction of the occupied warp slots (1.0 = none)."""
        if self.lane_slots <= 0:
            return 1.0
        return self.active_lanes / self.lane_slots

    def add_traffic(
        self,
        array: str,
        residency: str,
        moved: float,
        requested: float,
        sectors: float,
        accesses: float,
    ) -> None:
        """Accumulate one charge into the per-array attribution table."""
        entry = self.traffic.get(array)
        if entry is not None and entry.residency != residency:
            # Residency changed between launches (re-planned memory):
            # keep the entries separate so sums stay per-residency exact.
            array = f"{array}@{residency}"
            entry = self.traffic.get(array)
        if entry is None:
            entry = self.traffic[array] = ArrayTraffic(residency=residency)
        entry.add(moved, requested, sectors, accesses)

    def merge(self, other: "KernelCost") -> None:
        """Fold another launch's cost into this one (for summaries)."""
        self.device_bytes += other.device_bytes
        self.host_bytes += other.host_bytes
        self.cached_bytes += other.cached_bytes
        self.instructions += other.instructions
        self.floor_seconds += other.floor_seconds
        self.launches += other.launches
        self.active_lanes += other.active_lanes
        self.lane_slots += other.lane_slots
        for key, value in other.breakdown.items():
            self.breakdown[key] = self.breakdown.get(key, 0.0) + value
        for key, entry in other.traffic.items():
            self.add_traffic(
                key,
                entry.residency,
                entry.moved_bytes,
                entry.requested_bytes,
                entry.sectors,
                entry.accesses,
            )

    def snapshot(self) -> "KernelCost":
        """Deep-enough copy for an immutable :class:`LaunchRecord`."""
        return KernelCost(
            name=self.name,
            device_bytes=self.device_bytes,
            host_bytes=self.host_bytes,
            cached_bytes=self.cached_bytes,
            instructions=self.instructions,
            floor_seconds=self.floor_seconds,
            launches=self.launches,
            breakdown=dict(self.breakdown),
            traffic={key: entry.copy() for key, entry in self.traffic.items()},
            active_lanes=self.active_lanes,
            lane_slots=self.lane_slots,
        )


@dataclass
class CostModel:
    """Charges :class:`KernelCost` records against a :class:`DeviceSpec`."""

    device: DeviceSpec
    memory: MemoryManager
    params: CostParams = field(default_factory=CostParams)

    def effective_bytes(
        self, count: int, elem_bytes: int, pattern: AccessPattern, residency: Residency
    ) -> float:
        """Bytes actually moved for ``count`` accesses of ``elem_bytes``."""
        if count < 0 or elem_bytes < 0:
            raise ValueError("count and elem_bytes must be non-negative")
        if pattern is AccessPattern.COALESCED:
            return float(count * elem_bytes)
        if pattern is AccessPattern.BROADCAST:
            return float(elem_bytes)
        # RANDOM: each access pulls a whole transfer unit.
        if residency is Residency.DEVICE:
            unit = self.device.sector_bytes
        else:
            unit = self.device.link_line_bytes
        return float(count * max(elem_bytes, unit))

    def transfer_unit(self, residency: Residency) -> int:
        """Transfer-unit size for a residency: DRAM sector or PCIe line."""
        if residency is Residency.DEVICE:
            return self.device.sector_bytes
        return self.device.link_line_bytes

    def charge(
        self,
        cost: KernelCost,
        array: str,
        count: int,
        elem_bytes: int,
        pattern: AccessPattern,
    ) -> None:
        """Record an access to a registered array on ``cost``."""
        residency = self.memory.residency(array)
        nbytes = self.effective_bytes(count, elem_bytes, pattern, residency)
        if residency is Residency.DEVICE:
            cost.device_bytes += nbytes
        else:
            cost.host_bytes += nbytes
        cost.breakdown[array] = cost.breakdown.get(array, 0.0) + nbytes
        unit = self.transfer_unit(residency)
        cost.add_traffic(
            array,
            residency.value,
            moved=nbytes,
            requested=float(count * elem_bytes),
            sectors=float(math.ceil(nbytes / unit)) if nbytes else 0.0,
            accesses=float(count),
        )

    def charge_stream(
        self, cost: KernelCost, array: str, ids: np.ndarray, elem_bytes: int
    ) -> None:
        """Charge an access stream with measured coalescing."""
        residency = self.memory.residency(array)
        unit = self.transfer_unit(residency)
        nbytes = float(stream_transfer_bytes(ids, elem_bytes, unit))
        if residency is Residency.DEVICE:
            cost.device_bytes += nbytes
        else:
            cost.host_bytes += nbytes
        cost.breakdown[array] = cost.breakdown.get(array, 0.0) + nbytes
        ids = np.asarray(ids)
        cost.add_traffic(
            array,
            residency.value,
            moved=nbytes,
            requested=float(ids.size * elem_bytes),
            # stream_transfer_bytes returns misses * unit, so this is
            # exactly the miss count — the sectors the stream moved.
            sectors=nbytes / unit,
            accesses=float(ids.size),
        )

    def charge_cached(
        self, cost: KernelCost, tag: str, count: int, elem_bytes: int
    ) -> None:
        """Charge reads served from on-chip cache (no DRAM traffic).

        Used by the decoded-list cache: a hit streams the already-decoded
        neighbour array out of L2/shared memory instead of re-reading and
        re-decoding the compressed payload.  Charged at
        ``cached_bw_ratio`` times DRAM bandwidth in
        :meth:`kernel_seconds`; the breakdown entry is prefixed with
        ``cache:`` so reports can separate it from DRAM traffic.
        """
        if count < 0 or elem_bytes < 0:
            raise ValueError("count and elem_bytes must be non-negative")
        nbytes = float(count * elem_bytes)
        cost.cached_bytes += nbytes
        key = f"cache:{tag}"
        cost.breakdown[key] = cost.breakdown.get(key, 0.0) + nbytes
        cost.add_traffic(
            key,
            "cache",
            moved=nbytes,
            requested=nbytes,
            sectors=0.0,
            accesses=float(count),
        )

    def compute_seconds(self, instructions: float) -> float:
        """Instruction time at the effective (derated) issue rate."""
        throughput = self.device.instruction_throughput * self.params.simt_efficiency
        return instructions / throughput

    def kernel_seconds(self, cost: KernelCost) -> float:
        """Simulated duration of one (merged) kernel launch record."""
        dram_time = cost.device_bytes / self.device.dram_bandwidth
        link_time = cost.host_bytes / self.device.link_bandwidth
        cache_time = cost.cached_bytes / (
            self.device.dram_bandwidth * self.params.cached_bw_ratio
        )
        compute_time = self.compute_seconds(cost.instructions)
        overhead = cost.launches * self.device.launch_overhead_s
        return overhead + max(
            dram_time, link_time, cache_time, compute_time, cost.floor_seconds
        )
