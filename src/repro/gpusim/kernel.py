"""Kernel launch descriptions for the timing simulator.

A kernel's *functional* body runs first (vectorised NumPy in the module that
owns the kernel, e.g. :mod:`repro.detect.kernels`) and summarises what each
thread block did as a :class:`BlockWork` record.  The scheduler then replays
those records onto simulated SMs.

Blocks with identical cost are grouped into *cohorts* so that a launch with
tens of thousands of uniform blocks costs the scheduler a handful of events
instead of one per block.

A :class:`KernelLaunch` is immutable.  Launches that are replayed frame after
frame (the engine's per-level templates) are handed once to
:meth:`~repro.gpusim.scheduler.DeviceScheduler.prepare`, which validates
them, prices their cohorts, sizes their residency and totals their counters
into a :class:`~repro.gpusim.scheduler.LaunchPlan`, and freezes their work
arrays so the plan can never go stale.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import LaunchError
from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import DeviceSpec

if TYPE_CHECKING:
    from repro.gpusim.scheduler import LaunchPlan

__all__ = ["LaunchConfig", "BlockWork", "BlockCohort", "KernelLaunch", "WORK_FIELDS"]

#: the per-block arrays of a :class:`BlockWork`
WORK_FIELDS = (
    "warp_instructions",
    "dram_bytes_read",
    "dram_bytes_written",
    "branches",
    "divergent_branches",
    "shared_bytes",
    "constant_requests",
)


@dataclass(frozen=True)
class LaunchConfig:
    """Grid/block geometry and static resources of one kernel launch."""

    grid_blocks: int
    threads_per_block: int
    regs_per_thread: int = 20
    shared_mem_per_block: int = 0

    def validate(self, device: DeviceSpec) -> None:
        """Raise :class:`LaunchError` if the launch violates device limits."""
        if self.grid_blocks <= 0:
            raise LaunchError(f"grid must have at least one block, got {self.grid_blocks}")
        if self.threads_per_block <= 0:
            raise LaunchError("threads_per_block must be positive")
        if self.threads_per_block > device.max_threads_per_block:
            raise LaunchError(
                f"block of {self.threads_per_block} threads exceeds device limit "
                f"{device.max_threads_per_block}"
            )
        if self.shared_mem_per_block > device.shared_mem_per_sm:
            raise LaunchError(
                f"block shared memory {self.shared_mem_per_block} B exceeds SM capacity "
                f"{device.shared_mem_per_sm} B"
            )
        regs = self.regs_per_thread * self.threads_per_block
        if regs > device.registers_per_sm:
            raise LaunchError(
                f"block register footprint {regs} exceeds SM register file "
                f"{device.registers_per_sm}"
            )

    @property
    def warps_per_block(self) -> int:
        """Warps per block, rounding partial warps up (they occupy a scheduler slot)."""
        return -(-self.threads_per_block // 32)


@dataclass
class BlockWork:
    """Per-block dynamic work of a launch, as parallel NumPy arrays.

    Every array has length ``grid_blocks`` (scalars are broadcast by
    :meth:`from_uniform`).  Units: warp instructions are warp-level dynamic
    instruction counts; DRAM fields are bytes after the coalescing model has
    been applied by the functional layer.  :meth:`freeze` makes the record
    read-only: its arrays and its fields.
    """

    warp_instructions: np.ndarray
    dram_bytes_read: np.ndarray
    dram_bytes_written: np.ndarray
    branches: np.ndarray
    divergent_branches: np.ndarray
    shared_bytes: np.ndarray
    constant_requests: np.ndarray

    @classmethod
    def from_uniform(
        cls,
        grid_blocks: int,
        *,
        warp_instructions: float,
        dram_bytes_read: float = 0.0,
        dram_bytes_written: float = 0.0,
        branches: float = 0.0,
        divergent_branches: float = 0.0,
        shared_bytes: float = 0.0,
        constant_requests: float = 0.0,
    ) -> "BlockWork":
        """Build a work record where every block did the same amount of work."""

        def full(v: float) -> np.ndarray:
            return np.full(grid_blocks, float(v), dtype=np.float64)

        return cls(
            warp_instructions=full(warp_instructions),
            dram_bytes_read=full(dram_bytes_read),
            dram_bytes_written=full(dram_bytes_written),
            branches=full(branches),
            divergent_branches=full(divergent_branches),
            shared_bytes=full(shared_bytes),
            constant_requests=full(constant_requests),
        )

    def __len__(self) -> int:
        return int(self.warp_instructions.shape[0])

    def __setattr__(self, name: str, value) -> None:
        if self.__dict__.get("_frozen"):
            raise FrozenInstanceError(f"cannot assign to field {name!r} of a frozen BlockWork")
        object.__setattr__(self, name, value)

    def freeze(self) -> "BlockWork":
        """Make the arrays and fields read-only (idempotent); returns ``self``."""
        for name in WORK_FIELDS:
            getattr(self, name).flags.writeable = False
        self.__dict__["_frozen"] = True
        return self

    def validate(self, grid_blocks: int) -> None:
        """Check array lengths and non-negativity."""
        for name in WORK_FIELDS:
            arr = getattr(self, name)
            if arr.shape != (grid_blocks,):
                raise LaunchError(
                    f"BlockWork.{name} has shape {arr.shape}, expected ({grid_blocks},)"
                )
            if np.any(arr < 0):
                raise LaunchError(f"BlockWork.{name} contains negative entries")
        if np.any(self.divergent_branches > self.branches):
            raise LaunchError("divergent_branches cannot exceed branches")

    def totals(self, warps_per_block: int) -> PerfCounters:
        """Aggregate this launch's work into a :class:`PerfCounters`."""
        return PerfCounters(
            warp_instructions=float(self.warp_instructions.sum()),
            dram_bytes_read=float(self.dram_bytes_read.sum()),
            dram_bytes_written=float(self.dram_bytes_written.sum()),
            shared_bytes=float(self.shared_bytes.sum()),
            constant_requests=float(self.constant_requests.sum()),
            branches=float(self.branches.sum()),
            divergent_branches=float(self.divergent_branches.sum()),
            blocks=len(self),
            warps=len(self) * warps_per_block,
        )


@dataclass(frozen=True)
class BlockCohort:
    """A group of blocks of one launch with (quantised) identical base cost."""

    count: int
    base_seconds: float


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel launch: geometry, per-block work and stream placement.

    ``wait_streams`` models ``cudaStreamWaitEvent`` on an event recorded at
    the tail of each listed stream at issue time: the launch cannot start
    until every launch issued *before it* into those streams has completed
    (the display kernel waits on all per-scale cascade streams this way).

    ``cohorts`` are precomputed cost cohorts (empty: the scheduler's cost
    model derives them); ``plan`` is set only by
    :meth:`~repro.gpusim.scheduler.DeviceScheduler.prepare`.
    """

    name: str
    config: LaunchConfig
    work: BlockWork
    stream: int = 0
    tag: str = ""
    wait_streams: tuple[int, ...] = ()
    cohorts: tuple[BlockCohort, ...] = field(default=(), repr=False)
    plan: LaunchPlan | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.cohorts, tuple):
            object.__setattr__(self, "cohorts", tuple(self.cohorts))

    def validate(self, device: DeviceSpec) -> None:
        """Validate geometry against the device and work-array shapes."""
        self.config.validate(device)
        self.work.validate(self.config.grid_blocks)
        if self.stream < 0:
            raise LaunchError(f"stream id must be non-negative, got {self.stream}")
        if any(s < 0 for s in self.wait_streams):
            raise LaunchError("wait_streams ids must be non-negative")
