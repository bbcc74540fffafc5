"""Cycle-level cost model converting block work records into base durations.

The model is deliberately simple and calibrated (DESIGN.md section 6): a
block's base duration assumes it runs with the SM pipeline fully hidden
(saturated residency); the scheduler then derates it by the actual residency
at dispatch time.  The three cost components are:

* **compute** — warp instructions divided by the SM issue rate;
* **DRAM** — coalesced transactions served at the SM's fair bandwidth share,
  plus a one-off latency exposure per block (cold start of its access stream);
* **fixed** — per-block scheduling/prologue overhead.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import BlockCohort, BlockWork, KernelLaunch, LaunchConfig

__all__ = ["CostModel"]


class CostModel:
    """Maps :class:`BlockWork` records to base block durations in seconds."""

    #: fixed per-block pipeline prologue/epilogue, in cycles
    BLOCK_OVERHEAD_CYCLES = 60.0
    #: shared-memory throughput, bytes per cycle per SM (two 32-bit banksets)
    SHARED_BYTES_PER_CYCLE = 128.0
    #: constant-cache broadcast throughput, requests per cycle per SM
    CONSTANT_REQUESTS_PER_CYCLE = 1.0
    #: calibration of modelled dynamic instruction counts to the GTX 470's
    #: delivered throughput.  The functional layer counts architectural
    #: operations; the real kernels retire several per issue slot (dual
    #: issue, ILP across windows, vectorised LDS), which this single scale
    #: absorbs.  Calibrated so Table II's absolute milliseconds land near
    #: the paper's (see EXPERIMENTS.md).
    COMPUTE_SCALE = 0.30
    #: relative quantisation step for cohort grouping (keeps event counts low)
    COHORT_QUANTUM = 1.12

    def __init__(self, device: DeviceSpec) -> None:
        self._device = device

    @property
    def device(self) -> DeviceSpec:
        return self._device

    def block_base_seconds(self, config: LaunchConfig, work: BlockWork) -> np.ndarray:
        """Vector of base durations (seconds) for every block of a launch.

        The base duration assumes the SM is saturated; the scheduler applies
        the residency-dependent efficiency on top of this.
        """
        device = self._device
        scale = self.COMPUTE_SCALE
        compute_cycles = work.warp_instructions * scale / device.issue_rate

        # DRAM service at device bandwidth; round-trip latency exposure and
        # inter-block contention are what the scheduler's residency-based
        # efficiency derating covers, so they are not double-charged here.
        bytes_per_cycle = device.dram_bandwidth_bytes / device.clock_hz
        dram_bytes = work.dram_bytes_read + work.dram_bytes_written
        dram_cycles = dram_bytes / bytes_per_cycle

        shared_cycles = work.shared_bytes * scale / self.SHARED_BYTES_PER_CYCLE
        const_cycles = work.constant_requests * scale / self.CONSTANT_REQUESTS_PER_CYCLE

        # Compute and memory partially overlap on a saturated SM; take the
        # max of the two plus the serial-only overheads.
        cycles = (
            np.maximum(compute_cycles + const_cycles, dram_cycles)
            + shared_cycles
            + self.BLOCK_OVERHEAD_CYCLES
        )
        return cycles / device.clock_hz

    def build_cohorts(self, launch: KernelLaunch) -> list[BlockCohort]:
        """Quantise a launch's per-block durations into cost cohorts.

        Durations are rounded onto a geometric grid (ratio
        :data:`COHORT_QUANTUM`), so a grid of 30 000 near-identical blocks
        becomes a handful of cohorts while heterogeneous cascade blocks keep
        their cost spread to within ~12 %.
        """
        base = self.block_base_seconds(launch.config, launch.work)
        if base.size == 0:
            return []
        floor = 1e-12
        buckets = np.round(
            np.log(np.maximum(base, floor)) / np.log(self.COHORT_QUANTUM)
        ).astype(np.int64)
        # one stable sort by bucket: each bucket is a contiguous slice
        # holding its blocks in launch order, so its mean sums the same
        # values in the same order as a mask over the whole grid would
        order = np.argsort(buckets, kind="stable")
        ordered = base[order]
        edges = np.flatnonzero(np.diff(buckets[order])) + 1
        bounds = [0, *edges.tolist(), base.size]
        cohorts = [
            BlockCohort(count=hi - lo, base_seconds=float(ordered[lo:hi].mean()))
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        # Long blocks first: LPT ordering tightens the schedule tail, which
        # is also what the hardware's greedy block scheduler approximates.
        cohorts.sort(key=lambda c: -c.base_seconds)
        return cohorts
