"""A functional + timing SIMT GPU simulator.

This package stands in for the NVIDIA GTX 470 used in the paper (see
DESIGN.md, substitution table).  It has two layers:

* **Functional layer** — kernel bodies execute for real (vectorised with
  NumPy across the grid) and report per-block *work records* (warp
  instructions, DRAM traffic, branch/divergence counts).
* **Timing layer** — an event-driven scheduler places thread blocks onto
  streaming-multiprocessor (SM) slots, honouring CUDA-stream ordering,
  occupancy limits and **concurrent kernel execution**, and converts work
  records into simulated nanoseconds via a calibrated cost model.

The headline mechanism of the paper — small per-scale kernels underutilise
the GPU when launched serially and overlap when launched in independent
streams — emerges from the scheduler's residency-dependent efficiency model
rather than being hard-coded.
"""

from repro.gpusim.device import DeviceSpec, GTX470, XEON_HOST_I7_2600K, XEON_HOST_DUAL_E5472
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.counters import PerfCounters
from repro.gpusim.costmodel import CostModel
from repro.gpusim.occupancy import OccupancyCalculator, OccupancyResult
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode, ScheduleResult
from repro.gpusim.batch import BatchReport
from repro.gpusim.trace import KernelTrace, Timeline
from repro.gpusim.profiler import CommandLineProfiler

__all__ = [
    "DeviceSpec",
    "GTX470",
    "XEON_HOST_I7_2600K",
    "XEON_HOST_DUAL_E5472",
    "BlockWork",
    "KernelLaunch",
    "LaunchConfig",
    "PerfCounters",
    "CostModel",
    "OccupancyCalculator",
    "OccupancyResult",
    "DeviceScheduler",
    "ExecutionMode",
    "ScheduleResult",
    "BatchReport",
    "KernelTrace",
    "Timeline",
    "CommandLineProfiler",
]
