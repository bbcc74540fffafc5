"""Strategy comparison: per-scale concurrent kernels vs thread rearrangement.

Section II contrasts the paper's design with Herout et al. [12], who attack
the same low-occupancy problem by compacting surviving windows into dense
blocks and relaunching.  This experiment schedules *both* strategies over
the same measured workload (one trailer frame's pyramid) on the GTX 470
model and reports makespan plus cascade-kernel branch efficiency.

Expected shape: rearrangement eliminates intra-warp divergence waste
(branch efficiency -> ~100 %) but pays compaction passes, relaunch
latencies and the loss of the Eq. 1-4 shared-memory tiling; with the
paper's cascade (94.5 % stage-1 rejection, so divergence waste is already
tiny) the concurrent per-scale strategy stays competitive — which is the
paper's implicit argument for its simpler design.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import zoo
from repro.detect.kernels import cascade_eval_kernel
from repro.detect.rearrangement import rearrangement_launches
from repro.detect.windows import BlockMapping
from repro.experiments.config import ExperimentProfile, active_profile
from repro.gpusim.device import GTX470
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode
from repro.image.pyramid import build_pyramid
from repro.utils.tables import format_table
from repro.video.trailer import trailer_frames

__all__ = ["RearrangementComparison", "run_rearrangement_comparison"]


@dataclass
class RearrangementComparison:
    """Makespan + divergence of the two evaluation strategies."""
    paper_time_ms: float
    rearranged_time_ms: float
    paper_branch_efficiency: float
    rearranged_branch_efficiency: float
    rearranged_launch_count: int
    paper_launch_count: int

    def format_table(self) -> str:
        rows = [
            ["simulated time (ms)", round(self.paper_time_ms, 3),
             round(self.rearranged_time_ms, 3)],
            ["branch efficiency (%)", round(100 * self.paper_branch_efficiency, 2),
             round(100 * self.rearranged_branch_efficiency, 2)],
            ["kernel launches", self.paper_launch_count, self.rearranged_launch_count],
        ]
        return format_table(
            ["metric", "per-scale concurrent (paper)", "thread rearrangement [12]"],
            rows,
            title="evaluation-strategy ablation (Section II related work)",
        )


def run_rearrangement_comparison(
    profile: ExperimentProfile | None = None, seed: int = 0
) -> RearrangementComparison:
    """Schedule both strategies over one trailer frame's cascade workload."""
    profile = profile or active_profile()
    cascade = zoo.paper_cascade(seed)
    frame = next(
        iter(
            trailer_frames(
                "50/50", profile.frame_width, profile.frame_height, 1, seed=profile.seed
            )
        )
    )[0]
    scheduler = DeviceScheduler(GTX470)

    paper_launches = []
    rearranged = []
    for level in build_pyramid(frame):
        mapping = BlockMapping(level_width=level.width, level_height=level.height)
        result = cascade_eval_kernel(
            level.image, cascade, stream=level.index + 1, mapping=mapping
        )
        paper_launches.append(result.launch)
        rearranged.extend(
            rearrangement_launches(
                cascade, result, stream=level.index + 1, level_tag=f"_s{level.index}"
            )
        )

    paper_run = scheduler.run(paper_launches, ExecutionMode.CONCURRENT)
    rearr_run = scheduler.run(rearranged, ExecutionMode.CONCURRENT)

    def cascade_eff(run):
        branches = divergent = 0.0
        for t in run.timeline.traces:
            if t.tag == "cascade":
                branches += t.counters.branches
                divergent += t.counters.divergent_branches
        return 1.0 - divergent / max(branches, 1.0)

    return RearrangementComparison(
        paper_time_ms=1e3 * paper_run.makespan_s,
        rearranged_time_ms=1e3 * rearr_run.makespan_s,
        paper_branch_efficiency=cascade_eff(paper_run),
        rearranged_branch_efficiency=cascade_eff(rearr_run),
        rearranged_launch_count=len(rearranged),
        paper_launch_count=len(paper_launches),
    )
