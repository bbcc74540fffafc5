"""Tests for timelines, counters and the profiler report."""

import pytest

from repro.gpusim.counters import PerfCounters
from repro.gpusim.device import GTX470
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.profiler import CommandLineProfiler
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode
from repro.gpusim.trace import KernelTrace, Timeline


def trace(name, stream, start, end):
    return KernelTrace(
        name=name, stream=stream, issue_s=start, start_s=start, end_s=end,
        blocks=1, counters=PerfCounters(),
    )


class TestPerfCounters:
    def test_branch_efficiency_all_uniform(self):
        c = PerfCounters(branches=1000, divergent_branches=0)
        assert c.branch_efficiency == 1.0

    def test_branch_efficiency_paper_value(self):
        c = PerfCounters(branches=1000, divergent_branches=11)
        assert c.branch_efficiency == pytest.approx(0.989)

    def test_branch_efficiency_no_branches(self):
        assert PerfCounters().branch_efficiency == 1.0

    def test_add_accumulates(self):
        a = PerfCounters(branches=10, dram_bytes_read=100, blocks=2)
        a.add(PerfCounters(branches=5, dram_bytes_read=50, blocks=1))
        assert a.branches == 15
        assert a.dram_bytes_read == 150
        assert a.blocks == 3

    def test_copy_is_independent(self):
        a = PerfCounters(branches=1)
        b = a.copy()
        b.branches = 99
        assert a.branches == 1

    def test_throughput(self):
        c = PerfCounters(dram_bytes_read=1e6)
        assert c.dram_read_throughput(1.0) == pytest.approx(1e6)
        assert c.dram_read_throughput(0.0) == 0.0


class TestTimeline:
    def test_makespan(self):
        tl = Timeline([trace("a", 0, 0.0, 1.0), trace("b", 1, 0.5, 2.0)])
        assert tl.makespan_s == 2.0

    def test_busy_exceeds_makespan_when_overlapping(self):
        tl = Timeline([trace("a", 0, 0.0, 1.0), trace("b", 1, 0.0, 1.0)])
        assert tl.makespan_s == pytest.approx(1.0)

    def test_overlap_pairs(self):
        tl = Timeline([
            trace("a", 0, 0.0, 1.0),
            trace("b", 1, 0.5, 1.5),
            trace("c", 2, 2.0, 3.0),
        ])
        assert tl.overlap_pairs() == 1

    def test_no_overlap(self):
        tl = Timeline([trace("a", 0, 0.0, 1.0), trace("b", 1, 1.0, 2.0)])
        assert tl.overlap_pairs() == 0

    def test_by_stream_groups(self):
        tl = Timeline([trace("a", 0, 0.0, 1.0), trace("b", 1, 0.0, 1.0), trace("c", 0, 1.0, 2.0)])
        groups = tl.by_stream()
        assert [t.name for t in groups[0]] == ["a", "c"]
        assert [t.name for t in groups[1]] == ["b"]

    def test_render_gantt_has_stream_rows(self):
        tl = Timeline([trace("a", 0, 0.0, 1.0), trace("b", 3, 0.2, 0.7)])
        text = tl.render_gantt(40)
        assert "stream   0" in text
        assert "stream   3" in text

    def test_render_empty(self):
        assert "empty" in Timeline().render_gantt()

    def test_kernel_trace_overlaps(self):
        a, b = trace("a", 0, 0.0, 1.0), trace("b", 1, 0.9, 1.1)
        assert a.overlaps(b) and b.overlaps(a)
        c = trace("c", 2, 1.0, 2.0)
        assert not a.overlaps(c)


class TestProfiler:
    @pytest.fixture
    def result(self):
        sched = DeviceScheduler(GTX470)
        launches = []
        for i, b in enumerate([300, 20, 5]):
            cfg = LaunchConfig(grid_blocks=b, threads_per_block=128, regs_per_thread=16)
            work = BlockWork.from_uniform(
                b, warp_instructions=2000, dram_bytes_read=4096,
                branches=50, divergent_branches=1,
            )
            launches.append(KernelLaunch(name=f"cascade_s{i}", config=cfg, work=work, stream=i + 1))
        return sched.run(launches, ExecutionMode.CONCURRENT)

    def test_conckerneltrace_lists_all_kernels(self, result):
        report = CommandLineProfiler(result).concurrent_kernel_trace()
        for i in range(3):
            assert f"cascade_s{i}" in report

    def test_counter_report_has_totals(self, result):
        report = CommandLineProfiler(result).counter_report()
        assert "TOTAL" in report
        assert "branch eff" in report

    def test_summary_mentions_mode(self, result):
        assert "concurrent" in CommandLineProfiler(result).summary()

    def test_rows_sorted_by_start(self, result):
        rows = CommandLineProfiler(result).kernel_rows()
        starts = [r.start_s for r in rows]
        assert starts == sorted(starts)
