"""Tests for the device scheduler: stream ordering, overlap, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim.device import GTX470
from repro.gpusim.kernel import BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode


def make_launch(name, nblocks, stream=0, threads=256, instr=4000.0, dram=8192.0,
                smem=4096, heterogeneous=False, seed=0, spread=(0.2, 5.0)):
    cfg = LaunchConfig(
        grid_blocks=nblocks, threads_per_block=threads,
        regs_per_thread=16, shared_mem_per_block=smem,
    )
    if heterogeneous:
        rng = np.random.default_rng(seed)
        work = BlockWork.from_uniform(nblocks, warp_instructions=instr, dram_bytes_read=dram)
        work.warp_instructions = work.warp_instructions * rng.uniform(*spread, nblocks)
    else:
        work = BlockWork.from_uniform(
            nblocks, warp_instructions=instr, dram_bytes_read=dram,
            branches=100, divergent_branches=1,
        )
    return KernelLaunch(name=name, config=cfg, work=work, stream=stream)


def _work_bound(sched, launches):
    """Total base block work over all SMs: the makespan at perfect speedup."""
    cm = sched.cost_model
    total = sum(float(cm.block_base_seconds(l.config, l.work).sum()) for l in launches)
    return total / GTX470.sm_count


@pytest.fixture
def sched():
    return DeviceScheduler(GTX470)


class TestBasicScheduling:
    def test_empty_batch(self, sched):
        result = sched.run([], ExecutionMode.SERIAL)
        assert result.makespan_s == 0.0
        assert result.timeline.traces == []

    def test_single_kernel_runs(self, sched):
        result = sched.run([make_launch("k", 100)], ExecutionMode.SERIAL)
        assert result.makespan_s > 0
        assert len(result.timeline.traces) == 1
        assert result.timeline.traces[0].blocks == 100

    def test_all_launches_traced(self, sched):
        launches = [make_launch(f"k{i}", 20 + i, stream=i) for i in range(5)]
        result = sched.run(launches, ExecutionMode.CONCURRENT)
        assert sorted(t.name for t in result.timeline.traces) == sorted(
            f"k{i}" for i in range(5)
        )

    def test_trace_interval_valid(self, sched):
        result = sched.run([make_launch("k", 500)], ExecutionMode.SERIAL)
        t = result.timeline.traces[0]
        assert t.issue_s <= t.start_s < t.end_s

    def test_more_blocks_takes_longer(self, sched):
        small = sched.run([make_launch("k", 140)], ExecutionMode.SERIAL).makespan_s
        large = sched.run([make_launch("k", 1400)], ExecutionMode.SERIAL).makespan_s
        assert large > small * 5

    def test_counters_aggregate(self, sched):
        result = sched.run([make_launch("k", 100)], ExecutionMode.SERIAL)
        assert result.total.blocks == 100
        assert result.total.branches == pytest.approx(100 * 100)


class TestStreamSemantics:
    def test_same_stream_never_overlaps(self, sched):
        launches = [make_launch(f"k{i}", 30, stream=3) for i in range(4)]
        result = sched.run(launches, ExecutionMode.CONCURRENT)
        traces = sorted(result.timeline.traces, key=lambda t: t.start_s)
        for a, b in zip(traces, traces[1:]):
            assert a.end_s <= b.start_s + 1e-12

    def test_serial_mode_forces_stream_zero(self, sched):
        launches = [make_launch(f"k{i}", 30, stream=i) for i in range(4)]
        result = sched.run(launches, ExecutionMode.SERIAL)
        assert all(t.stream == 0 for t in result.timeline.traces)
        traces = sorted(result.timeline.traces, key=lambda t: t.start_s)
        for a, b in zip(traces, traces[1:]):
            assert a.end_s <= b.start_s + 1e-12

    def test_different_streams_overlap(self, sched):
        launches = [make_launch(f"k{i}", 400, stream=i + 1) for i in range(4)]
        result = sched.run(launches, ExecutionMode.CONCURRENT)
        assert result.timeline.overlap_pairs() > 0

    def test_issue_order_preserved_within_stream(self, sched):
        launches = [make_launch(f"k{i}", 10, stream=1) for i in range(6)]
        result = sched.run(launches, ExecutionMode.CONCURRENT)
        by_name = {t.name: t for t in result.timeline.traces}
        starts = [by_name[f"k{i}"].start_s for i in range(6)]
        assert starts == sorted(starts)


class TestConcurrencyBenefit:
    def test_concurrent_not_slower_than_serial(self, sched):
        def mk():
            return [make_launch(f"k{i}", b, stream=i + 1)
                    for i, b in enumerate([800, 90, 40, 14, 6, 2])]
        serial = sched.run(mk(), ExecutionMode.SERIAL).makespan_s
        conc = sched.run(mk(), ExecutionMode.CONCURRENT).makespan_s
        assert conc <= serial * 1.001

    def test_small_kernel_mix_speedup_significant(self, sched):
        # The paper's mechanism: many under-occupied kernels overlap.  The
        # full-pipeline calibration (Table II, ~2x) is asserted at the
        # experiment level; here we only require a clear win on a bare mix.
        def mk():
            return [make_launch(f"k{i}", b, stream=i + 1)
                    for i, b in enumerate([2000, 300, 200, 120, 60, 30, 14, 8, 4, 2, 1, 1])]
        serial = sched.run(mk(), ExecutionMode.SERIAL).makespan_s
        conc = sched.run(mk(), ExecutionMode.CONCURRENT).makespan_s
        assert serial / conc > 1.15

    def test_concurrent_utilization_higher(self, sched):
        def mk():
            return [make_launch(f"k{i}", b, stream=i + 1)
                    for i, b in enumerate([1000, 100, 40, 10, 4, 1])]
        serial = sched.run(mk(), ExecutionMode.SERIAL)
        conc = sched.run(mk(), ExecutionMode.CONCURRENT)
        assert conc.utilization > serial.utilization

    def test_single_big_kernel_modes_equal(self, sched):
        serial = sched.run([make_launch("k", 5000)], ExecutionMode.SERIAL).makespan_s
        conc = sched.run([make_launch("k", 5000, stream=1)], ExecutionMode.CONCURRENT).makespan_s
        assert conc == pytest.approx(serial, rel=1e-9)


class TestConservation:
    @given(
        blocks=st.lists(st.integers(1, 300), min_size=1, max_size=6),
        mode=st.sampled_from([ExecutionMode.SERIAL, ExecutionMode.CONCURRENT]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_block_executes_exactly_once(self, blocks, mode):
        sched = DeviceScheduler(GTX470)
        launches = [make_launch(f"k{i}", b, stream=i) for i, b in enumerate(blocks)]
        result = sched.run(launches, mode)
        assert result.total.blocks == sum(blocks)
        for launch, trace in zip(launches, sorted(result.timeline.traces, key=lambda t: t.name)):
            assert trace.blocks == launch.config.grid_blocks

    @given(blocks=st.lists(st.integers(1, 200), min_size=1, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_makespan_at_least_critical_path(self, blocks):
        sched = DeviceScheduler(GTX470)
        launches = [make_launch(f"k{i}", b, stream=i, heterogeneous=True, seed=i)
                    for i, b in enumerate(blocks)]
        result = sched.run(launches, ExecutionMode.CONCURRENT)
        # Makespan cannot beat perfect speedup over all SMs at peak
        # efficiency.  These lists (256-thread blocks, a 0.2-5x spread)
        # stayed 3 % above it in 3,000 examples; other lists undershoot
        # (below).
        assert result.makespan_s >= _work_bound(sched, launches)

    def test_late_joiners_can_undershoot_the_work_bound(self):
        # The processor-sharing approximation prices a block once, at
        # placement: blocks that join an SM later do not slow the ones
        # already running, so SMs of small, DRAM-heavy blocks with a
        # 400x per-block spread are over-credited.  This list, found by a
        # hill-climb, finishes 24 % under total work / SMs (EXPERIMENTS.md,
        # known deviation 5); a scheduler that recomputes shares on every
        # join moves it to >= 1.
        sched = DeviceScheduler(GTX470)
        spread = (0.05, 20.0)
        launches = [
            make_launch("k0", 82, stream=0, threads=192, instr=23000.0,
                        dram=370000.0, smem=0, heterogeneous=True, seed=0, spread=spread),
            make_launch("k1", 231, stream=1, threads=96, instr=3700.0,
                        dram=58000.0, smem=1024, heterogeneous=True, seed=1, spread=spread),
            make_launch("k2", 179, stream=2, threads=96, instr=540.0,
                        dram=46000.0, smem=8192, heterogeneous=True, seed=2, spread=spread),
        ]
        ratio = sched.run(launches, ExecutionMode.CONCURRENT).makespan_s / _work_bound(
            sched, launches
        )
        assert 0.75 < ratio < 0.77

    @given(blocks=st.lists(st.integers(1, 120), min_size=2, max_size=5))
    @settings(max_examples=20, deadline=None)
    def test_serial_at_least_concurrent(self, blocks):
        sched = DeviceScheduler(GTX470)

        def mk():
            return [make_launch(f"k{i}", b, stream=i + 1) for i, b in enumerate(blocks)]

        serial = sched.run(mk(), ExecutionMode.SERIAL).makespan_s
        conc = sched.run(mk(), ExecutionMode.CONCURRENT).makespan_s
        assert serial >= conc * 0.999

    def test_deterministic(self, sched):
        def mk():
            return [make_launch(f"k{i}", 50 + 13 * i, stream=i, heterogeneous=True, seed=i)
                    for i in range(4)]
        a = sched.run(mk(), ExecutionMode.CONCURRENT).makespan_s
        b = sched.run(mk(), ExecutionMode.CONCURRENT).makespan_s
        assert a == b


class TestHeterogeneousBlocks:
    def test_heterogeneous_grid_executes(self, sched):
        result = sched.run([make_launch("k", 777, heterogeneous=True)], ExecutionMode.SERIAL)
        assert result.total.blocks == 777

    def test_cohort_quantisation_close_to_exact_sum(self, sched):
        launch = make_launch("k", 400, heterogeneous=True, seed=3)
        cohorts = sched.cost_model.build_cohorts(launch)
        assert sum(c.count for c in cohorts) == 400
        exact = float(sched.cost_model.block_base_seconds(launch.config, launch.work).sum())
        approx = sum(c.count * c.base_seconds for c in cohorts)
        assert approx == pytest.approx(exact, rel=0.08)
