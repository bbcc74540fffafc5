"""Prepared launch templates: validated, priced and frozen once.

``DeviceScheduler.prepare`` memoises what ``run`` would otherwise derive
from a launch on every call.  These tests pin the contract that makes the
memo safe: a prepared launch cannot change, a malformed launch raises the
same ``LaunchError`` whether prepared or handed straight to ``run``, and a
prepared launch schedules byte-identically to an unprepared one.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import LaunchError
from repro.gpusim.device import GTX470
from repro.gpusim.kernel import BlockCohort, BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode

from tests.gpusim.test_schedule_golden import corpus, fingerprint


def _launch(grid=40, threads=128, smem=2048, stream=1, work=None, **kw):
    config = LaunchConfig(
        grid_blocks=grid, threads_per_block=threads, regs_per_thread=16,
        shared_mem_per_block=smem,
    )
    if work is None:
        work = BlockWork.from_uniform(
            grid, warp_instructions=3000.0, dram_bytes_read=4096.0,
            branches=50.0, divergent_branches=2.0,
        )
    return KernelLaunch(name="k", config=config, work=work, stream=stream, **kw)


@pytest.fixture
def sched():
    return DeviceScheduler(GTX470)


class TestImmutableTemplates:
    def test_writing_a_prepared_work_array_raises(self, sched):
        prepared = sched.prepare(_launch())
        with pytest.raises(ValueError, match="read-only"):
            prepared.work.warp_instructions[0] = 1.0
        for name in ("dram_bytes_read", "branches", "constant_requests"):
            with pytest.raises(ValueError):
                getattr(prepared.work, name)[:] = 0.0

    def test_a_prepared_launch_cannot_be_rebound(self, sched):
        prepared = sched.prepare(_launch())
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.stream = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.config = LaunchConfig(grid_blocks=1, threads_per_block=32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.work.branches = np.zeros(40)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prepared.config.grid_blocks = 2

    def test_prepare_is_idempotent_and_carries_the_plan(self, sched):
        launch = _launch()
        assert launch.plan is None
        prepared = sched.prepare(launch)
        assert prepared.plan is not None and prepared.plan.blocks == 40
        assert sched.prepare(prepared) is prepared
        # another scheduler of the same device and cost model reuses it
        assert DeviceScheduler(GTX470).prepare(prepared) is prepared

    def test_run_leaves_an_unprepared_launch_writable(self, sched):
        launch = _launch()
        sched.run([launch])
        assert launch.plan is None
        launch.work.warp_instructions[0] = 1.0  # still the caller's array


MALFORMED = {
    "grid": (dict(grid=0, work=BlockWork.from_uniform(1, warp_instructions=1.0)),
             "grid must have at least one block"),
    "threads": (dict(threads=2048), "exceeds device limit"),
    "shared memory": (dict(smem=GTX470.shared_mem_per_sm + 1), "exceeds SM capacity"),
    "work shape": (dict(work=BlockWork.from_uniform(39, warp_instructions=1.0)),
                   r"has shape \(39,\), expected \(40,\)"),
    "negative work": (dict(work=BlockWork.from_uniform(40, warp_instructions=-1.0)),
                      "contains negative entries"),
    "divergence": (dict(work=BlockWork.from_uniform(
        40, warp_instructions=1.0, branches=1.0, divergent_branches=2.0)),
        "divergent_branches cannot exceed branches"),
    "stream": (dict(stream=-1), "stream id must be non-negative"),
    "wait streams": (dict(wait_streams=(0, -2)), "wait_streams ids must be non-negative"),
    "cohorts short of the grid": (dict(cohorts=(BlockCohort(30, 1e-6),)),
                                  "cover 30 of its 40 blocks"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_a_malformed_launch_raises_the_same_error_prepared_or_not(sched, case):
    kwargs, message = MALFORMED[case]
    with pytest.raises(LaunchError, match=message) as from_run:
        sched.run([_launch(stream=0), _launch(**kwargs)])
    with pytest.raises(LaunchError, match=message) as from_prepare:
        sched.prepare(_launch(**kwargs))
    assert str(from_run.value) == str(from_prepare.value)


def test_prepared_launches_schedule_byte_identically(sched):
    for _, launches, start in corpus()[:12]:
        prepared = [sched.prepare(launch) for launch in launches]
        for mode in ExecutionMode:
            assert fingerprint(sched.run(prepared, mode, start)) == fingerprint(
                sched.run(launches, mode, start)
            )


def test_a_plan_for_another_device_is_not_reused():
    launches = corpus()[5][1]
    small = dataclasses.replace(GTX470, name="half GTX 470", sm_count=7)
    prepared = [DeviceScheduler(GTX470).prepare(launch) for launch in launches]
    on_small = DeviceScheduler(small)
    assert fingerprint(on_small.run(prepared)) == fingerprint(on_small.run(launches))
    assert on_small.prepare(prepared[0]) is not prepared[0]
