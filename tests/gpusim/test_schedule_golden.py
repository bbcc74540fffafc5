"""Schedule golden: every ``ScheduleResult`` field, byte for byte.

A seeded corpus of launch lists runs through :class:`DeviceScheduler` in
both execution modes; each result is reduced to a canonical fingerprint
(every float as ``float.hex``) and compared by sha256 against the
committed ``schedule_golden.json``.  Any change to the event loop that
moves a makespan, a kernel's start or end, ``warp_seconds`` or a counter
by one ulp fails here.

The corpus uses explicit Python-float cohorts and integer-valued
``BlockWork``, so no value depends on NumPy's SIMD reduction order or
``log`` implementation: the digests hold on any CPU.

Regenerate (only when a schedule change is intended and explained)::

    PYTHONPATH=src python tests/gpusim/test_schedule_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.gpusim.device import GTX470
from repro.gpusim.kernel import BlockCohort, BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode, ScheduleResult
from repro.utils.rng import rng_for

GOLDEN = Path(__file__).with_name("schedule_golden.json")
SEED = 20120910
N_CASES = 60
MODES = (ExecutionMode.SERIAL, ExecutionMode.CONCURRENT)
_COUNTER_FIELDS = (
    "warp_instructions",
    "dram_bytes_read",
    "dram_bytes_written",
    "shared_bytes",
    "constant_requests",
    "branches",
    "divergent_branches",
    "blocks",
    "warps",
)
#: block sizes: 1-32 warps, so warp slots (48 per SM) limit residency
_THREADS = (32, 64, 96, 128, 192, 256, 384, 512, 1024)
#: shared memory per block: 0 up to a whole SM (48 KiB), so shared
#: memory limits residency too
_SMEM = (0, 0, 512, 2048, 4096, 6144, 12288, 16384, 24576, 49152)


def _work(rng: np.random.Generator, grid: int) -> BlockWork:
    """Integer-valued per-block work: sums are exact in any order."""

    def ints(hi: int) -> np.ndarray:
        return rng.integers(0, hi, grid).astype(np.float64)

    branches = ints(400)
    return BlockWork(
        warp_instructions=ints(50_000),
        dram_bytes_read=ints(1 << 16),
        dram_bytes_written=ints(1 << 12),
        branches=branches,
        divergent_branches=np.minimum(ints(40), branches),
        shared_bytes=ints(1 << 14),
        constant_requests=ints(300),
    )


def _cohorts(rng: np.random.Generator, grid: int) -> list[BlockCohort]:
    """One to five cohorts partitioning ``grid`` blocks, Python floats."""
    k = 1 if rng.random() < 0.4 else int(rng.integers(2, 6))
    k = min(k, grid)
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, grid), k - 1, replace=False))
    counts = [b - a for a, b in zip([0, *cuts], [*cuts, grid])]
    return [
        BlockCohort(count=count, base_seconds=int(rng.integers(1, 4000)) * 1.0e-8)
        for count in counts
    ]


def _grid(rng: np.random.Generator) -> int:
    """1 block up to several full device waves."""
    tier = rng.random()
    if tier < 0.25:
        return int(rng.integers(1, 14))
    if tier < 0.75:
        return int(rng.integers(14, 200))
    return int(rng.integers(200, 1500))


def _launch(rng: np.random.Generator, name: str, stream: int, waits: tuple) -> KernelLaunch:
    threads = int(rng.choice(_THREADS))
    smem = int(rng.choice(_SMEM))
    regs = int(min(63, GTX470.registers_per_sm // threads, rng.integers(8, 40)))
    grid = _grid(rng)
    return KernelLaunch(
        name=name,
        config=LaunchConfig(
            grid_blocks=grid,
            threads_per_block=threads,
            regs_per_thread=regs,
            shared_mem_per_block=smem,
        ),
        work=_work(rng, grid),
        stream=stream,
        tag=str(rng.choice(["", "filter", "integral", "cascade"])),
        wait_streams=waits,
        cohorts=_cohorts(rng, grid),
    )


def _pyramid_case(rng: np.random.Generator) -> list[KernelLaunch]:
    """The engine's frame shape: per-scale streams, then a joining display."""
    levels = int(rng.integers(2, 15))
    launches = []
    for level in range(levels):
        stream = level + 1
        for k in range(int(rng.integers(1, 5))):
            launches.append(_launch(rng, f"l{level}k{k}", stream, ()))
    waits = tuple(range(1, levels + 1))
    launches.append(_launch(rng, "display", levels + 1, waits))
    return launches


def _random_case(
    rng: np.random.Generator, max_launches: int, max_streams: int
) -> list[KernelLaunch]:
    """Random launches over 1-16 streams, some waiting on other streams."""
    n_launches = int(rng.integers(1, max_launches + 1))
    n_streams = int(rng.integers(1, max_streams + 1))
    launches = []
    for i in range(n_launches):
        stream = int(rng.integers(0, n_streams))
        waits: tuple = ()
        if n_streams > 1 and rng.random() < 0.15:
            k = int(rng.integers(1, min(4, n_streams) + 1))
            waits = tuple(sorted(int(s) for s in rng.choice(n_streams, k, replace=False)))
        launches.append(_launch(rng, f"k{i}", stream, waits))
    return launches


def corpus() -> list[tuple[str, list[KernelLaunch], float]]:
    """``(case id, launches, start_time)`` for every golden case."""
    cases = []
    for idx in range(N_CASES):
        rng = rng_for(SEED, "schedule-golden", idx)
        if idx == 0:
            launches = _random_case(rng, 1, 1)
        elif idx % 4 == 0:
            launches = _random_case(rng, 6, 3)
        elif idx % 4 == 3:
            launches = _pyramid_case(rng)
        else:
            launches = _random_case(rng, 120, 16)
        start = 0.0 if idx % 3 == 0 else int(rng.integers(1, 10**6)) * 1.0e-9
        cases.append((f"case{idx:02d}", launches, start))
    return cases


def fingerprint(result: ScheduleResult) -> str:
    """Canonical text of a schedule: every float as ``float.hex``."""

    def counters(c) -> str:
        return ",".join(
            getattr(c, f).hex() if isinstance(getattr(c, f), float) else str(getattr(c, f))
            for f in _COUNTER_FIELDS
        )

    lines = [
        result.mode.value,
        result.makespan_s.hex(),
        result.warp_seconds.hex(),
        result.utilization.hex(),
        float(result.device_warp_capacity).hex(),
    ]
    for t in result.timeline.traces:
        lines.append(
            "|".join(
                [
                    t.name,
                    str(t.stream),
                    t.issue_s.hex(),
                    t.start_s.hex(),
                    t.end_s.hex(),
                    str(t.blocks),
                    t.tag,
                    counters(t.counters),
                ]
            )
        )
    lines.append(counters(result.total))
    return "\n".join(lines)


def digests() -> dict[str, str]:
    """sha256 of every corpus case's fingerprint, per execution mode."""
    scheduler = DeviceScheduler(GTX470)
    out = {}
    for case_id, launches, start in corpus():
        for mode in MODES:
            result = scheduler.run(launches, mode, start_time=start)
            out[f"{case_id}/{mode.value}"] = hashlib.sha256(
                fingerprint(result).encode()
            ).hexdigest()
    return out


@pytest.fixture(scope="module")
def computed() -> dict[str, str]:
    return digests()


def test_corpus_covers_the_scheduler_paths():
    cases = corpus()
    sizes = [len(launches) for _, launches, _ in cases]
    assert min(sizes) == 1 and max(sizes) >= 100
    streams = {len({launch.stream for launch in launches}) for _, launches, _ in cases}
    assert min(streams) == 1 and max(streams) >= 12
    all_launches = [launch for _, launches, _ in cases for launch in launches]
    assert any(launch.wait_streams for launch in all_launches)
    grids = [launch.config.grid_blocks for launch in all_launches]
    assert min(grids) == 1 and max(grids) > 8 * GTX470.sm_count * 10
    assert any(len(launch.cohorts) == 1 for launch in all_launches)
    assert any(len(launch.cohorts) > 2 for launch in all_launches)
    assert any(start > 0 for _, _, start in cases)
    # residency limited by shared memory and, elsewhere, by warp slots
    assert any(
        launch.config.shared_mem_per_block * 2 > GTX470.shared_mem_per_sm
        for launch in all_launches
    )
    assert any(launch.config.warps_per_block > 8 for launch in all_launches)


def test_schedules_match_the_golden(computed):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(computed) == sorted(golden)
    mismatched = [key for key in golden if computed[key] != golden[key]]
    assert not mismatched, f"{len(mismatched)} schedules moved: {mismatched[:8]}"


def test_run_does_not_mutate_its_launches():
    launches = corpus()[1][1]
    before = [
        (launch.config, [(c.count, c.base_seconds) for c in launch.cohorts])
        for launch in launches
    ]
    scheduler = DeviceScheduler(GTX470)
    first = fingerprint(scheduler.run(launches))
    second = fingerprint(scheduler.run(launches))
    assert first == second
    after = [
        (launch.config, [(c.count, c.base_seconds) for c in launch.cohorts])
        for launch in launches
    ]
    assert before == after


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
