"""Compare two sets of benchmark runs, metric by metric.

    python bench/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is the ``--out`` JSON of one ``bench/run.py`` run (one or more
workloads); A is the baseline, B the change.  For every (workload,
metric) pair both sets measured it prints each side's median and
quartiles, the change of B's median against A's, the metric's bound
(from ``BENCHMARK.json``; ``common.DEFAULT_BOUND`` for the windowed
timings it does not list) and a verdict:

* ``worse`` / ``better``: B's median is worse / better than A's by more
  than the bound;
* ``same``: within the bound;
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot tell, unless every B run
  beats every A run (then ``better``).

Per-layer metrics have no bound; their verdict is ``-``.  Exits 1 when
any pair is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from common import DEFAULT_BOUND, WINDOWED, load_benchmark


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[str, float]:
    """``(verdict, relative change of B against A, positive = worse)``."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (bm - am) / am if am else 0.0
    if bound is None:
        return "-", change
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound:
        wins = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if wins else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def _metric_specs() -> dict[str, dict]:
    """``name -> {"unit", "better", "bound"}`` of every metric a run can report.

    The metrics of ``BENCHMARK.json`` (per-layer ones have no bound) and
    the ``WINDOWED`` ones it does not list, bounded by ``DEFAULT_BOUND``.
    """
    spec = load_benchmark()
    out = {
        name: {"unit": unit, "better": better, "bound": DEFAULT_BOUND}
        for name, (unit, better) in WINDOWED.items()
    }
    out.update({m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]})
    return out


def _collect(paths: list[str]) -> dict:
    values: dict = defaultdict(list)
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for workload, record in doc["workloads"].items():
            for name, m in record["metrics"].items():
                values[workload, name].append(m["value"])
    return values


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    a_paths, b_paths = argv[:split], argv[split + 1 :]
    if not a_paths or not b_paths:
        print("need at least one run on each side of --", file=sys.stderr)
        return 2
    metrics = _metric_specs()
    a, b = _collect(a_paths), _collect(b_paths)
    worse = 0
    print(f"{'workload':<12} {'metric':<34} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        spec_m = metrics.get(name)
        if spec_m is None:
            continue
        bound = spec_m.get("bound")
        result, change = verdict(a[key], b[key], spec_m["better"], bound)
        worse += result == "worse"
        qa, qb = quartiles(a[key]), quartiles(b[key])
        side = "{1:.5g} [{0:.5g}, {2:.5g}]"
        print(
            f"{workload:<12} {name:<34} {side.format(*qa):>30} {side.format(*qb):>30} "
            f"{change:>+8.1%} {'' if bound is None else f'{bound:.0%}':>6}  {result}"
        )
    print(f"# A: {len(a_paths)} run(s), B: {len(b_paths)} run(s); worse pairs: {worse}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
