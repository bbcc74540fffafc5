"""Run the repository benchmark: four workloads, end to end or layer by layer.

    python bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                        [--trace [0|1]] [--out FILE] [--smoke]

Each workload runs in a fresh process.  Inputs come from ``--seed``;
at seed 0 their sha256 must match ``bench/digests.json``.  Outputs are
checked against the ``reference`` backend outside the timed region.
Prints one ``workload metric value unit n`` line per metric measured
(the windowed timings of ``common.WINDOWED`` included), then one JSON
object as the last line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or its
``per_layer`` metrics under ``--trace``).  Exits non-zero on any failed
request, output mismatch or digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import BENCH, OUT, ROOT, load_benchmark, program_present, use_program

WORKLOADS = ("stream-held", "stream-cuts", "serve-small", "serve-mixed")
#: the cascade each workload detects with
CASCADES = {
    "stream-held": "paper",
    "stream-cuts": "paper",
    "serve-small": "quick",
    "serve-mixed": "paper",
}
#: --smoke divides every phase by this
SMOKE_FACTOR = 20
#: set-up time is the median of this many cold starts
COLD_STARTS = 5
#: sha256 of each workload's inputs at seed 0
DIGESTS = BENCH / "digests.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable; default: all four"
    )
    p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    p.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds per run (default: run_seconds of BENCHMARK.json)",
    )
    p.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report the per-layer metrics from a traced run",
    )
    p.add_argument("--out", help="also write the results as JSON to this file")
    p.add_argument("--smoke", action="store_true", help="shorten every phase about 20x")
    return p.parse_args(argv)


def _prepare(cascade: str) -> None:
    """Load the cascade once in a throwaway process, training it on first use."""
    code = f"from repro.zoo import load_or_train\nload_or_train({cascade!r})"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=900)


def _print_lines(workload: str, record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{workload:<12} {name:<36} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    print(
        f"{workload:<12} checks={record['checks']} attempted={record['attempted']} "
        f"failed={record['failed']} digest={record['digest'][:16]}"
    )


def _summary(records: dict[str, dict], names: list[str], prefix: bool) -> dict:
    """The last-line JSON object: counts and every listed metric.

    With ``prefix`` (a run of several workloads) each metric is keyed
    ``workload/metric``.
    """
    metrics: dict[str, dict] = {}
    for workload, record in records.items():
        for name in names:
            key = f"{workload}/{name}" if prefix else name
            m = record["metrics"][name]
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": metrics,
    }


def run_one(args: argparse.Namespace, workload: str, seconds: float, names: list[str]) -> int:
    use_program()
    _prepare(CASCADES[workload])
    import inputs

    stream = workload.startswith("stream")
    items = (inputs.stream_inputs if stream else inputs.serve_inputs)(workload, args.seed)
    digest = inputs.digest(items)
    if args.seed == 0:
        expected = json.loads(DIGESTS.read_text()).get(workload)
        if digest != expected:
            print(
                f"error: {workload} inputs changed: sha256 {digest}, expected {expected}",
                file=sys.stderr,
            )
            return 3
    else:
        print(f"# {workload} input sha256 at seed {args.seed}: {digest}")

    if stream:
        import stream as module
    else:
        import serve as module
    cold_starts = 1 if args.smoke else COLD_STARTS
    result = module.measure(
        workload, items, seconds, trace=bool(args.trace), cold_starts=cold_starts
    )
    missing = [name for name in names if name not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    record = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "digest": digest,
        "metrics": {
            name: {"value": value, "unit": unit, "n": n}
            for name, (value, unit, n) in sorted(
                result["metrics"].items(),
                key=lambda kv: names.index(kv[0]) if kv[0] in names else len(names),
            )
        },
    }
    _print_lines(workload, record)
    if args.out:
        doc = {"seed": args.seed, "seconds": seconds, "trace": args.trace,
               "workloads": {workload: record}}
        Path(args.out).write_text(json.dumps(doc, indent=1))
    summary = _summary({workload: record}, names, prefix=False)
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def run_each(args: argparse.Namespace, workloads: list[str], names: list[str]) -> int:
    """Every workload in its own process; merge their JSON.

    A workload whose process fails or leaves no result (a digest
    mismatch, a server that never got ready, a crash) makes the merged
    result incorrect, and one without a result counts as one failed
    attempt.
    """
    records: dict[str, dict] = {}
    lost: list[str] = []
    code = 0
    for workload in workloads:
        out = OUT / f"run-{workload}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(out)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        status = subprocess.run(cmd, cwd=ROOT).returncode
        code = code or status
        if out.exists():
            records.update(json.loads(out.read_text())["workloads"])
        else:
            lost.append(workload)
    if lost:
        print(f"error: no result from {', '.join(lost)}", file=sys.stderr)
    if args.out:
        doc = {"seed": args.seed, "trace": args.trace, "workloads": records}
        Path(args.out).write_text(json.dumps(doc, indent=1))
    summary = _summary(records, names, prefix=True)
    summary["attempted"] += len(lost)
    summary["failed"] += len(lost)
    summary["correct"] = summary["correct"] and code == 0
    print(json.dumps(summary), flush=True)
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not program_present():
        print("error: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    spec = load_benchmark()
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds /= SMOKE_FACTOR
    OUT.mkdir(exist_ok=True)
    workloads = args.workload or list(WORKLOADS)
    if len(workloads) > 1:
        return run_each(args, workloads, names)
    return run_one(args, workloads[0], seconds, names)


if __name__ == "__main__":
    sys.exit(main())
