#!/usr/bin/env python3
"""Spread report: repeated runs of the inf2vec benchmark, metric by metric.

Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 --out perfbench/results/a.json
    python3 perfbench/spread.py --seeds 1-10 --compare perfbench/results/a.json
    python3 perfbench/spread.py --workloads stream-digg --seeds 1-5 --trace

Each workload runs once per seed through `perfbench/run.py` (one process
at a time). For every metric the report prints the median and the first
and third quartiles (Python's `statistics.quantiles(values, n=4)`), and the
spread `(q3 - q1) / median` next to the metric's bound from
`BENCHMARK.json`. Untraced runs check that every spread except `setup_s`
is within its bound (`steady` when it is below a third of it). With
`--compare` the medians are also checked against an earlier set: the
second median may not be worse than the first by more than the bound.
With `--trace` the runs are traced and the per-layer medians are printed
with the tracing overhead and the unattributed share. The exit code is
non-zero when a run fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else None
    return proc.returncode, result, detail, proc.stderr, time.monotonic() - start


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, spread


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the raw results here (JSON)")
    parser.add_argument("--compare", help="an earlier --out file to check medians against")
    args = parser.parse_args()

    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = parse_seeds(args.seeds)
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            code, result, detail, stderr, wall = run_once(
                workload, seed, args.seconds, args.trace
            )
            good = code == 0 and result and result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: exit {code}, "
                  f"{'ok' if good else 'FAILED'}, {wall:.1f} s", file=sys.stderr)
            if not good:
                ok = False
                sys.stderr.write(stderr[-2000:])
                continue
            runs.append({"seed": seed, "result": result, "detail": detail})
        raw[workload] = runs
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"seconds": args.seconds, "trace": args.trace, "runs": raw}, fh, indent=1)

    base = json.load(open(args.compare))["runs"] if args.compare else {}
    for workload, runs in raw.items():
        if not runs:
            continue
        first = runs[0]["detail"]
        print(f"\n== {workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]} ==")
        print(f"   fingerprint {json.dumps(first['fingerprint'])}")
        print(f"   inputs (seed {runs[0]['seed']}) {json.dumps(first['inputs'])}")
        header = f"   {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}  verdict"
        print(header)
        metrics = runs[0]["result"]["metrics"]
        for name, m in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
            spec = specs.get(name, {})
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if name == "setup_s":
                    verdict = "(spread not gated)"
                elif spread > bound:
                    verdict, ok = "SPREAD ABOVE BOUND", False
                elif spread > bound / 3:
                    verdict = "within bound, not steady"
                else:
                    verdict = "steady"
                old = [r["result"]["metrics"][name]["value"] for r in base.get(workload, [])]
                if old:
                    change = worse_by(statistics.median(old), med, spec["better"])
                    if change > bound:
                        verdict += f"; WORSE than base by {100 * change:.1f}%"
                        ok = False
                    else:
                        verdict += f"; {100 * -change:+.1f}% vs base (+ is better)"
            bound_text = f"{100 * bound:.0f}%" if bound is not None else "-"
            print(f"   {name:<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{100 * spread:>8.1f}%{bound_text:>8}  {verdict}")
        notes = {}
        for r in runs:
            for key, value in r["detail"]["numbers"].items():
                notes.setdefault(key, []).append(value)
        print("   " + ", ".join(f"{k}={statistics.median(v):.6g}" for k, v in notes.items()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
