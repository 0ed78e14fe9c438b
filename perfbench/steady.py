"""Steadiness of the end-to-end metrics across seeds.

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...]

Runs perfbench/run.py once per seed and workload, one run at a time, and
prints for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
A spread above a third of its bound is marked "wide"; above the bound,
"OVER".  setup_s has no spread limit, only its bound on the median.
Every figure is also written to .perfbench-out/steady-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per workload")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", choices=names, help="default: all")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    record: dict = {}
    status = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in seeds:
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {seed}: answers failed their checks")
                status = 1
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            figures = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
            print(f"  seed {seed}: {figures}", flush=True)
        record[workload] = values
        failed_shares = {f / a for f, a in shares}
        print(f"{workload}: {args.runs} seeds from {args.first_seed}, failed share {sorted(failed_shares)}")
        for name, vs in values.items():
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med
            bound = bounds[name]
            mark = ""
            if name != "setup_s":
                mark = "OVER" if spread > bound else "wide" if spread > bound / 3 else "ok"
                status |= spread > bound
            print(
                f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                f"spread {spread:6.1%}  bound {bound:5.0%}  {mark}"
            )
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(record, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
