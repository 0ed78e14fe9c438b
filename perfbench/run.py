"""Benchmark of valuata, run from the root of a checkout.

    python3 perfbench/run.py --workload fast-queries --seed 1 --seconds 22 --trace 0

Runs the workload's fixed list of operations in rounds, one caller in this
process, until --seconds have passed, then checks the answers against
perfbench/reference.py and prints one JSON object as the last line of
stdout.  --trace 0 reports the end-to-end metrics; --trace 1 adds one
traced round and reports the per-layer metrics instead.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_STARTS = 15  # cold interpreter starts per run; setup_s is their median
TAIL_BEYOND = 10  # latency_tail_us leaves this many operations of a round above it


def load_package():
    """Import valuata from this checkout's src/, never from anywhere else."""
    if not (SRC / "valuata" / "__init__.py").is_file():
        sys.exit(f"error: no package at {SRC / 'valuata'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # cmd_verify lets VALUATA_JOBS override --jobs; the workloads set --jobs.
    os.environ.pop("VALUATA_JOBS", None)
    sys.set_int_max_str_digits(0)
    import valuata
    import valuata.cli

    if Path(valuata.__file__).resolve().parent != (SRC / "valuata").resolve():
        sys.exit(f"error: imported valuata from {valuata.__file__}, not from {SRC}")
    return valuata


@dataclass
class Round:
    wall: float  # s, the whole pass
    op_wall: array  # ns per operation
    op_cpu: array  # ns of CPU per operation, pool workers included
    results: list
    failed: int


class Failed:
    """The result of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __eq__(self, other) -> bool:
        return isinstance(other, Failed) and other.text == self.text

    def __repr__(self) -> str:
        return f"Failed({self.text})"


def package_caches() -> list:
    """Every lru cache the package keeps at module level."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "valuata" or name.startswith("valuata."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def make_call(valuata, wl):
    """The function that performs one operation of `wl`, bound as the package is now."""
    if wl.kind == "fast":
        import workloads

        fns = {}
        for kind, names in workloads.FAST_KINDS.items():
            fns[kind] = next(getattr(valuata, n) for n in names if hasattr(valuata, n))
        return lambda op: fns[op[0]](*op[1])
    cli = sys.modules["valuata.cli"]

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return call


def is_failure(result) -> bool:
    return isinstance(result, Failed) or (isinstance(result, tuple) and result[0] != 0)


def _cpu_ns_with_children() -> int:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((kids.ru_utime + kids.ru_stime) * 1e9)


def run_round(ops, call, caches, jobs: int = 1, tracer=None) -> Round:
    """One closed-loop pass over `ops`, starting from empty package caches."""
    for fn in caches:
        fn.cache_clear()
    n = len(ops)
    op_wall, op_cpu, results = array("q", bytes(8 * n)), array("q", bytes(8 * n)), [None] * n
    clock = time.perf_counter_ns
    cpu_clock = time.process_time_ns if jobs == 1 else _cpu_ns_with_children
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = i
        cpu = cpu_clock()
        start = clock()
        try:
            result = call(op)
        except Exception as exc:  # an operation that raises is a failed operation
            result = Failed(exc)
        op_wall[i] = clock() - start
        op_cpu[i] = cpu_clock() - cpu
        results[i] = result
    wall = time.perf_counter() - t0
    return Round(wall, op_wall, op_cpu, results, sum(map(is_failure, results)))


def cold_start() -> float:
    """Wall time of a fresh interpreter importing valuata and valuata.cli."""
    t0 = time.perf_counter()
    argv = [sys.executable, "-c", "import valuata, valuata.cli"]
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process, plus `jobs` times the largest reaped child's."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if jobs > 1:
        rss += jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return rss / 1024


def check_results(wl, results, seed, jobs1_results=None) -> list[str]:
    """Problems with the answers; failed operations are counted, not checked."""
    import checks

    def passed(rs):
        return [None if is_failure(r) else r for r in rs]

    if wl.kind == "fast":
        return checks.check_fast(wl.ops, passed(results))
    if wl.name == "oracle-queries":
        disagree = [
            f"{' '.join(argv[:6])}: the fast and oracle routes disagree"
            for argv, r in zip(wl.ops, results)
            if "both" in argv and isinstance(r, tuple) and r[0] == 1
        ]
        return disagree + checks.check_oracle(wl.ops, passed(results))
    violations = [
        f"{' '.join(argv[:4])}: exit code 1, a violation"
        for argv, r in zip(wl.ops, results)
        if isinstance(r, tuple) and r[0] == 1
    ]
    problems = violations + checks.check_verify(wl.specs, passed(results), random.Random(seed))
    if jobs1_results is not None:
        problems += checks.check_same_bytes(passed(results), passed(jobs1_results), wl.ops)
    return problems


@dataclass
class Run:
    rounds: int
    attempted: int
    failed: int
    best_wall: array  # ns per operation, the least over the rounds
    best_cpu: array
    first: list  # the first round's results
    starts: list  # cold-start times, s
    problems: list


def measure(valuata, wl, seconds: float, caches, cold_starts: bool) -> Run:
    """Rounds until `seconds` have passed, with one cold start after each
    round until SETUP_STARTS are taken.  Keeps each operation's best time.
    """
    call = make_call(valuata, wl)
    starts, problems = [], []
    if cold_starts:
        cold_start()  # the first start may still be writing bytecode caches
    # A single-process workload moves to the next CPU each round: a busy
    # neighbour slows one CPU at a time, and the best time per operation is
    # then taken over both.
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed if wl.jobs == 1 else [None]
    deadline = time.perf_counter() + seconds
    first = run_round(wl.ops, call, caches, wl.jobs)
    best_wall, best_cpu = first.op_wall, first.op_cpu
    rounds, failed = 1, first.failed
    while time.perf_counter() < deadline:
        if cold_starts and len(starts) < SETUP_STARTS:
            starts.append(cold_start())
        cpu = cpus[rounds % len(cpus)]
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        r = run_round(wl.ops, call, caches, wl.jobs)
        if r.results != first.results:
            problems.append(f"round {rounds + 1} answered differently from round 1")
        best_wall = array("q", map(min, best_wall, r.op_wall))
        best_cpu = array("q", map(min, best_cpu, r.op_cpu))
        rounds, failed = rounds + 1, failed + r.failed
    os.sched_setaffinity(0, allowed)
    while cold_starts and len(starts) < SETUP_STARTS:
        starts.append(cold_start())
    return Run(rounds, rounds * len(wl.ops), failed, best_wall, best_cpu, first.results, starts, problems)


def end_to_end(run: Run, jobs: int) -> dict:
    """The six end-to-end metrics, from each operation's best time over the rounds."""
    ordered = sorted(run.best_wall)
    return {
        "wall_s": (sum(run.best_wall) / 1e9, "s"),
        "cpu_s": (sum(run.best_cpu) / 1e9, "s"),
        "latency_p50_us": (statistics.median(ordered) / 1e3, "us"),
        "latency_tail_us": (ordered[max(0, len(ordered) - TAIL_BEYOND - 1)] / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mb(jobs), "MB"),
        "setup_s": (statistics.median(run.starts), "s"),
    }


def traced_round(valuata, wl, caches, untraced_wall: float, seed: int, efficiency: float):
    """One traced round; returns its results and the per-layer metrics."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        r = run_round(wl.ops, make_call(valuata, wl), caches, wl.jobs, tr)
    finally:
        tr.uninstall()
    hits = {}
    for name in ("digits.is_prime", "valuation.factorize"):
        info = getattr(tr.originals.get(name), "cache_info", None)
        hits[name] = info().hits if info else 0
    stdout_bytes = sum(len(x[1]) for x in r.results if isinstance(x, tuple))
    stats = tr.stats()
    extra = {
        "theorems.reports": tr.reports,
        "theorems.run_harness.parallel_efficiency": efficiency,
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_s": r.wall - untraced_wall,
    }
    metrics = tracing.per_layer(stats, hits, extra)
    self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(
        f"trace: traced wall {r.wall:.4f} s, untraced wall {untraced_wall:.4f} s, "
        f"overhead {r.wall - untraced_wall:.4f} s, layer self times sum to {self_sum:.4f} s, "
        f"{len(tr.start)} spans",
        file=sys.stderr,
    )
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"trace-{wl.name}-seed{seed}"
    tr.write(stem.with_suffix(".tsv.gz"))
    stem.with_suffix(".json").write_text(json.dumps(stats, indent=1, sort_keys=True))
    return r, {m: (metrics[m], unit) for m, unit, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=22)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    valuata = load_package()
    wl = workloads.build(args.workload, args.seed)
    caches = package_caches()
    run = measure(valuata, wl, args.seconds, caches, cold_starts=not args.trace)
    untraced_wall = sum(run.best_wall) / 1e9
    metrics = None if args.trace else end_to_end(run, wl.jobs)
    problems, attempted, failed = run.problems, run.attempted, run.failed

    # verify-parallel is checked against the same requests at --jobs 1; its
    # traced run also reports wall(--jobs 1) / (2 * wall(--jobs 2)).
    jobs1, efficiency = None, 0.0
    if wl.jobs > 1:
        jobs1_wl = workloads.verify_requests(args.seed, jobs=1)
        call = make_call(valuata, jobs1_wl)
        r1 = [run_round(jobs1_wl.ops, call, caches) for _ in range(3 if args.trace else 1)]
        jobs1 = r1[0].results
        efficiency = sum(map(min, zip(*(r.op_wall for r in r1)))) / 1e9 / (2 * untraced_wall)

    if args.trace:
        traced, metrics = traced_round(valuata, wl, caches, untraced_wall, args.seed, efficiency)
        if traced.results != run.first:
            problems.append("the traced round answered differently from the untraced rounds")
        attempted += len(wl.ops)
        failed += traced.failed

    problems += check_results(wl, run.first, args.seed, jobs1)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for i, r in enumerate(run.first):
        if is_failure(r):
            print(f"FAILED OPERATION: {wl.ops[i]!r:.200}: {r!r:.300}", file=sys.stderr)
            break

    print(f"{wl.name} seed={args.seed}: {run.rounds} rounds of {len(wl.ops)} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
