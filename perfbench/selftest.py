"""The benchmark's own test.

    python3 perfbench/selftest.py

Runs every workload once at a tiny size with all checks on, then feeds
each check answers that are off by one (or otherwise altered) and
expects every one to be rejected.  Also runs one traced round, checks
that BENCHMARK.json lists exactly the metrics the benchmark prints, and
that run.py refuses to run without the package beside it.  Exits 0 when
all of that holds.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys

import checks
import run
import tracer as tracing
import workloads

SEED = 7
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def one_round(valuata, caches, wl, tr=None):
    return run.run_round(wl.ops, run.make_call(valuata, wl), caches, tr)


def bump_omega(out: str, delta: int) -> str:
    """The same query output with its omega moved by delta."""
    if out.startswith("{"):
        obj = json.loads(out)
        obj["omega"] += delta
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    return re.sub(r"= (\d+)$", lambda m: f"= {int(m.group(1)) + delta}", out.rstrip("\n")) + "\n"


def test_fast(valuata, caches) -> None:
    wl = workloads.build("fast-queries", SEED, quick=True)
    r = one_round(valuata, caches, wl)
    expect(r.failed == 0, "fast-queries: no operation fails")
    expect(not run.check_results(wl, r.results, SEED), "fast-queries: the program's answers pass")
    for kind in workloads.FAST_KINDS:
        i = next(i for i, (k, _) in enumerate(wl.ops) if k == kind)
        for delta in (1, -1):
            bad = list(r.results)
            bad[i] += delta
            expect(bool(run.check_results(wl, bad, SEED)), f"fast-queries: {kind} answer {delta:+d} is rejected")


def test_oracle(valuata, caches) -> None:
    wl = workloads.build("oracle-queries", SEED, quick=True)
    r = one_round(valuata, caches, wl)
    expect(r.failed == 0, "oracle-queries: no operation fails")
    expect(not run.check_results(wl, r.results, SEED), "oracle-queries: the program's answers pass")
    seen = set()
    for i, argv in enumerate(wl.ops):
        form = argv[2] if len(argv) > 3 and not argv[3].startswith("--") else "literal"
        if form in seen:
            continue
        seen.add(form)
        for delta in (1, -1):
            code, out, err = r.results[i]
            if delta < 0 and checks.parse_omega_output(out)[1] == 0:
                continue  # -1 would not be a valuation at all
            bad = list(r.results)
            bad[i] = (code, bump_omega(out, delta), err)
            expect(bool(run.check_results(wl, bad, SEED)), f"oracle-queries: {form} answer {delta:+d} is rejected")
    i = next(i for i, argv in enumerate(wl.ops) if "both" in argv)
    bad = list(r.results)
    bad[i] = (1, "", "DISAGREEMENT")
    expect(bool(run.check_results(wl, bad, SEED)), "oracle-queries: a --mode both disagreement is rejected")


def test_verify(valuata, caches) -> list:
    wl = workloads.build("verify-sweep", SEED, quick=True)
    r = one_round(valuata, caches, wl)
    expect(r.failed == 0, "verify-sweep: no operation fails")
    expect(not run.check_results(wl, r.results, SEED), "verify-sweep: the program's reports pass")
    rng = random.Random(SEED)
    for i, spec in enumerate(wl.specs):
        code, out, err = r.results[i]
        lines = out.splitlines(keepends=True)
        j = rng.randrange(len(lines))
        obj = json.loads(lines[j])
        label = f"verify-sweep: {spec['runner']} {obj['claim']}"
        for field in ("oracle", "predicted"):
            if obj[field] == "inf":
                continue
            changed = dict(obj, **{field: obj[field] + 1})
            line = json.dumps(changed, sort_keys=True, separators=(",", ":")) + "\n"
            bad = (code, "".join(lines[:j] + [line] + lines[j + 1 :]), err)
            found = checks.check_verify([spec], [bad], random.Random(0), sample=len(lines))
            expect(bool(found), f"{label}: {field} +1 is rejected")
        bad = (code, "".join(lines[:-1]), err)
        expect(bool(checks.check_verify([spec], [bad], rng)), f"{label}: a missing report is rejected")
        bad = (code, out.replace(",", ", ", 1), err)
        expect(bool(checks.check_verify([spec], [bad], rng)), f"{label}: a re-spaced line is rejected")
        bad = (code, out, re.sub(r"checked=(\d+)", lambda m: f"checked={int(m.group(1)) + 1}", err, 1))
        expect(bool(checks.check_verify([spec], [bad], rng)), f"{label}: a summary count +1 is rejected")
    bad = list(r.results)
    bad[0] = (1,) + bad[0][1:]
    expect(bool(run.check_results(wl, bad, SEED)), "verify-sweep: a request that exits 1 (a violation) is rejected")
    return r.results


def test_parallel(valuata, caches, jobs1_results) -> None:
    wl = workloads.build("verify-parallel", SEED, quick=True)
    r = one_round(valuata, caches, wl)
    expect(r.failed == 0, "verify-parallel: no operation fails")
    expect(not run.check_results(wl, r.results, SEED, jobs1_results), "verify-parallel: the output matches --jobs 1")
    code, out, err = r.results[0]
    bad = [(code, out + " ", err)] + r.results[1:]
    expect(bool(checks.check_same_bytes(bad, jobs1_results, wl.ops)), "verify-parallel: one changed byte is rejected")


def test_trace(valuata, caches) -> None:
    before = {name: getattr(valuata, name) for name in ("is_prime", "factorize", "eval_B", "run_harness")}
    registry = dict(valuata.SEQUENCES)
    for name in ("fast-queries", "verify-sweep"):
        wl = workloads.build(name, SEED, quick=True)
        tr = tracing.Tracer()
        tr.install()
        try:
            r = one_round(valuata, caches, wl, tr)
        finally:
            tr.uninstall()
        metrics = tracing.per_layer(tr.stats(), {}, {})
        self_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        expect(len(tr.start) > 0 and self_sum <= r.wall, f"{name}: traced layer self times fit in the round's wall time")
        expect(not run.check_results(wl, r.results, SEED), f"{name}: the traced round's answers pass")
    restored = all(getattr(valuata, n) is f for n, f in before.items()) and valuata.SEQUENCES == registry
    expect(restored, "tracer: uninstall puts every original function back")


def test_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER),
        "BENCHMARK.json per_layer matches the traced run",
    )
    expect(
        [m["name"] for m in spec["end_to_end"]]
        == ["wall_s", "cpu_s", "latency_p50_us", "latency_tail_us", "peak_rss_mb", "setup_s"],
        "BENCHMARK.json end_to_end matches the timed run",
    )
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")


def test_bare_checkout() -> None:
    """run.py must fail, and print no result, beside BENCHMARK.json alone."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "perfbench/run.py", "--workload", "fast-queries", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "{" not in proc.stdout, "run.py refuses to run without src/valuata")


def main() -> int:
    valuata = run.load_package()
    caches = run.package_caches()
    test_spec()
    test_fast(valuata, caches)
    test_oracle(valuata, caches)
    jobs1 = test_verify(valuata, caches)
    test_parallel(valuata, caches, jobs1)
    test_trace(valuata, caches)
    test_bare_checkout()
    print(f"{len(failures)} failed" if failures else "all checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
