"""Checks of the program's answers, made apart from the program.

Each check returns a list of problems; an empty list means the answers
hold.  The checks run after the timed rounds and never count towards a
metric.
"""

from __future__ import annotations

import json
import math
import random
import re

import reference as ref
import workloads

# --- fast-queries: every answer, recomputed by Legendre's formula


def expected_fast(kind: str, args: tuple) -> int:
    if kind == "vp_binomial":
        n, k, p = args
        return ref.vp_binomial(n, k, p)
    if kind == "vp_factorial":
        n, p = args
        return ref.vp_factorial(n, p)
    n, parity = args[0], args[1]
    if kind in ("central_binomial_v2", "franel_v2"):
        return ref.closed_form(2, n, parity, ref.vp_central)
    if kind == "delannoy_v3":
        return ref.closed_form(3, n, parity, ref.vp_central)
    if kind == "schroder_v3":
        return ref.schroder_form(n, parity)
    if kind in ("bsum", "bsum_bound"):
        return ref.closed_form(args[2] + args[3], n, parity, ref.vp_central)
    if kind in ("legendre", "trinomial"):
        return ref.closed_form(args[-1], n, parity, ref.vp_central)
    if kind == "motzkin":
        return ref.closed_form(args[-1], n, parity, ref.vp_catalan)
    raise KeyError(kind)


def check_fast(ops: list, answers: list) -> list[str]:
    problems = []
    for (kind, args), got in zip(ops, answers):
        if got is None:
            continue  # a failed operation, counted apart
        want = expected_fast(kind, args)
        if got != want:
            problems.append(f"{kind}{args}: program {got}, expected {want}")
    return problems


# --- oracle-queries: x**k must divide the rebuilt value and x**(k+1) must not

_HUMAN = re.compile(r"^omega_(-?\d+)\((.*)\) = (\d+|inf)$")


def rebuild_target(tokens: list[str]) -> int:
    head = tokens[0]
    values = [int(t) for t in tokens[1:]]
    if len(tokens) == 1:
        return int(head)
    if head == "B":
        return ref.bsum(*values)
    if head == "binom":
        return math.comb(*values)
    return ref.SEQUENCES[head](*values)


def parse_omega_output(stdout: str) -> tuple[int, int | str]:
    """(base, k) from one query's output, human or JSON."""
    line = stdout.strip().splitlines()[0]
    if line.startswith("{"):
        obj = json.loads(line)
        return obj["base"], obj["omega"]
    m = _HUMAN.match(line)
    if not m:
        raise ValueError(f"unparsable output {line!r}")
    k = m.group(3)
    return int(m.group(1)), k if k == "inf" else int(k)


def check_oracle(ops: list, outputs: list) -> list[str]:
    problems = []
    for argv, result in zip(ops, outputs):
        if result is None:
            continue  # a failed operation, counted apart
        out = result[1]
        options = [i for i, t in enumerate(argv) if t.startswith("--")]
        tokens = argv[2 : options[0] if options else len(argv)]
        try:
            base, k = parse_omega_output(out)
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"{' '.join(argv[:6])}: {exc}")
            continue
        if base != int(argv[1]):
            problems.append(f"{' '.join(argv[:6])}: answered for base {base}")
            continue
        y = rebuild_target(tokens)
        ok = (k == "inf") if y == 0 else (k != "inf" and ref.exact_power(base, y, k))
        if not ok:
            problems.append(f"{' '.join(argv[:6])}: omega {k} does not fit the rebuilt value")
    return problems


# --- verify-sweep: counts from the grid, byte-exact JSON, sampled reports

CLAIM_KINDS = {
    "thm1": "exact", "thm2": "lower", "cor1": "exact", "popcount": "exact", "cor2": "lower",
    "thm3": "exact", "thm4": "exact", "little-schroder": "exact", "cor3": "exact",
    "thm5": "exact", "thm6": "exact", "lemma1": "upper", "multinomial-valuation": "exact",
    "multinomial-bound": "upper", "shifted-product-bound": "upper", "hexagonal": "exact",
    "catalan-shift": "exact",
}


def expected_counts(spec: dict) -> dict[str, int]:
    """Reports per claim that the grid in `spec` must produce."""
    runner, rows = spec["runner"], spec["n_max"] + 1
    if runner in ("thm1", "thm2"):
        ab = spec["ab_max"]
        pairs = sum(1 for b in range(1, ab + 1) for a in range(1, b + 1) if math.gcd(a, b) == 1)
        per = len(spec["m_set"]) if runner == "thm2" else 1
        return {runner: pairs * rows * 2 * per}
    if runner == "cor1":
        return {"cor1": rows * 2, "popcount": rows}
    if runner in ("cor2", "thm3"):
        return {runner: rows * 2}
    if runner == "thm4":
        return {"thm4": rows * 2, "little-schroder": rows * 2}
    if runner == "remarks":
        return {"hexagonal": rows * 2, "catalan-shift": rows * 2}
    if runner == "cor3":
        xs = {x for x in spec["x_set"] if x % 2 and x not in (1, -1)}
        return {"cor3": len(xs) * rows * 2}
    if runner in ("thm5", "thm6"):
        pairs = sum(
            1
            for b in spec["b_set"]
            for a in spec["a_set"]
            if b not in (0, 1, -1) and math.gcd(a, b) == 1
        )
        return {runner: pairs * rows * 2}
    if runner == "lemma1":
        primes = [p for p in range(2, spec["primes"] + 1) if ref.is_prime(p)]
        counts = {c: rows * len(primes) for c in ("lemma1", "multinomial-valuation", "multinomial-bound")}
        counts["shifted-product-bound"] = rows * sum(1 for p in primes if p > 2)
        return counts
    raise KeyError(runner)


def derive_report(claim: str, inst: dict) -> tuple[int, int | str]:
    """(predicted, oracle) for one report, from the claim and its instance."""
    n = inst["n"]
    parity = inst.get("parity")
    idx = 2 * n if parity == "even" else 2 * n + 1

    def omega(x, y):
        return "inf" if y == 0 else ref.omega_value(x, y)

    if claim in ("thm1", "thm2"):
        a, b = inst["a"], inst["b"]
        m = inst.get("m", 2)
        return ref.closed_form(a + b, n, parity, ref.vp_central), omega(a + b, ref.bsum(idx, m, a, b))
    if claim == "cor1":
        return ref.closed_form(2, n, parity, ref.vp_central), ref.vp_central(idx, 2)
    if claim == "popcount":
        return bin(n).count("1"), ref.vp_central(n, 2)
    if claim == "cor2":
        return ref.closed_form(2, n, parity, ref.vp_central), omega(2, ref.franel(idx))
    if claim == "thm3":
        return ref.closed_form(3, n, parity, ref.vp_central), omega(3, ref.delannoy(idx))
    if claim in ("thm4", "little-schroder"):
        shift = 2 * n + 1 if parity == "odd" else 2 * n + 2
        s = ref.schroder(shift) // (2 if claim == "little-schroder" else 1)
        return ref.schroder_form(n, parity), omega(3, s)
    if claim == "cor3":
        x = inst["x"]
        return ref.closed_form(x, n, parity, ref.vp_central), omega(x, ref.legendre(idx, x))
    if claim == "thm5":
        a, b = inst["a"], inst["b"]
        return ref.closed_form(b, n, parity, ref.vp_central), omega(b, ref.trinomial(idx, a, b))
    if claim == "thm6":
        a, b = inst["a"], inst["b"]
        return ref.closed_form(b, n, parity, ref.vp_catalan), omega(b, ref.motzkin(idx, a, b))
    if claim == "hexagonal":
        return ref.closed_form(3, n, parity, ref.vp_catalan), omega(3, ref.motzkin(idx, 1, 3))
    if claim == "catalan-shift":
        shift = 2 * n + 1 if parity == "odd" else 2 * n + 2
        return ref.catalan_shift_form(n, parity), ref.vp_catalan(shift, 2)
    p = inst["p"]
    if claim == "lemma1":
        return n, ref.vp_small(2 * n + 1, p) + ref.vp_central(n, p)
    if claim in ("multinomial-valuation", "multinomial-bound"):
        oracle = ref.vp_factorial(p * n, p) - p * ref.vp_factorial(n, p)
        return (ref.digit_sum(n, p) if claim == "multinomial-valuation" else n), oracle
    if claim == "shifted-product-bound":
        shifted = sum(ref.vp_small(k * n + 1, p) for k in range(2, p))
        return n, shifted + ref.vp_central(n, p)
    raise KeyError(claim)


def expected_fields(claim: str, predicted: int, oracle) -> dict:
    kind = CLAIM_KINDS[claim]
    if oracle == "inf":
        return {"verdict": "bound_holds" if kind == "lower" else "violation", "slack": None}
    if kind == "exact":
        return {"verdict": "exact" if oracle == predicted else "violation", "slack": None}
    slack = oracle - predicted if kind == "lower" else predicted - oracle
    return {"verdict": "bound_holds" if slack >= 0 else "violation", "slack": slack}


def check_verify(specs: list, outputs: list, rng: random.Random, sample: int = 4) -> list[str]:
    problems = []
    for spec, result in zip(specs, outputs):
        label = " ".join(workloads.verify_argv(spec, 1)[:4])
        if result is None:
            continue  # a failed operation, counted apart
        _code, out, err = result
        lines = out.splitlines()
        counts: dict[str, int] = {}
        records = []
        for line in lines:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                problems.append(f"{label}: not a JSON line: {line[:80]}")
                continue
            if json.dumps(obj, sort_keys=True, separators=(",", ":")) != line:
                problems.append(f"{label}: line does not re-serialize byte-identically: {line[:80]}")
            if obj["verdict"] == "violation":
                problems.append(f"{label}: violation reported: {line[:120]}")
            counts[obj["claim"]] = counts.get(obj["claim"], 0) + 1
            records.append(obj)
        want = expected_counts(spec)
        if counts != want:
            problems.append(f"{label}: report counts {counts}, grid gives {want}")
        summary = {
            m.group(1): int(m.group(2))
            for m in re.finditer(r"^\[(\S+)\] checked=(\d+) violations=0$", err, re.M)
        }
        if summary != want:
            problems.append(f"{label}: summary {summary}, grid gives {want}")
        for obj in rng.sample(records, min(sample, len(records))):
            if obj["claim"] not in CLAIM_KINDS:
                problems.append(f"{label}: unknown claim {obj['claim']!r}")
                continue
            predicted, oracle = derive_report(obj["claim"], obj["instance"])
            fields = {"predicted": predicted, "oracle": oracle}
            fields.update(expected_fields(obj["claim"], predicted, oracle))
            got = {k: obj[k] for k in fields}
            if got != fields:
                problems.append(f"{label}: {obj['claim']} {obj['instance']}: got {got}, derived {fields}")
    return problems


def check_same_bytes(outputs: list, reference_outputs: list, argvs: list) -> list[str]:
    """The --jobs 2 stdout must equal the --jobs 1 stdout byte for byte."""
    return [
        f"{' '.join(argv[:4])}: stdout differs from the --jobs 1 run"
        for argv, result, result1 in zip(argvs, outputs, reference_outputs)
        if result is not None and (result1 is None or result[1] != result1[1])
    ]
