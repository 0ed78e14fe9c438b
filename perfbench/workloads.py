"""Seeded inputs for the four workloads.

A workload is one round of operations, the same list every round.  Every
input is drawn from `random.Random(seed)`, so one seed always gives one
list.  Where the cost of an operation grows steeply with its index, the
indices are stratified: each of K equal slices of the log-scale range
gets one draw, so every seed sees the same spread of sizes and the round
costs about the same whatever the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import reference

U64_MAX = 2**64 - 1
PREDICT_N_MAX = (U64_MAX - 1) // 2  # 2n + 1 must stay inside the digit kernels

# Fast-route calls.  Each kind names the library function to call; a kind
# whose function is an alias falls back to the function it aliases, so the
# workload keeps its shape if the alias is removed from the package.
FAST_KINDS = {
    "bsum": ("predict_bsum_omega",),
    "bsum_bound": ("predict_bsum_omega_bound", "predict_bsum_omega"),
    "central_binomial_v2": ("predict_central_binomial_v2",),
    "franel_v2": ("predict_franel_v2_bound", "predict_central_binomial_v2"),
    "delannoy_v3": ("predict_delannoy_v3",),
    "schroder_v3": ("predict_schroder_v3",),
    "legendre": ("predict_legendre_omega",),
    "trinomial": ("predict_trinomial_omega",),
    "motzkin": ("predict_motzkin_omega",),
    "vp_binomial": ("vp_binomial_fast",),
    "vp_factorial": ("vp_factorial",),
}
BASED_KINDS = ("bsum", "bsum_bound", "legendre", "trinomial", "motzkin")
NOVEL_PRIMES = 12  # 64-bit primes, each used by one call per round
NOVEL_SEMIPRIMES = 4  # products of two 32-bit primes, likewise


@dataclass
class Workload:
    name: str
    kind: str  # "fast" (library calls) or "cli" (argv lists for valuata.cli.main)
    ops: list
    jobs: int = 1
    specs: list = field(default_factory=list)  # verify grids, parallel to ops


def _stratified(rng: random.Random, k: int, lo: float, hi: float) -> list[int]:
    """k integers log-uniform on [lo, hi], one per equal slice of log(hi/lo).

    The last is hi itself, so the costliest input is the same for every seed.
    """
    span = math.log(hi / lo)
    out = [int(round(lo * math.exp(span * (i + rng.random()) / k))) for i in range(k - 1)]
    return out + [int(hi)]


def _coprime_partner(rng: random.Random, base: int, lo: int = -30, hi: int = 30) -> int:
    while True:
        a = rng.randint(lo, hi)
        if a and math.gcd(a, base) == 1:
            return a


# ---------------------------------------------------------------------------
# fast-queries
# ---------------------------------------------------------------------------


# Factor shapes of the base pool; "q" stands for a seeded prime in 11..97.
# A fixed set of shapes keeps the digit-kernel work per call alike across
# seeds; only the larger primes vary.
POOL_SHAPES = (
    (2,), (3,), (5,), (7,), (2, "q"), (3, "q"), (5, "q"), (2, 3, "q"),
    ("q",), ("q",), ("q", "q"), ("q", "q"), (2, "q", "q"), (3, "q", "q"), ("q", "q", "q"), (2, 5, "q"),
)


def fast_queries(seed: int, per_kind: int = 1800) -> Workload:
    rng = random.Random(seed)
    mid_primes = [p for p in range(11, 98) if reference.is_prime(p)]
    pool = []
    for shape in POOL_SHAPES:
        qs = iter(rng.sample(mid_primes, shape.count("q")))
        pool.append(math.prod(next(qs) if f == "q" else f for f in shape))
    odd_pool = [x for x in pool if x % 2]
    wide_primes = [p for p in range(11, 200) if reference.is_prime(p)]
    prime_pool = [2, 3, 5, 7] + rng.sample(wide_primes, 4) + [2**31 - 1, 2**61 - 1]
    novel = [reference.random_prime(rng, 64) for _ in range(NOVEL_PRIMES)]
    novel += [
        reference.random_prime(rng, 32) * reference.random_prime(rng, 32)
        for _ in range(NOVEL_SEMIPRIMES)
    ]
    ops = []
    for kind in FAST_KINDS:
        top = U64_MAX if kind in ("vp_binomial", "vp_factorial") else PREDICT_N_MAX
        for n in _stratified(rng, per_kind, 1, top):
            n = min(n, top)
            parity = rng.choice(("even", "odd"))
            if kind in ("central_binomial_v2", "franel_v2", "delannoy_v3", "schroder_v3"):
                ops.append((kind, (n, parity)))
            elif kind == "vp_binomial":
                ops.append((kind, (n, rng.randint(0, n), rng.choice(prime_pool))))
            elif kind == "vp_factorial":
                ops.append((kind, (n, rng.choice(prime_pool))))
            else:
                ops.append((kind, _based_args(rng, kind, n, parity, pool, odd_pool)))
    # Each new 64-bit base replaces the base of one call, so the factorization
    # cache cannot answer it.
    based = [i for i, (kind, _) in enumerate(ops) if kind in BASED_KINDS]
    for i, base in zip(rng.sample(based, len(novel)), novel):
        kind, args = ops[i]
        ops[i] = (kind, _based_args(rng, kind, args[0], args[1], [base], [base]))
    rng.shuffle(ops)
    return Workload("fast-queries", "fast", ops)


def _based_args(rng, kind, n, parity, pool, odd_pool):
    if kind == "legendre":
        return (n, parity, rng.choice(odd_pool) * rng.choice((1, -1)))
    base = rng.choice(pool)
    a = _coprime_partner(rng, base)
    if kind in ("bsum", "bsum_bound"):
        return (n, parity, a, base - a)
    return (n, parity, a, base)


# ---------------------------------------------------------------------------
# oracle-queries
# ---------------------------------------------------------------------------

# (form, lowest index, highest index).  The highest index puts the costliest
# query of each form near 50 ms on the reference machine; for literals the
# "index" is the bit length of the value.
ORACLE_FORMS = (
    ("literal", 256, 200_000),
    ("B2", 8, 1800),
    ("B3", 8, 1400),
    ("B4", 8, 1200),
    ("B5", 8, 1000),
    ("binom", 64, 80_000),
    ("delannoy", 8, 8000),
    ("schroder", 8, 8000),
    ("little-schroder", 8, 8000),
    ("catalan", 64, 20_000),
    ("central-binomial", 64, 20_000),
    ("franel", 8, 2500),
    ("hexagonal", 8, 3000),
    ("fuss-catalan", 32, 12_000),
    ("multinomial", 16, 5000),
    ("trinomial", 8, 3000),
    ("motzkin", 8, 3000),
    ("legendre", 8, 2000),
    ("bsum", 8, 1400),
)
OMEGA_BASES = (2, 3, 4, 5, 6, 7, 9, 10, 12, 15, 18, 30)
VP_BASES = (2, 3, 5, 7)


def oracle_queries(seed: int, per_form: int = 16, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    ops = []
    for form, lo, hi in ORACLE_FORMS:
        hi = max(lo + 1, int(hi * scale))
        for i, n in enumerate(_stratified(rng, per_form, lo, hi)):
            ops.append(_oracle_query(rng, form, n, both=i % 2 == 1))
    rng.shuffle(ops)
    return Workload("oracle-queries", "cli", ops)


def _base_verb(rng):
    if rng.random() < 0.5:
        return ["vp", str(rng.choice(VP_BASES))]
    return ["omega", str(rng.choice(OMEGA_BASES))]


def _oracle_query(rng, form, n, both):
    fmt = ["--format", "json"] if rng.random() < 0.25 else []
    if form == "literal":
        x = rng.choice(OMEGA_BASES)
        k = rng.randint(0, 40)
        y = x**k * rng.getrandbits(max(8, n - k * x.bit_length()))
        return ["omega", str(x), str(max(y, 1))] + fmt
    if form[0] == "B":
        m = int(form[1])
        a, b = _small_coprime(rng)
        base = (a + b) * rng.choice((1, -1))
        mode = ["--mode", "both"] if m == 2 and both else ["--mode", "oracle"]
        return ["omega", str(base), "B", str(n), str(m), str(a), str(b)] + mode + fmt
    if form == "binom":
        mode = ["--mode", "both"] if both else []
        return _base_verb(rng) + ["binom", str(n), str(rng.randint(0, n))] + mode + fmt
    params = {
        "fuss-catalan": lambda: [rng.randint(2, 6)],
        "multinomial": lambda: [rng.randint(2, 7)],
        "trinomial": lambda: list(_small_coprime(rng)),
        "motzkin": lambda: list(_small_coprime(rng)),
        "legendre": lambda: [rng.choice((3, 5, 7, 9, 11, 13, 15))],
        "bsum": lambda: [rng.randint(2, 5), *_small_coprime(rng)],
    }.get(form, lambda: [])()
    return _base_verb(rng) + [form, str(n)] + [str(v) for v in params] + fmt


def _small_coprime(rng):
    while True:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if math.gcd(a, b) == 1:
            return a, b


# ---------------------------------------------------------------------------
# verify-sweep / verify-parallel
# ---------------------------------------------------------------------------

# Five grids per runner.  n_max is the centre of a +-6% seeded jitter; the
# centres put each request near 50 ms on the reference machine, so that no
# runner dominates the sweep.
VERIFY_GRIDS = {
    "thm1": [{"n_max": n, "ab_max": ab} for n, ab in ((56, 3), (48, 4), (39, 5), (36, 6), (29, 7))],
    "thm2": [
        {"n_max": n, "ab_max": ab, "m_set": ms}
        for n, ab, ms in ((78, 2, (3,)), (54, 3, (3, 4)), (41, 3, (3, 4, 5)), (48, 4, (4,)), (41, 2, (5, 3)))
    ],
    "cor1": [{"n_max": n, "exact_max": e} for n, e in ((540, 210), (780, 158), (420, 368), (960, 105), (660, 262))],
    "cor2": [{"n_max": n} for n in (118, 129, 141, 153, 165)],
    "thm3": [{"n_max": n} for n in (564, 689, 813, 938, 1062)],
    "thm4": [{"n_max": n} for n in (353, 432, 504, 576, 655)],
    "cor3": [
        {"n_max": n, "x_set": xs}
        for n, xs in ((114, (3,)), (98, (3, 5)), (81, (-3, 9, 5)), (89, (7, -5)), (74, (15, 3, -9, 5)))
    ],
    "thm5": [
        {"n_max": n, "a_set": a_set, "b_set": b_set}
        for n, a_set, b_set in (
            (70, (1, 2), (3, 5)), (61, (1, -1, 2), (3, -2)), (54, (1, 3, -4), (2, 5, -3)),
            (77, (2, -1), (3,)), (46, (1, 2, 3, -2), (5, 7, -3)),
        )
    ],
    "thm6": [
        {"n_max": n, "a_set": a_set, "b_set": b_set}
        for n, a_set, b_set in (
            (70, (1, 2), (3, 5)), (61, (1, -1, 2), (3, -2)), (54, (1, 3, -4), (2, 5, -3)),
            (77, (2, -1), (3,)), (46, (1, 2, 3, -2), (5, 7, -3)),
        )
    ],
    "lemma1": [{"n_max": n, "primes": p} for n, p in ((103, 7), (71, 13), (52, 19), (39, 29), (29, 43))],
    "remarks": [{"n_max": n} for n in (110, 125, 140, 150, 160)],
}


def verify_requests(seed: int, jobs: int = 1, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    specs = []
    for runner, grids in VERIFY_GRIDS.items():
        for grid in grids:
            spec = dict(grid, runner=runner)
            spec["n_max"] = max(1, round(grid["n_max"] * scale * rng.uniform(0.94, 1.06)))
            specs.append(spec)
    rng.shuffle(specs)
    name = "verify-sweep" if jobs == 1 else "verify-parallel"
    return Workload(name, "cli", [verify_argv(s, jobs) for s in specs], jobs, specs)


def verify_argv(spec: dict, jobs: int) -> list[str]:
    argv = ["verify", spec["runner"], "--n-max", str(spec["n_max"])]
    for key, flag in (("ab_max", "--ab-max"), ("exact_max", "--exact-max"), ("primes", "--primes")):
        if key in spec:
            argv += [flag, str(spec[key])]
    for key, flag in (("m_set", "--m-set"), ("a_set", "--a-set"), ("b_set", "--b-set"), ("x_set", "--x-set")):
        if key in spec:
            # The "=" form keeps argparse from reading "-2,3" as an option.
            argv.append(f"{flag}={','.join(str(v) for v in spec[key])}")
    return argv + ["--format", "json", "--jobs", str(jobs)]


def build(name: str, seed: int, quick: bool = False) -> Workload:
    """The workload `name` for `seed`; `quick` shrinks it for the self-test."""
    if name == "fast-queries":
        return fast_queries(seed, per_kind=40 if quick else 1800)
    if name == "oracle-queries":
        return oracle_queries(seed, per_form=3 if quick else 16, scale=0.05 if quick else 1.0)
    if name in ("verify-sweep", "verify-parallel"):
        jobs = 1 if name == "verify-sweep" else 2
        return verify_requests(seed, jobs, scale=0.15 if quick else 1.0)
    raise KeyError(name)


WORKLOADS = ("fast-queries", "oracle-queries", "verify-sweep", "verify-parallel")
