"""Seeded workloads for the sl2hc benchmark.

Each workload turns a seed into a fixed list of ``sl2hc`` command lines (one
"pass"); the benchmark repeats that pass.  The program only ever sees the
generated argv.  ``small=True`` gives a minimal version of every workload
for the self-test.

``PREDICTIONS`` records, next to the workloads, which end-to-end metric each
per-layer metric should move and on which workload, with the reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 0

# The acceptance criterion-3 grid: 10 lambdas x eps {0, 1} x m 0..6.
GRID_LAMBDAS = ("0", "1", "2", "3", "-2", "1/2", "-1/2", "5/2", "1/3", "-7/3")
GRID_MS = tuple(range(7))
LADDER_GENERIC_MS = (8, 16, 24, 32)
LADDER_INTEGRAL_MS = (8, 16, 24)
# 3 keys sits in the middle, so that the median command of a pass is one size
# class rather than the boundary between the 2-key and the 4-key commands.
LATTICE_KEY_COUNTS = (0, 2, 3, 4, 5)

WHY = {
    "oracle_grid": "sweep over the criterion-3 grid: many tiny weight spaces, so matrix building and Fraction overhead dominate",
    "oracle_ladder": "verify at m up to 32: few large weight spaces, so big-integer char_poly and Jordan rank sequences dominate",
    "lattice_keys": "lattice at 0, 2, 3, 4 and 5 generic keys in text and json: no oracle work; mask filtering, O(S^2) covers, rendering",
    "interactive": "about 40 cheap commands from the whole CLI grammar: interpreter start, import and argparse dominate",
}


@dataclass(frozen=True)
class Command:
    """One command line and the invariant its output must satisfy.

    ``check`` names the invariant in ``checks.py``; ``params`` holds what
    that invariant needs.  ``known_defect`` marks a case whose expected
    result the program does not give yet; its failure is reported apart.
    """

    argv: tuple
    check: str
    params: tuple = ()
    known_defect: str = ""


def _cmd(fmt: str, *args, check: str = "plain", params: tuple = (), known_defect: str = "") -> Command:
    argv = (("--format", fmt) if fmt != "text" else ()) + tuple(str(a) for a in args)
    return Command(argv, check, params, known_defect)


def _signed(rng: random.Random, q: Fraction) -> Fraction:
    return q if rng.random() < 0.5 else -q


# --- oracle_grid ------------------------------------------------------------------


def _grid_lambdas(rng: random.Random) -> tuple:
    """A grid of the criterion-3 shape: 5 integral, 3 half-integral, 2 thirds/fifths.

    Every slot keeps the ceiling of |lambda| of the default grid, so the
    windows, and with them the number of weight spaces, stay the same.
    """
    lams = [Fraction(0), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]
    lams += [_signed(rng, Fraction(1)), _signed(rng, Fraction(3)), _signed(rng, Fraction(5, 2))]
    for whole in (0, 2):
        q = rng.choice((3, 5))
        p = rng.choice([p for p in range(1, q) if Fraction(p, q).denominator == q])
        lams.append(_signed(rng, whole + Fraction(p, q)))
    return tuple(str(q) for q in lams)


def oracle_grid(rng: random.Random, seed: int, small: bool) -> list:
    if small:
        lambdas, ms = ("0", "1/2"), (0, 1)
    else:
        lambdas = GRID_LAMBDAS if seed == DEFAULT_SEED else _grid_lambdas(rng)
        ms = GRID_MS
    count = len({Fraction(x) for x in lambdas}) * 2 * len(ms)
    return [
        _cmd(
            "text",
            "sweep",
            "--lambdas=" + ",".join(lambdas),
            "--ms=" + ",".join(map(str, ms)),
            check="sweep",
            params=(count,),
        )
    ]


# --- oracle_ladder ----------------------------------------------------------------


def oracle_ladder(rng: random.Random, seed: int, small: bool) -> list:
    generic_ms, integral_ms = ((2, 4), (2,)) if small else (LADDER_GENERIC_MS, LADDER_INTEGRAL_MS)
    # generic: |lambda| in (1, 2) over 5; integral: lambda = +-3 with eps 0 is reducible
    generic = _signed(rng, Fraction(rng.choice((6, 7, 8, 9)), 5))
    generic_eps = rng.randint(0, 1)
    integral = _signed(rng, Fraction(3))
    out = []
    for lam, eps, ms in ((generic, generic_eps, generic_ms), (integral, 0, integral_ms)):
        for m in ms:
            out.append(_cmd("text", "verify", "--", lam, eps, m, check="verify", params=(eps, m)))
    return out


# --- lattice_keys -----------------------------------------------------------------


def _generic_keys(rng: random.Random, count: int) -> list:
    """Keys with distinct base points in (0, 1/2), so each gives two class points."""
    bases: set = set()
    while len(bases) < count:
        q = rng.choice((5, 7, 9, 11))
        bases.add(Fraction(rng.randint(1, (q - 1) // 2), q))
    keys = []
    for base in sorted(bases):
        shift = rng.randint(0, 2)
        keys.append(_signed(rng, shift + (base if rng.random() < 0.5 else 1 - base)))
    rng.shuffle(keys)
    return [str(k) for k in keys]


def lattice_keys(rng: random.Random, seed: int, small: bool) -> list:
    counts = (0, 1) if small else LATTICE_KEY_COUNTS
    keys = _generic_keys(rng, max(counts))
    out = []
    for fmt in ("text", "json"):
        for n in counts:
            args = ("lattice", "--lambda-keys=" + ",".join(keys[:n])) if n else ("lattice",)
            out.append(_cmd(fmt, *args, check="lattice", params=(2 * n,)))
    return out


# --- interactive ------------------------------------------------------------------

_MALFORMED = (
    ("cg", "-1", "2"),
    ("series", "1/0", "0"),
    ("series", "1/2", "2"),
    ("tensor", "X(1)", "2"),
    ("--format", "dot", "cg", "1", "1"),
    ("ktypes", "V(2)", "--window", "3", "-3"),
    ("verify", "1/2", "0", "abc"),
    ("frobnicate",),
    ("lattice", "--lambda-keys", "1/0"),
    ("sweep", "--lambdas", "1", "--ms", "-1"),
)
REVERSED_WINDOW = "verify --window B A with B > A ends in a ValueError traceback, not exit 2"


def _rational(rng: random.Random) -> Fraction:
    return _signed(rng, Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4))))


def _irreducible_ps(rng: random.Random) -> str:
    while True:
        lam, eps = _rational(rng), rng.randint(0, 1)
        if not (lam.denominator == 1 and (lam.numerator - eps) % 2):
            return f"I({lam},{eps})"


def _class(rng: random.Random, kind: str) -> str:
    if kind == "V":
        return f"V({rng.randint(0, 6)})"
    if kind in ("D+", "D-"):
        return f"{kind}({rng.randint(0, 6)})"
    return _irreducible_ps(rng)


def interactive(rng: random.Random, seed: int, small: bool) -> list:
    reps = 1 if small else 2
    kinds = ("V", "D+", "D-", "I")
    out = []

    def fmt() -> str:
        return rng.choice(("text", "json"))

    for _ in range(2 * reps):
        m1, m2 = rng.randint(0, 6), rng.randint(0, 6)
        out.append(_cmd(fmt(), "cg", m1, m2, check="cg", params=(m1, m2)))
        out.append(_cmd(fmt(), "series", "--", _rational(rng), rng.randint(0, 1)))
        lo = rng.randint(-8, 4)
        out.append(_cmd(fmt(), "ktypes", _class(rng, rng.choice(kinds)), "--window", lo, lo + rng.randint(0, 8)))
    for _ in range(reps):
        for kind in kinds:
            out.append(_cmd(fmt(), "tensor", _class(rng, kind), rng.randint(0, 4)))
    for _ in range(reps + 1):
        gens = [_class(rng, rng.choice(kinds)) for _ in range(rng.randint(1, 3))]
        out.append(_cmd(fmt(), "generate", *gens))
        out.append(_cmd(fmt(), "classify", _class(rng, rng.choice(kinds))))
    for lattice_fmt in ("text", "json", "dot")[: reps + 1]:
        out.append(_cmd(lattice_fmt, "lattice", check="lattice", params=(0,)))
    for _ in range(2 * reps):
        lam, eps, m = _rational(rng), rng.randint(0, 1), rng.randint(0, 2)
        window = ()
        if rng.random() < 0.5:
            lo = rng.randint(-10, 0)
            window = ("--window", lo, lo + rng.randint(4, 12))
        out.append(_cmd(fmt(), "verify", *window, "--", lam, eps, m, check="verify", params=(eps, m)))
    for argv in rng.sample(_MALFORMED, 2 * reps):
        out.append(Command(argv, "malformed"))
    lo = rng.randint(1, 6)
    out.append(
        _cmd(
            "text",
            "verify",
            "--window",
            lo,
            lo - rng.randint(1, 4),
            "--",
            _rational(rng),
            rng.randint(0, 1),
            rng.randint(0, 2),
            check="malformed",
            known_defect=REVERSED_WINDOW,
        )
    )
    rng.shuffle(out)
    return out


WORKLOADS = {
    "oracle_grid": oracle_grid,
    "oracle_ladder": oracle_ladder,
    "lattice_keys": lattice_keys,
    "interactive": interactive,
}


def commands(name: str, seed: int, small: bool = False) -> list:
    """The command lines of one pass of workload ``name`` for ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), seed, small)


# --- which layer metric should move which end-to-end metric -----------------------

# (per-layer metrics, end-to-end metrics they should move, workload, reason).
# An empty middle tuple predicts no change; workload "all" means every one.
PREDICTIONS = (
    (("oracle.casimir_matrix.calls", "oracle.casimir_matrix.self_s", "oracle.matrix_dim_max"),
     ("verify_weights_per_s",), "oracle_grid",
     "building each tiny weight-space matrix through dict vectors is most of the in-process time"),
    (("oracle.casimir_matrix.self_s",), ("wall_s",), "oracle_ladder",
     "matrix building is a minor share once the weight spaces are large"),
    (("linalg.char_poly.calls", "linalg.char_poly.self_s", "linalg.char_poly.coeff_bits_max",
      "linalg.clear_denominators.calls", "linalg.clear_denominators.self_s", "linalg.scaled_bits_max"),
     ("wall_s",), "oracle_ladder",
     "dense Faddeev-LeVerrier and denominator clearing on big integers grow fastest with the dimension"),
    (("linalg.jordan_block_sizes.calls", "linalg.jordan_block_sizes.self_s",
      "linalg.jordan_block_sizes.rank_runs"),
     ("wall_s",), "oracle_ladder",
     "rank sequences run only at multiplicity 2 or more, which only the integral half reaches"),
    (("linalg.root_multiplicity.calls", "linalg.root_multiplicity.self_s", "linalg.root_multiplicity.hits",
      "linalg.root_multiplicity.hit_ratio"),
     ("wall_s",), "oracle_ladder",
     "every candidate is tried by synthetic division; the hit ratio shows the wasted tries"),
    (("oracle.verify_tensor.calls", "oracle.verify_tensor.self_s", "oracle.casimir_report.calls",
      "oracle.casimir_report.self_s", "tensor.ps_tensor.calls", "tensor.ps_tensor.self_s",
      "tensor.decomposition_semisimplification.calls", "tensor.decomposition_semisimplification.self_s"),
     ("verify_weights_per_s",), "oracle_grid",
     "prediction assembly and the per-weight loop are the glue around the linear algebra"),
    (("lattice.enumerate_submodule_sets.calls", "lattice.enumerate_submodule_sets.self_s", "lattice.masks_tried", "lattice.sets", "lattice.set_yield"),
     ("wall_s", "cmd_p50_s"), "lattice_keys",
     "all 2^n masks are filtered to keep 5 of every 8 candidate sets"),
    (("lattice.cover_edges.calls", "lattice.cover_edges.self_s", "lattice.cover_pairs_scanned", "lattice.covers", "lattice.cover_yield"),
     ("wall_s", "cmd_p50_s", "peak_rss_mb"), "lattice_keys",
     "the O(S^2) pair scan is most of a lattice command and rejects almost every pair"),
    (("lattice.specialization_edges.calls", "lattice.specialization_edges.self_s",
      "lattice.generated_submodule.calls", "lattice.generated_submodule.self_s",
      "lattice.classify_irreducible.calls", "lattice.classify_irreducible.self_s"),
     (), "all",
     "closed-form lattice helpers take microseconds"),
    (("tensor.clebsch_gordan.calls", "tensor.clebsch_gordan.self_s", "tensor.tensor_with_finite.calls",
      "tensor.tensor_with_finite.self_s", "tensor.ps_structure.calls", "tensor.ps_structure.self_s",
      "core.ktype_function.calls", "core.ktype_function.self_s", "core.parse_class.calls",
      "core.parse_class.self_s"),
     (), "all",
     "closed forms take microseconds"),
    (("cli.main.calls", "cli.main.self_s"), ("cmd_p50_s",), "lattice_keys",
     "argparse and rendering thousands of lines are about a tenth of a lattice command"),
    (("cli.main.calls", "cli.main.self_s"), ("cmd_p50_s",), "interactive",
     "argparse and rendering are the only in-process work of a cheap command"),
    (("cli.interp_s", "cli.import_s"), ("setup_s",), "all",
     "interpreter start and package import are all of set-up"),
    (("cli.interp_s", "cli.import_s"), ("cmd_p50_s",), "interactive",
     "interpreter start and package import are most of a cheap command"),
    (("trace.overhead_s", "trace.coverage"), (), "all",
     "the tracer's own cost and the share of in-process time its spans cover"),
)
