"""Independent spectral oracle for the closed-form tensor decompositions.

The modules are ``core.Ladder`` windows of the compact-picture action on a
K-weight basis: ``PrincipalSeriesRealization`` at any rational lam, reducible
or not, and ``FinDimRealization`` for V(m).  The Casimir element

    Omega = H'^2 + 1 + 2 E'F' + 2 F'E'

acts on a tensor product through the coproduct g -> g(x)1 + 1(x)g and
preserves each total K-weight, so its matrix on the (finite-dimensional)
weight-k subspace W_k of (ladder) (x) V(m) is exactly computable.
Comparing its generalized eigenvalue multiplicities with the closed-form
prediction is a genuinely independent check: the report consults no closed
form, neither ``tensor`` nor ``core.principal_is_irreducible``, as
``test_oracle.py::test_casimir_report_consults_no_closed_form`` checks.

On the basis (a, b) of a weight space, ordered by b ascending, that matrix
is tridiagonal.  ``casimir_report`` builds its three diagonals directly as
integers under one scale (``_diagonals``), scales the candidate
eigenvalues to integers once, and uses the continuant recurrence of
``linalg``: no ``Fraction`` is touched per K-weight.  No value has
multiplicity above 2 ((lam+m-2j)^2 repeats only for j + j' = lam + m), so
Jordan sizes need at most one band's principal minors.  Two sl(2)
identities, which use only the ladder coefficients, spare most of the weights:

- E'F' - F'E' = H' on each factor, hence on the product, so on W_k
  F'E' = (Omega - (k+1)^2)/4, and on W_{k+2} E'F' is the same expression.
  AB and BA have one characteristic polynomial (Sylvester's determinant
  identity), so every W_k has the same one, taken and factored once per
  report.
- From W_k to W_{k+2} only the value (k+1)^2 can change.  Let G_k(c) be the
  generalized c-eigenspace of Omega on W_k.  For c != (k+1)^2, F'E' is
  invertible on G_k(c) and E'F' on G_{k+2}(c), so E'_k and F'_{k+2} are
  injective there, and E'_k maps G_k(c) isomorphically onto G_{k+2}(c).
  A simple value keeps one block, so only a repeated value t^2 changes,
  and only at the steps k = t-1 and k = -t-1, where its sizes are taken
  again at k + 2.  A repeated value forces an integral lam with t = lam+m
  (mod 2), so these steps are weights (k = eps+m mod 2) exactly when lam+eps
  is odd, that is, when I(lam, eps) is reducible.

The tests compare all this against a reference built from the definition.
``casimir_matrix`` takes Omega on W_k of any ladder (x) V(m) (a single
module is taken as its product with V(0)) from the weight-space maps
E'_k and F'_{k+2} above, which ``_ladder_map`` reads off the ``Ladder``
coefficients by the Leibniz rule, and ``linalg.mat_mul``; it never reads
``_diagonals``.  Reports over one-weight windows, which take each weight
alone, and the dense Faddeev-LeVerrier and Bareiss routines complete it.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .core import (
    FinDim,
    Ladder,
    Record,
    Scalar,
    UnexpectedEigenvalueError,
    _is_int,
    _weight_range,
    as_scalar,
    check_highest_weight,
    check_parity,
    format_scalar,
    ladder,
)
from .linalg import mat_mul, root_multiplicity, tridiagonal_char_poly, tridiagonal_jordan_block_sizes
from .tensor import ps_tensor


# --- realizations ------------------------------------------------------------


def PrincipalSeriesRealization(lam: Scalar, eps: int) -> Ladder:
    """Principal series on the K-weight basis {w_k : k = eps mod 2}."""
    return Ladder(lam, eps, None, None)


def FinDimRealization(m: int) -> Ladder:
    """V(m) as the window |k| <= m of the ladder at lam = -(m+1)."""
    return ladder(FinDim(m))


def _basis(a: Ladder, b: Ladder, k: int) -> list:
    """The pairs (k - j, j) spanning the weight-k subspace W_k of a (x) b, j ascending."""
    if b.lo is None or b.hi is None:
        raise ValueError("weight spaces are finite only with a finite-dimensional factor")
    return [(k - j, j) for j in range(b.lo, b.hi + 1, 2) if a.has_weight(k - j)]


def _ladder_map(a: Ladder, b: Ladder, k: int, step: int) -> list:
    """E' (step 2) or F' (step -2) from W_k to W_{k+step} of a (x) b by the
    Leibniz rule g(x)1 + 1(x)g (columns are images)."""
    coeff = Ladder.e_coeff if step == 2 else Ladder.f_coeff
    rows = {pair: i for i, pair in enumerate(_basis(a, b, k + step))}
    columns = _basis(a, b, k)
    mat = [[Fraction(0)] * len(columns) for _ in rows]
    for j, (x, y) in enumerate(columns):
        for image, c in (((x + step, y), coeff(a, x)), ((x, y + step), coeff(b, y))):
            if c:
                if image not in rows:
                    raise AssertionError("Casimir left the weight subspace")
                mat[rows[image]][j] = c
    return mat


def casimir_matrix(a: Ladder, b: Ladder, k: int) -> list:
    """Exact matrix of Omega = H'^2 + 1 + 2 E'F' + 2 F'E' on the weight-k
    subspace W_k of a (x) b (columns are images); b = V(0) takes a alone.

    H' is k on W_k.  E'F' + F'E' is one product of ``_ladder_map``s through
    W_{k-2} + W_{k+2}, the block row [E'_{k-2} F'_{k+2}] times the block
    column [F'_k; E'_k]; an empty neighbour has no block and adds nothing.
    """
    n = len(_basis(a, b, k))
    if not n:
        raise ValueError(f"no vectors at this K-weight: k={k}")
    into = [e + f for e, f in zip(_ladder_map(a, b, k - 2, 2), _ladder_map(a, b, k + 2, -2))]
    out = _ladder_map(a, b, k, -2) + _ladder_map(a, b, k, 2)
    mat = [[Fraction(k * k + 1 if i == j else 0) for j in range(n)] for i in range(n)]
    for row, prod in zip(mat, mat_mul(into, out)):
        for j, x in enumerate(prod):
            row[j] += 2 * x
    return mat


def _diagonals(p: int, q: int, m: int, k: int) -> tuple:
    """Omega on the K-weight-k subspace of I(lam, eps) (x) V(m), lam = p/q,
    as integer diagonals (diag, upper, lower) scaled by q^2.

    The basis is (a, b) = (k - b, b) for b = -m, -m+2, ..., m, as in
    ``casimir_matrix``, whatever eps.  The entries are q^2 times

    - lam^2 + (m+1)^2 - 1 + 2ab on the diagonal,
    - -(lam+a+1)(m+b) from column (a, b) to row (a+2, b-2),
    - (lam-a+1)(b-m) from column (a, b) to row (a-2, b+2),

    the entries of Omega(x)1 + 1(x)Omega - 1 + 2 H'(x)H' + 4 E'(x)F' + 4 F'(x)E'.
    """
    bs = range(-m, m + 1, 2)
    base = p * p + q * q * ((m + 1) ** 2 - 1)
    return (
        [base + 2 * q * q * (k - b) * b for b in bs],
        [-q * (p + q * (k - b + 1)) * (m + b) for b in bs[1:]],
        [q * (p - q * (k - b - 1)) * (b - m) for b in bs[:-1]],
    )


def casimir_on_symmetric_power(m: int) -> list:
    """Casimir diagonal on the m-th symmetric power of the defining module.

    Independent cross-check model for V(m): on the monomial basis indexed by
    k = 0..m the Casimir acts by (m-2k)^2 + 1 + 2(m-k)(k+1) + 2k(m-k+1).
    """
    check_highest_weight(m)
    return [
        Fraction((m - 2 * k) ** 2 + 1 + 2 * (m - k) * (k + 1) + 2 * k * (m - k + 1))
        for k in range(m + 1)
    ]


# --- reducibility points ------------------------------------------------------


def reducibility_points(lam: Scalar, eps: int) -> list:
    """K-weights where a ladder coefficient vanishes, with the dying generator.

    Nonempty exactly when the series is reducible: integral parameter with
    the opposite parity.
    """
    w = PrincipalSeriesRealization(lam, eps)
    zeros = ((-w.lam - 1, "E'"), (w.lam + 1, "F'"))
    return sorted((int(k), gen) for k, gen in zeros if w.has_weight(k))


# --- spectral reports ---------------------------------------------------------


class Segment(Record):
    """The Casimir structure shared by the weights first, first+2, ..., last,
    a maximal run of equal spectra.

    ``eigenvalues`` holds (value, algebraic multiplicity, Jordan block sizes
    sorted descending), sorted by value.
    """

    __slots__ = ("first", "last", "eigenvalues")


class CasimirReport(Record):
    """The weight spectra of I(lam, eps) (x) V(m) over a K-weight window, one
    segment per run of weights with equal spectra."""

    __slots__ = ("lam", "eps", "m", "window", "segments")


def default_window(lam: Scalar, eps: int, m: int) -> tuple:
    """Symmetric window; the bound |lam|+m+6 snapped up to the K-type parity.
    The Jordan sizes change only at steps k = +-t - 1 with |t| <= |lam|+m, so
    it holds each with weights beyond."""
    lam = as_scalar(lam)
    check_parity(eps)
    check_highest_weight(m)
    bound = math.ceil(abs(lam) + m + 6)
    if (bound - (eps + m)) % 2 != 0:
        bound += 1
    return (-bound, bound)


def casimir_report(lam: Scalar, eps: int, m: int, window: tuple | None = None) -> CasimirReport:
    """Exact Casimir eigenstructure of (principal series) (x) V(m) per K-weight.

    By the identities of the module docstring, the characteristic polynomial
    is taken and factored once, at the window's first weight (which an
    ``UnexpectedEigenvalueError`` names), and Jordan sizes at that weight.
    Each repeated value t^2 (lam is then integral, so q = 1 and its scaled
    root is t^2) ends a segment at each step k = t-1 and k = -t-1 that is a
    weight of the window other than its last; the next segment starts at
    k + 2, where its Jordan sizes alone are taken again.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    check_highest_weight(m)
    if window is None:
        window = default_window(lam, eps, m)
    lo, hi = window
    if not (_is_int(lo) and _is_int(hi)):
        raise ValueError(f"window bounds must be ints, got {window!r}")
    if lo > hi:
        raise ValueError("window must be nonempty")
    weights = _weight_range(lo, hi, eps + m)
    if not weights:
        raise ValueError(f"window [{lo},{hi}] holds no K-weight k = eps + m (mod 2)")
    p, q = lam.numerator, lam.denominator
    band = _diagonals(p, q, m, weights[0])
    roots, remaining = [], tridiagonal_char_poly(*band)
    for c in eigenvalue_candidates(lam, m):
        cs = c * (q * q)
        assert cs.denominator == 1
        mult, remaining = root_multiplicity(remaining, cs.numerator)
        if mult:
            roots.append((c, cs.numerator, mult))
    if len(remaining) != 1:
        raise UnexpectedEigenvalueError(
            f"unexpected eigenvalue at K-weight {weights[0]}: char poly factor {remaining} "
            f"has no roots among the candidates"
        )
    eigen = [(c, mult, (1,) if mult == 1 else tridiagonal_jordan_block_sizes(*band, cs, mult)) for c, cs, mult in roots]
    steps = sorted(
        (k, i)
        for i, (_, cs, mult) in enumerate(roots)
        if mult == 2
        for k in (math.isqrt(cs) - 1, -math.isqrt(cs) - 1)
        if k in weights[:-1]
    )
    first, segments = weights[0], []
    for k, i in steps:
        segments.append(Segment(first, k, tuple(eigen)))
        first = k + 2
        c, cs, mult = roots[i]
        eigen[i] = (c, mult, tridiagonal_jordan_block_sizes(*_diagonals(p, q, m, first), cs, mult))
    segments.append(Segment(first, weights[-1], tuple(eigen)))
    return CasimirReport(lam, eps, m, (lo, hi), tuple(segments))


def eigenvalue_candidates(lam: Fraction, m: int) -> tuple:
    """The distinct values (lam+m-2j)^2, j = 0..m, ascending: every Casimir
    eigenvalue on I(lam, eps) (x) V(m) is one of them.  For lam = p/q they
    are (p + q(m-2j))^2 / q^2, ordered by the integer numerators."""
    p, q = lam.numerator, lam.denominator
    return tuple(Fraction(s, q * q) for s in sorted({(p + q * (m - 2 * j)) ** 2 for j in range(m + 1)}))


# --- closed form vs oracle ----------------------------------------------------


class BlockObservation(Record):
    """Observed Jordan data at the Casimir value of one LengthTwo block.

    ``jordan_profiles`` holds the distinct size tuples seen across the window.
    """

    __slots__ = ("casimir", "jordan_profiles")


class VerificationVerdict(Record):
    """Closed form against oracle over a window: the report's segments, the
    one predicted ``((value, mult), ...)`` and whether every weight has it."""

    __slots__ = ("lam", "eps", "m", "window", "segments", "predicted", "block_observations", "passed")

    def first_mismatch(self) -> Segment | None:
        return None if self.passed else self.segments[0]


def verify_tensor(lam: Scalar, eps: int, m: int, window: tuple | None = None) -> VerificationVerdict:
    """Compare closed-form Casimir multiplicities against the oracle per K-weight.

    Each block I(t, e) of ``ps_tensor``, reducible or not, has every K-type
    of parity e exactly once, at Casimir value t^2.  The blocks must have
    parity eps+m: one of any other parity has no K-type at these weights,
    so it predicts nothing there and fails the verdict.  So the prediction
    is one ``((value, mult), ...)``, the blocks of parity eps+m counted by
    value, the same at every weight.  Every weight of the report
    has the same ``(value, mult)`` pairs, from its one characteristic
    polynomial, so one comparison decides the verdict; the Jordan profiles
    at the glued values are read once per segment, at their places in its
    tuple.  Disagreement is a verdict, not an error.
    """
    summands = ps_tensor(lam, eps, m)
    report = casimir_report(lam, eps, m, window)

    parity = (eps + m) % 2
    blocks = [b for s in summands for b in s.blocks]
    counts = Counter(b.lam ** 2 for b in blocks if b.eps == parity)
    predicted = tuple(sorted(counts.items()))
    # value of a glued (two-block) summand -> the Jordan profiles seen there
    glued = {b.lam ** 2: set() for s in summands if len(s.blocks) == 2 for b in s.blocks}
    first = report.segments[0].eigenvalues
    passed = sum(counts.values()) == len(blocks) and tuple([(value, mult) for value, mult, _ in first]) == predicted
    # every segment lists the values in the first one's order
    seen = [glued.get(value) for value, _, _ in first]
    for segment in report.segments:
        for profiles, (_, _, sizes) in zip(seen, segment.eigenvalues):
            if profiles is not None:
                profiles.add(sizes)
    observations = tuple(BlockObservation(v, tuple(sorted(glued[v]))) for v in sorted(glued))
    return VerificationVerdict(
        report.lam, eps, m, report.window, report.segments, predicted, observations, passed
    )


# --- serialization helpers ----------------------------------------------------


def _run_to_dict(x) -> dict:
    """The parameters and window shared by a report and a verdict."""
    return {"lambda": format_scalar(x.lam), "eps": x.eps, "m": x.m, "window": list(x.window)}


def _to_dict(x, **verdict) -> dict:
    """The run of a report or verdict and one entry per weight of its
    segments, each segment's spectrum rendered once; a verdict passes its
    ``predicted`` and ``match`` in ``verdict``, the same for every entry."""
    entries = []
    for seg in x.segments:
        spectrum = [
            {"value": format_scalar(v), "mult": mult, "jordan": list(sizes)} for v, mult, sizes in seg.eigenvalues
        ]
        entries += ({"k": k, "dim": x.m + 1, "spectrum": spectrum, **verdict} for k in range(seg.first, seg.last + 1, 2))
    return {**_run_to_dict(x), "entries": entries}


def report_to_dict(r: CasimirReport) -> dict:
    return _to_dict(r)


def verdict_to_dict(v: VerificationVerdict) -> dict:
    """The report's entries, each with the prediction and the verdict."""
    predicted = [{"value": format_scalar(val), "mult": mult} for val, mult in v.predicted]
    blocks = [
        {"casimir": format_scalar(b.casimir), "jordan_profiles": [list(p) for p in b.jordan_profiles]}
        for b in v.block_observations
    ]
    verdict = "PASS" if v.passed else "FAIL"
    return {**_to_dict(v, predicted=predicted, match=v.passed), "blocks": blocks, "verdict": verdict}
