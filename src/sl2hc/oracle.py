"""Independent spectral oracle for the closed-form tensor decompositions.

The modules are ``core.Ladder`` windows of the compact-picture action on a
K-weight basis: ``PrincipalSeriesRealization`` at any rational lam, reducible
or not, and ``FinDimRealization`` for V(m).  The Casimir element

    Omega = H'^2 + 1 + 2 E'F' + 2 F'E'

acts on a tensor product through the coproduct g -> g(x)1 + 1(x)g and
preserves each total K-weight, so its matrix on the (finite-dimensional)
weight-k subspace W_k of (ladder) (x) V(m) is exactly computable.
Comparing its generalized eigenvalue multiplicities with the closed-form
prediction is a genuinely independent check: nothing here consults the
decomposition formulas.

On the basis (a, b) of a weight space, ordered by b ascending, that matrix
is tridiagonal.  ``casimir_report`` builds its three diagonals directly as
integers under one scale (``_diagonals``), scales the candidate
eigenvalues to integers once, and uses the continuant recurrence and the
Jordan routines of ``linalg``: no ``Fraction`` is touched per K-weight.  Two
sl(2) identities, which use only the ladder coefficients, spare most of the
weights:

- E'F' - F'E' = H' on each factor, hence on the product, so on W_k
  F'E' = (Omega - (k+1)^2)/4, and on W_{k+2} E'F' is the same expression.
  AB and BA have one characteristic polynomial (Sylvester's determinant
  identity), so every W_k has the same one, taken and factored once per
  report.
- Omega commutes with E'_k : W_k -> W_{k+2} and F'_{k+2} : W_{k+2} -> W_k,
  which are bidiagonal in the b-ordered bases.  Where either is invertible
  it makes Omega on W_k and on W_{k+2} similar, so the Jordan sizes change
  only at a break, where both are singular, and are taken once per
  break-free segment.
- Even across a break only one value can change.  Let G_k(c) be the
  generalized c-eigenspace of Omega on W_k.  For c != (k+1)^2, F'E' is
  invertible on G_k(c) and E'F' on G_{k+2}(c), so E'_k and F'_{k+2} are
  injective there, and E'_k maps G_k(c) isomorphically onto G_{k+2}(c).
  After a break at k only the Jordan sizes at (k+1)^2 are taken again.

The generic construction applying Omega to free vectors of one Leibniz
space (``casimir_matrix``; a single module is taken as its product with
V(0)), reports over one-weight windows, which take each weight alone, and
the dense Faddeev-LeVerrier and Bareiss routines are the reference the
tests compare it against.
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
    as_scalar,
    check_highest_weight,
    check_parity,
    format_scalar,
    ladder,
    principal_is_irreducible,
)
from .linalg import root_multiplicity, tridiagonal_char_poly, tridiagonal_jordan_block_sizes
from .tensor import LengthTwo, ps_tensor


# --- realizations ------------------------------------------------------------


def PrincipalSeriesRealization(lam: Scalar, eps: int) -> Ladder:
    """Principal series on the K-weight basis {w_k : k = eps mod 2}."""
    return Ladder(lam, eps, None, None)


def FinDimRealization(m: int) -> Ladder:
    """V(m) as the window |k| <= m of the ladder at lam = -(m+1)."""
    return ladder(FinDim(m))


class _TensorSpace:
    """Free vectors {(a, b): coeff} over a pair of ladders (Leibniz action)."""

    def __init__(self, left: Ladder, right: Ladder) -> None:
        self.left = left
        self.right = right

    def basis_at(self, k: int) -> list:
        lo, hi = self.right.lo, self.right.hi
        if lo is None or hi is None:
            raise ValueError("weight spaces are finite only with a finite-dimensional factor")
        return [(k - b, b) for b in range(lo, hi + 1, 2) if self.left.has_weight(k - b)]

    def apply(self, gen: str, vec: dict) -> dict:
        out: dict = {}
        for (a, b), c in vec.items():
            if gen == "H":
                _acc(out, (a, b), c * (a + b))
            elif gen == "E":
                _acc(out, (a + 2, b), c * self.left.e_coeff(a))
                _acc(out, (a, b + 2), c * self.right.e_coeff(b))
            else:
                _acc(out, (a - 2, b), c * self.left.f_coeff(a))
                _acc(out, (a, b - 2), c * self.right.f_coeff(b))
        return out


def _acc(out: dict, key, val: Fraction) -> None:
    if not val:
        return
    new = out.get(key, 0) + val
    if new:
        out[key] = new
    elif key in out:
        del out[key]


def _omega(space, vec: dict) -> dict:
    """Apply Omega = H'^2 + 1 + 2 E'F' + 2 F'E'."""
    out: dict = {}
    for key, c in space.apply("H", space.apply("H", vec)).items():
        _acc(out, key, c)
    for key, c in vec.items():
        _acc(out, key, c)
    for key, c in space.apply("E", space.apply("F", vec)).items():
        _acc(out, key, 2 * c)
    for key, c in space.apply("F", space.apply("E", vec)).items():
        _acc(out, key, 2 * c)
    return out


def casimir_matrix(a: Ladder, b: Ladder | None, k: int) -> list:
    """Exact matrix of Omega on the K-weight-k subspace of a (x) b, with
    b = V(0) when None (columns are images)."""
    space = _TensorSpace(a, FinDimRealization(0) if b is None else b)
    basis = space.basis_at(k)
    if not basis:
        raise ValueError(f"no vectors at this K-weight: k={k}")
    index = {key: i for i, key in enumerate(basis)}
    n = len(basis)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for j, key in enumerate(basis):
        image = _omega(space, {key: Fraction(1)})
        for ikey, c in image.items():
            if ikey not in index:
                raise AssertionError("Casimir left the weight subspace")
            mat[index[ikey]][j] = c
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
    """The Casimir structure shared by the weights first, first+2, ..., last.

    ``eigenvalues`` holds (value, algebraic multiplicity, Jordan block sizes
    sorted descending), sorted by value.
    """

    __slots__ = ("first", "last", "eigenvalues")


class CasimirReport(Record):
    """The weight spectra of I(lam, eps) (x) V(m) over a K-weight window, one
    segment per break-free run of weights."""

    __slots__ = ("lam", "eps", "m", "window", "segments")


def default_window(lam: Scalar, eps: int, m: int) -> tuple:
    """Symmetric window; the bound |lam|+m+6 snapped up to the K-type parity.
    Breaks lie within |k| <= |lam|+m+1, so it holds each with weights beyond."""
    lam = as_scalar(lam)
    bound = math.ceil(abs(lam) + m + 6)
    if (bound - (eps + m)) % 2 != 0:
        bound += 1
    return (-bound, bound)


def casimir_report(lam: Scalar, eps: int, m: int, window: tuple | None = None) -> CasimirReport:
    """Exact Casimir eigenstructure of (principal series) (x) V(m) per K-weight.

    By the identities of the module docstring, the characteristic polynomial
    is taken and factored once, at the window's first weight (which an
    ``UnexpectedEigenvalueError`` names), and Jordan sizes at that weight.
    Each break b inside the window, before its last weight, starts a segment
    at b + 2, where Jordan sizes are taken again for the value (b+1)^2 alone.
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
    parity = (eps + m) % 2
    start = lo if (lo - parity) % 2 == 0 else lo + 1
    if start > hi:
        raise ValueError(f"window [{lo},{hi}] holds no K-weight k = eps + m (mod 2)")
    p, q = lam.numerator, lam.denominator
    band = _diagonals(p, q, m, start)
    roots, remaining = [], tridiagonal_char_poly(*band)
    for c in eigenvalue_candidates(lam, m):
        cs = c * (q * q)
        assert cs.denominator == 1
        mult, remaining = root_multiplicity(remaining, cs.numerator)
        if mult:
            roots.append((c, cs.numerator, mult))
    if len(remaining) != 1:
        raise UnexpectedEigenvalueError(
            f"unexpected eigenvalue at K-weight {start}: char poly factor {remaining} "
            f"has no roots among the candidates"
        )
    last = hi - (hi - start) % 2
    first, eigen, segments = start, _spectrum(*band, roots), []
    for b in sorted(b for b in _breaks(lam, eps, m) if start <= b < last):
        segments.append(Segment(first, b, eigen))
        first, changed = b + 2, (b + 1) ** 2 * q * q  # scaled as the roots are
        eigen = tuple(
            _spectrum(*_diagonals(p, q, m, first), [root])[0] if root[1] == changed else kept
            for root, kept in zip(roots, eigen)
        )
    segments.append(Segment(first, last, eigen))
    return CasimirReport(lam, eps, m, (lo, hi), tuple(segments))


def _breaks(lam: Fraction, eps: int, m: int) -> frozenset:
    """The weights k of I(lam, eps) (x) V(m) where E'_k and F'_{k+2} are both singular.

    Their diagonals are e(k-b) and f(k+2-b), b = -m, -m+2, ..., m, and the
    ladder's e(a) vanishes only at a = -lam-1, f(a) only at a = lam+1: both
    ladder weights only when I(lam, eps) is reducible.
    """
    if principal_is_irreducible(lam, eps):
        return frozenset()
    p, bs = lam.numerator, range(-m, m + 1, 2)
    return frozenset({b - p - 1 for b in bs} & {b + p - 1 for b in bs})


def eigenvalue_candidates(lam: Fraction, m: int) -> tuple:
    """The distinct values (lam+m-2j)^2, j = 0..m, ascending: every Casimir
    eigenvalue on I(lam, eps) (x) V(m) is one of them.  For lam = p/q they
    are (p + q(m-2j))^2 / q^2, ordered by the integer numerators."""
    p, q = lam.numerator, lam.denominator
    return tuple(Fraction(s, q * q) for s in sorted({(p + q * (m - 2 * j)) ** 2 for j in range(m + 1)}))


def _spectrum(diag: list, upper: list, lower: list, roots: list) -> tuple:
    """The ``(value, mult, Jordan sizes)`` of one weight space's integer
    diagonals with the ``(value, scaled value, mult)`` roots of any weight's
    characteristic polynomial (the first identity of the module docstring);
    Jordan sizes are taken only at multiplicity 2 or more."""
    return tuple(
        (c, mult, (1,) if mult == 1 else tridiagonal_jordan_block_sizes(diag, upper, lower, cs, mult))
        for c, cs, mult in roots
    )


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
    of parity e exactly once, at Casimir value t^2; the blocks have parity
    eps+m, and one of any other parity would predict nothing at these
    weights.  So the prediction is one ``((value, mult), ...)``, the blocks
    counted by value, the same at every weight.  Every weight of the report
    has the same ``(value, mult)`` pairs, from its one characteristic
    polynomial, so one comparison decides the verdict; the Jordan profiles
    at the glued values are read once per segment, at their places in its
    tuple.  Disagreement is a verdict, not an error.
    """
    summands = ps_tensor(lam, eps, m)
    report = casimir_report(lam, eps, m, window)

    parity = (eps + m) % 2
    counts = Counter(b.lam ** 2 for s in summands for b in s.blocks if b.eps == parity)
    predicted = tuple(sorted(counts.items()))
    # value of a LengthTwo block -> the Jordan profiles seen there
    glued = {b.lam ** 2: set() for s in summands if isinstance(s, LengthTwo) for b in s.blocks}
    first = report.segments[0].eigenvalues
    passed = tuple([(value, mult) for value, mult, _ in first]) == predicted
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


def _spectrum_to_list(eigenvalues: tuple) -> list:
    return [
        {"value": format_scalar(v), "mult": mult, "jordan": list(sizes)}
        for v, mult, sizes in eigenvalues
    ]


def _run_to_dict(x) -> dict:
    """The parameters and window shared by a report and a verdict."""
    return {"lambda": format_scalar(x.lam), "eps": x.eps, "m": x.m, "window": list(x.window)}


def _weights(segments: tuple):
    """Each weight of the segments with its segment's spectrum, rendered once."""
    for seg in segments:
        spectrum = _spectrum_to_list(seg.eigenvalues)
        for k in range(seg.first, seg.last + 1, 2):
            yield k, spectrum


def report_to_dict(r: CasimirReport) -> dict:
    return {
        **_run_to_dict(r),
        "entries": [{"k": k, "dim": r.m + 1, "spectrum": spectrum} for k, spectrum in _weights(r.segments)],
    }


def verdict_to_dict(v: VerificationVerdict) -> dict:
    """``report_to_dict``, each entry with the prediction and the verdict added."""
    predicted = [{"value": format_scalar(val), "mult": mult} for val, mult in v.predicted]
    report = report_to_dict(v)
    for entry in report["entries"]:  # each weight's own dict, extended in place
        entry.update(predicted=predicted, match=v.passed)
    return {
        **report,
        "blocks": [
            {
                "casimir": format_scalar(b.casimir),
                "jordan_profiles": [list(p) for p in b.jordan_profiles],
            }
            for b in v.block_observations
        ],
        "verdict": "PASS" if v.passed else "FAIL",
    }
