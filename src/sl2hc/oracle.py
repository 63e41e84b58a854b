"""Independent spectral oracle for the closed-form tensor decompositions.

The compact-picture action on a K-weight basis {w_k},

    H'.w_k = k w_k,   E'.w_k = (lam+k+1)/2 w_{k+2},   F'.w_k = (lam-k+1)/2 w_{k-2},

realizes a principal series for any rational lam, and the finite-dimensional
module V(m) as the window |k| <= m at lam = -(m+1) (both ladder coefficients
vanish at the window edges).  The Casimir element

    Omega = H'^2 + 1 + 2 E'F' + 2 F'E'

acts on a tensor product through the coproduct g -> g(x)1 + 1(x)g and
preserves each total K-weight, so its matrix on the (finite-dimensional)
weight-k subspace of (principal series) (x) V(m) is exactly computable.
Comparing its generalized eigenvalue multiplicities with the closed-form
prediction is a genuinely independent check: nothing here consults the
decomposition formulas.

On the basis (a, b) of a weight space, ordered by b ascending, that matrix
is tridiagonal.  ``casimir_report`` builds its three diagonals directly as
integers under one scale (``casimir_band``), scales the candidate
eigenvalues to integers once, takes the characteristic polynomial by the
continuant recurrence and Jordan sizes from the tridiagonal routines of
``linalg``: no ``Fraction`` is touched per K-weight.  The generic construction applying
Omega to free vectors (``casimir_matrix``), together with the dense
Faddeev-LeVerrier and Bareiss routines, is the reference the tests compare
it against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .core import (
    Record,
    Scalar,
    UnexpectedEigenvalueError,
    as_scalar,
    casimir_value,
    check_highest_weight,
    check_parity,
    format_scalar,
    is_integer,
    ktype_function,
)
from .linalg import (
    clear_denominators,
    root_multiplicity,
    tridiagonal_char_poly,
    tridiagonal_jordan_block_sizes,
    tridiagonal_of,
)
from .tensor import LengthTwo, block_parameter, decomposition_semisimplification, ps_tensor


# --- realizations ------------------------------------------------------------


class PrincipalSeriesRealization(Record):
    """Principal series on the K-weight basis {w_k : k = eps mod 2}."""

    __slots__ = ("lam", "eps")

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", as_scalar(self.lam))
        check_parity(self.eps)

    def has_weight(self, k: int) -> bool:
        return (k - self.eps) % 2 == 0

    def e_coeff(self, k: int) -> Fraction:
        return (self.lam + k + 1) / 2

    def f_coeff(self, k: int) -> Fraction:
        return (self.lam - k + 1) / 2


class FinDimRealization(Record):
    """V(m) as the weight window |k| <= m of the ladder at lam = -(m+1).

    The raising coefficient vanishes at k = m and the lowering one at
    k = -m, so the window is closed under the action.
    """

    __slots__ = ("m",)

    def __post_init__(self) -> None:
        check_highest_weight(self.m)

    @property
    def lam(self) -> Fraction:
        return Fraction(-(self.m + 1))

    def has_weight(self, k: int) -> bool:
        return abs(k) <= self.m and (k - self.m) % 2 == 0

    def e_coeff(self, k: int) -> Fraction:
        return (self.lam + k + 1) / 2

    def f_coeff(self, k: int) -> Fraction:
        return (self.lam - k + 1) / 2


Realization = PrincipalSeriesRealization | FinDimRealization


class _SingleSpace:
    """Free vectors {k: coeff} over one realization."""

    def __init__(self, factor: Realization) -> None:
        self.factor = factor

    def basis_at(self, k: int) -> list:
        return [k] if self.factor.has_weight(k) else []

    def apply(self, gen: str, vec: dict) -> dict:
        out: dict = {}
        r = self.factor
        for k, c in vec.items():
            if gen == "H":
                _acc(out, k, c * k)
            elif gen == "E":
                _acc(out, k + 2, c * r.e_coeff(k))
            else:
                _acc(out, k - 2, c * r.f_coeff(k))
        return out


class _TensorSpace:
    """Free vectors {(a, b): coeff} over a pair of realizations (Leibniz action)."""

    def __init__(self, left: Realization, right: Realization) -> None:
        self.left = left
        self.right = right

    def basis_at(self, k: int) -> list:
        if not isinstance(self.right, FinDimRealization):
            raise ValueError("weight spaces are finite only with a finite-dimensional factor")
        return [
            (k - b, b)
            for b in range(-self.right.m, self.right.m + 1, 2)
            if self.left.has_weight(k - b)
        ]

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


def _space_for(a: Realization, b: FinDimRealization | None):
    return _SingleSpace(a) if b is None else _TensorSpace(a, b)


def casimir_matrix(a: Realization, b: FinDimRealization | None, k: int) -> list:
    """Exact matrix of Omega on the K-weight-k subspace (columns are images)."""
    space = _space_for(a, b)
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


class CasimirBand(Record):
    """A tridiagonal rational matrix as ``scale`` times integer diagonals:
    ``diag``, ``upper`` (entries (i, i+1)) and ``lower`` (entries (i+1, i))."""

    __slots__ = ("scale", "diag", "upper", "lower")


def casimir_band(lam: Scalar, eps: int, m: int, k: int) -> CasimirBand:
    """Omega on the K-weight-k subspace of I(lam, eps) (x) V(m) as integer diagonals.

    The basis is (a, b) = (k - b, b) for b = -m, -m+2, ..., m, as in
    ``casimir_matrix``.  With lam = p/q and scale q^2, the entries are q^2
    times

    - lam^2 + (m+1)^2 - 1 + 2ab on the diagonal,
    - -(lam+a+1)(m+b) from column (a, b) to row (a+2, b-2),
    - (lam-a+1)(b-m) from column (a, b) to row (a-2, b+2),

    the entries of Omega(x)1 + 1(x)Omega - 1 + 2 H'(x)H' + 4 E'(x)F' + 4 F'(x)E'.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    if (k - eps - m) % 2 != 0:
        raise ValueError(f"no vectors at this K-weight: k={k}")
    return CasimirBand(lam.denominator ** 2, *_diagonals(lam.numerator, lam.denominator, m, k))


def _diagonals(p: int, q: int, m: int, k: int) -> tuple:
    """``casimir_band``'s (diag, upper, lower) for lam = p/q."""
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
    if m < 0:
        raise ValueError("m must be nonnegative")
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
    lam = as_scalar(lam)
    check_parity(eps)
    points = []
    for k_val, gen in ((-lam - 1, "E'"), (lam + 1, "F'")):
        if is_integer(k_val) and (int(k_val) - eps) % 2 == 0:
            points.append((int(k_val), gen))
    points.sort()
    return points


# --- spectral reports ---------------------------------------------------------


class WeightSpectrum(Record):
    """Casimir structure on one K-weight subspace.

    ``eigenvalues`` holds (value, algebraic multiplicity, Jordan block sizes
    sorted descending), sorted by value.
    """

    __slots__ = ("k", "dim", "eigenvalues")


class CasimirReport(Record):
    """The weight spectra of I(lam, eps) (x) V(m) over a K-weight window."""

    __slots__ = ("lam", "eps", "m", "window", "entries")


def default_window(lam: Scalar, eps: int, m: int) -> tuple:
    """Symmetric window; the bound |lam|+m+6 snapped up to the K-type parity."""
    lam = as_scalar(lam)
    bound = math.ceil(abs(lam) + m + 6)
    if (bound - (eps + m)) % 2 != 0:
        bound += 1
    return (-bound, bound)


def casimir_report(
    lam: Scalar, eps: int, m: int, window: tuple | None = None, candidates: tuple | None = None
) -> CasimirReport:
    """Exact Casimir eigenstructure of (principal series) (x) V(m) per K-weight.

    ``candidates`` are the possible eigenvalues, ascending; by default the
    values (lam+m-2j)^2 of ``eigenvalue_candidates``.  ``verify_tensor``
    passes the same tuple, so that its predictions hold the very objects
    the spectra report.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    check_highest_weight(m)
    if window is None:
        window = default_window(lam, eps, m)
    lo, hi = window
    if lo > hi:
        raise ValueError("window must be nonempty")
    parity = (eps + m) % 2
    start = lo if (lo - parity) % 2 == 0 else lo + 1
    if start > hi:
        raise ValueError(f"window [{lo},{hi}] holds no K-weight k = eps + m (mod 2)")
    if candidates is None:
        candidates = eigenvalue_candidates(lam, m)
    p, q = lam.numerator, lam.denominator
    scaled = _scaled(candidates, q * q)
    entries = tuple(_spectrum(k, *_diagonals(p, q, m, k), scaled) for k in range(start, hi + 1, 2))
    return CasimirReport(lam, eps, m, (lo, hi), entries)


def eigenvalue_candidates(lam: Fraction, m: int) -> tuple:
    """The distinct values (lam+m-2j)^2, j = 0..m, ascending: every Casimir
    eigenvalue on I(lam, eps) (x) V(m) is one of them.  For lam = p/q they
    are (p + q(m-2j))^2 / q^2, ordered by the integer numerators."""
    p, q = lam.numerator, lam.denominator
    return tuple(Fraction(s, q * q) for s in sorted({(p + q * (m - 2 * j)) ** 2 for j in range(m + 1)}))


def _scaled(candidates, scale: int) -> list:
    """``(c, c * scale)`` pairs; each scaled candidate must be an integer."""
    pairs = []
    for c in candidates:
        cs = c * scale
        assert cs.denominator == 1
        pairs.append((c, cs.numerator))
    return pairs


def _weight_spectrum(k: int, band, candidates) -> WeightSpectrum:
    """Eigenvalues, multiplicities and Jordan sizes of one weight space's Casimir.

    ``band`` is a ``CasimirBand``, or the dense rows of a tridiagonal
    rational matrix.  Every eigenvalue must be among ``candidates``, whose
    scaled values must be integers.
    """
    if not isinstance(band, CasimirBand):
        mint, scale = clear_denominators(band, extra=candidates)
        band = CasimirBand(scale, *tridiagonal_of(mint))
    return _spectrum(k, band.diag, band.upper, band.lower, _scaled(candidates, band.scale))


def _spectrum(k: int, diag: list, upper: list, lower: list, scaled: list) -> WeightSpectrum:
    """``_weight_spectrum`` on integer diagonals, with the candidates given as
    ``(value, scaled value)`` pairs: only integers meet here."""
    n = len(diag)
    eigen = []
    remaining = tridiagonal_char_poly(diag, upper, lower)
    for c, cs in scaled:
        mult, remaining = root_multiplicity(remaining, cs)
        if mult:
            eigen.append((c, mult, tridiagonal_jordan_block_sizes(diag, upper, lower, cs, mult)))
    if len(remaining) != 1:
        raise UnexpectedEigenvalueError(
            f"unexpected eigenvalue at K-weight {k}: char poly factor {remaining} "
            f"has no roots among the candidates"
        )
    assert sum(mult for _, mult, _ in eigen) == n
    return WeightSpectrum(k, n, tuple(eigen))


# --- closed form vs oracle ----------------------------------------------------


class VerifyEntry(Record):
    """Observed ``((value, mult, jordan sizes), ...)`` against predicted
    ``((value, mult), ...)`` at one K-weight."""

    __slots__ = ("k", "dim", "observed", "predicted", "match")


class BlockObservation(Record):
    """Observed Jordan data at the Casimir value of one LengthTwo block.

    ``jordan_profiles`` holds the distinct size tuples seen across the window.
    """

    __slots__ = ("casimir", "jordan_profiles")


class VerificationVerdict(Record):
    """Closed form against oracle over a window: one entry per K-weight."""

    __slots__ = ("lam", "eps", "m", "window", "entries", "block_observations", "passed")

    def first_mismatch(self) -> VerifyEntry | None:
        return next((e for e in self.entries if not e.match), None)


def verify_tensor(lam: Scalar, eps: int, m: int, window: tuple | None = None) -> VerificationVerdict:
    """Compare closed-form Casimir multiplicities against the oracle per K-weight.

    The prediction is assembled from the tensor decomposition's
    semisimplification: each factor contributes its K-type indicator at its
    Casimir value.  The factors are grouped by value once, onto the
    report's own candidate objects, so that at each weight the predicted
    ``((value, mult), ...)`` is built in value order and compared with the
    observed pairs mostly by identity.  Disagreement is a verdict, not an
    error.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    summands = ps_tensor(lam, eps, m)
    factors = decomposition_semisimplification(summands)
    candidates = eigenvalue_candidates(lam, m)
    report = casimir_report(lam, eps, m, window, candidates)

    shared = {c: c for c in candidates}  # a value -> the report's object for it
    by_value: dict = {}
    for cls, mult in factors.items():
        value = casimir_value(cls)
        by_value.setdefault(shared.get(value, value), []).append((ktype_function(cls), mult))
    groups = sorted(by_value.items(), key=itemgetter(0))
    # every block value is a candidate, so a spectrum holds it as that very object
    blocks = [
        (shared.get(v, v), set())
        for v in sorted({abs(block_parameter(s.sub)) ** 2 for s in summands if isinstance(s, LengthTwo)})
    ]

    entries = []
    for ws in report.entries:
        k = ws.k
        predicted = []
        for value, parts in groups:
            count = 0
            for ktf, mult in parts:
                count += mult * ktf.value(k)
            if count:
                predicted.append((value, count))
        predicted = tuple(predicted)
        observed = tuple([(value, mult) for value, mult, _ in ws.eigenvalues])
        entries.append(VerifyEntry(k, ws.dim, ws.eigenvalues, predicted, observed == predicted))
        for value, _, sizes in ws.eigenvalues:
            for block_value, profiles in blocks:
                if value is block_value:
                    profiles.add(sizes)
    observations = tuple(BlockObservation(v, tuple(sorted(profiles))) for v, profiles in blocks)
    passed = all(e.match for e in entries)
    return VerificationVerdict(lam, eps, m, report.window, tuple(entries), observations, passed)


# --- serialization helpers ----------------------------------------------------


def _spectrum_to_list(eigenvalues: tuple) -> list:
    return [
        {"value": format_scalar(v), "mult": mult, "jordan": list(sizes)}
        for v, mult, sizes in eigenvalues
    ]


def _run_to_dict(x) -> dict:
    """The parameters and window shared by a report and a verdict."""
    return {"lambda": format_scalar(x.lam), "eps": x.eps, "m": x.m, "window": list(x.window)}


def report_to_dict(r: CasimirReport) -> dict:
    return {
        **_run_to_dict(r),
        "entries": [
            {"k": ws.k, "dim": ws.dim, "spectrum": _spectrum_to_list(ws.eigenvalues)}
            for ws in r.entries
        ],
    }


def verdict_to_dict(v: VerificationVerdict) -> dict:
    return {
        **_run_to_dict(v),
        "entries": [
            {
                "k": e.k,
                "dim": e.dim,
                "spectrum": _spectrum_to_list(e.observed),
                "predicted": [
                    {"value": format_scalar(val), "mult": mult} for val, mult in e.predicted
                ],
                "match": e.match,
            }
            for e in v.entries
        ],
        "blocks": [
            {
                "casimir": format_scalar(b.casimir),
                "jordan_profiles": [list(p) for p in b.jordan_profiles],
            }
            for b in v.block_observations
        ],
        "verdict": "PASS" if v.passed else "FAIL",
    }
