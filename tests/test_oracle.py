import inspect
import math
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2hc.core import FinDim, Ladder, PrincipalIrr, principal_is_irreducible
from sl2hc.linalg import (
    clear_denominators,
    jordan_block_sizes,
    rank,
    root_multiplicity,
    tridiagonal_char_poly,
    tridiagonal_jordan_block_sizes,
)
from sl2hc.oracle import (
    BlockObservation,
    FinDimRealization,
    PrincipalSeriesRealization,
    UnexpectedEigenvalueError,
    Segment,
    casimir_matrix,
    casimir_on_symmetric_power,
    casimir_report,
    default_window,
    eigenvalue_candidates,
    reducibility_points,
    report_to_dict,
    verdict_to_dict,
    verify_tensor,
    _diagonals,
    _ladder_map,
)
from sl2hc.tensor import Irr, LengthTwo, block_parameter, decomposition_semisimplification, ps_tensor

from _dense import band_rows, dense_spectrum, predicted_counts


def _weights(report):
    """Each weight of a report or verdict as (k, dim, eigenvalues), its
    segment's spectrum expanded to every weight the segment covers."""
    return tuple(
        (k, report.m + 1, seg.eigenvalues) for seg in report.segments for k in range(seg.first, seg.last + 1, 2)
    )


def _breaks(lam, eps, m):
    """The weights k of I(lam, eps) (x) V(m) where E'_k and F'_{k+2} are both singular.

    Their diagonals are e(k-b) and f(k+2-b), b = -m, -m+2, ..., m, and the
    ladder's e(a) vanishes only at a = -lam-1, f(a) only at a = lam+1: both
    ladder weights only when I(lam, eps) is reducible.
    """
    if principal_is_irreducible(lam, eps):
        return frozenset()
    p, bs = lam.numerator, range(-m, m + 1, 2)
    return frozenset({b - p - 1 for b in bs} & {b + p - 1 for b in bs})


def test_principal_series_realization_basics():
    r = PrincipalSeriesRealization(Fraction(1, 2), 0)
    assert r.has_weight(0) and r.has_weight(-4) and not r.has_weight(1)
    assert r.e_coeff(0) == Fraction(3, 4)
    assert r.f_coeff(0) == Fraction(3, 4)
    assert r.e_coeff(2) == Fraction(7, 4)


def test_findim_realization_window():
    r = FinDimRealization(2)
    assert r.lam == Fraction(-3)
    assert r.has_weight(0) and r.has_weight(-2) and r.has_weight(2)
    assert not r.has_weight(4) and not r.has_weight(1)
    # ladder coefficients vanish exactly at the window edges
    assert r.e_coeff(2) == 0
    assert r.f_coeff(-2) == 0


def test_casimir_matrix_on_single_principal_series():
    for lam in [Fraction(0), Fraction(1, 2), Fraction(-7, 3), Fraction(3)]:
        for eps in (0, 1):
            r = PrincipalSeriesRealization(lam, eps)
            for k in (eps, eps + 2, eps - 6):
                assert casimir_matrix(r, None, k) == [[lam * lam]]


def test_casimir_matrix_on_finite_dimensional():
    for m in range(5):
        r = FinDimRealization(m)
        for k in range(-m, m + 1, 2):
            assert casimir_matrix(r, None, k) == [[Fraction((m + 1) ** 2)]]
    assert casimir_on_symmetric_power(3) == [Fraction(16)] * 4


def test_casimir_matrix_requires_a_vector():
    with pytest.raises(ValueError):
        casimir_matrix(FinDimRealization(1), None, 5)
    with pytest.raises(ValueError):
        casimir_matrix(FinDimRealization(0), FinDimRealization(0), 1)


def test_casimir_matrix_refuses_a_coefficient_that_leaves_the_window(monkeypatch):
    # E' off by 1/2 no longer vanishes at the top weight 1 of V(1)
    monkeypatch.setattr(Ladder, "e_coeff", lambda self, k: (self.lam + k + 2) / 2)
    with pytest.raises(AssertionError, match="^Casimir left the weight subspace$"):
        casimir_matrix(PrincipalSeriesRealization(Fraction(1, 2), 0), FinDimRealization(1), 1)


def test_casimir_matrix_frozen_two_by_two():
    # basis at k=1 is (w_2 (x) v_-1, w_0 (x) v_1)
    mat = casimir_matrix(PrincipalSeriesRealization(Fraction(1, 2), 0), FinDimRealization(1), 1)
    assert mat == [[Fraction(-3, 4), Fraction(-3)], [Fraction(1), Fraction(13, 4)]]
    trace = mat[0][0] + mat[1][1]
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert trace == Fraction(5, 2)
    assert det == Fraction(9, 16)


def test_casimir_report_generic_case():
    report = casimir_report(Fraction(1, 2), 0, 1, (-5, 5))
    assert [k for k, _, _ in _weights(report)] == [-5, -3, -1, 1, 3, 5]
    for _, dim, eigenvalues in _weights(report):
        assert dim == 2
        assert eigenvalues == ((Fraction(1, 4), 1, (1,)), (Fraction(9, 4), 1, (1,)))


def test_casimir_report_sees_nontrivial_jordan_block():
    # the paired factors of I(0,0) (x) V(1) form a non-split extension
    report = casimir_report(0, 0, 1, (-5, 5))
    for _, _, eigenvalues in _weights(report):
        assert eigenvalues == ((Fraction(1), 2, (2,)),)


def test_reducibility_points():
    assert reducibility_points(2, 1) == [(-3, "E'"), (3, "F'")]
    assert reducibility_points(0, 1) == [(-1, "E'"), (1, "F'")]
    assert reducibility_points(Fraction(1, 2), 0) == []
    assert reducibility_points(3, 1) == []
    assert reducibility_points(0, 0) == []
    assert reducibility_points(-4, 1) == [(-3, "F'"), (3, "E'")]


def test_default_window():
    assert default_window(Fraction(1, 2), 0, 1) == (-9, 9)
    assert default_window(2, 1, 3) == (-12, 12)
    assert default_window(0, 0, 0) == (-6, 6)


def test_default_window_refuses_a_bad_parity_or_highest_weight():
    with pytest.raises(ValueError, match=r"^parity must be 0 or 1, got 7$"):
        default_window(Fraction(1, 2), 7, -3)
    with pytest.raises(ValueError, match=r"^parity must be 0 or 1, got True$"):
        default_window(0, True, 1)
    with pytest.raises(ValueError, match=r"^highest weight must be a nonnegative integer, got -3$"):
        default_window(Fraction(1, 2), 1, -3)
    with pytest.raises(ValueError, match=r"^highest weight must be a nonnegative integer, got 2.0$"):
        default_window(0, 0, 2.0)


def test_verify_tensor_pinned_triples():
    cases = [
        (Fraction(1, 2), 0, 1, (-9, 9)),
        (Fraction(2), 1, 3, (-11, 11)),
        (Fraction(0), 0, 0, (-4, 4)),
    ]
    for lam, eps, m, window in cases:
        verdict = verify_tensor(lam, eps, m, window)
        assert verdict.passed, (lam, eps, m)
        assert verdict.window == window
        assert verdict.first_mismatch() is None


def test_verify_tensor_block_observations():
    v = verify_tensor(0, 0, 1)
    assert [(b.casimir, b.jordan_profiles) for b in v.block_observations] == [(Fraction(1), ((2,),))]
    v = verify_tensor(1, 1, 2)
    assert [(b.casimir, b.jordan_profiles) for b in v.block_observations] == [(Fraction(1), ((2,),))]
    v = verify_tensor(2, 1, 3)
    # the paired reducible blocks mix split and non-split weight spaces
    assert [(b.casimir, b.jordan_profiles) for b in v.block_observations] == [
        (Fraction(1), ((1, 1), (2,)))
    ]
    assert verify_tensor(Fraction(1, 2), 0, 1).block_observations == ()


def test_verify_tensor_negative_parameter():
    assert verify_tensor(Fraction(-7, 3), 1, 2).passed
    assert verify_tensor(-2, 1, 1).passed


def test_report_and_verdict_dicts():
    r = casimir_report(Fraction(1, 2), 0, 0, (-2, 2))
    d = report_to_dict(r)
    assert d["lambda"] == "1/2" and d["window"] == [-2, 2]
    assert d["entries"][0]["spectrum"][0]["value"] == "1/4"
    v = verify_tensor(0, 1, 0, (-3, 3))
    dv = verdict_to_dict(v)
    assert dv["verdict"] == "PASS"
    assert all(e["match"] for e in dv["entries"])


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_verify_tensor_property(lam, eps, m):
    assert verify_tensor(lam, eps, m).passed


@st.composite
def _weight_cases(draw):
    """(lam, eps, m, k) over the default window; a third are reducible integral lam."""
    m = draw(st.integers(min_value=0, max_value=8))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        lam = Fraction(draw(st.integers(min_value=-6, max_value=6)))
        eps = (lam.numerator + 1) % 2
    else:
        q = draw(st.sampled_from((1, 2, 3, 5)))
        lam = Fraction(draw(st.integers(min_value=-30, max_value=30)), q)
        eps = draw(st.integers(min_value=0, max_value=1))
    lo, hi = default_window(lam, eps, m)
    k = lo + 2 * draw(st.integers(min_value=0, max_value=(hi - lo) // 2))
    return lam, eps, m, k


@given(_weight_cases())
@settings(max_examples=150, deadline=None)
def test_banded_oracle_matches_dense_reference(case):
    lam, eps, m, k = case
    band = _diagonals(lam.numerator, lam.denominator, m, k)
    mat = casimir_matrix(PrincipalSeriesRealization(lam, eps), FinDimRealization(m), k)
    assert band_rows(*band) == [[x * lam.denominator ** 2 for x in row] for row in mat]
    candidates = sorted({(lam + m - 2 * j) ** 2 for j in range(m + 1)})
    ((wk, dim, eigenvalues),) = _weights(casimir_report(lam, eps, m, (k, k)))
    assert (wk, dim) == (k, len(mat))
    assert eigenvalues == dense_spectrum(mat, candidates)


def test_banded_oracle_takes_all_three_jordan_paths(monkeypatch):
    from sl2hc import linalg

    calls = []

    def counting_minors(*args):
        calls.append(args)
        return leading_minors(*args)

    leading_minors = linalg._leading_minors
    monkeypatch.setattr(linalg, "_leading_minors", counting_minors)
    # I(1, 0) is reducible: one ladder zero falls inside the k = -2 space of
    # V(2), which leaves `lower` without a zero: one block and no minors
    diag, upper, lower = _diagonals(1, 1, 2, -2)
    assert not all(upper) and all(lower)
    candidates = eigenvalue_candidates(Fraction(1), 2)
    ((_, _, eigenvalues),) = _weights(casimir_report(1, 0, 2, (-2, -2)))
    assert eigenvalues == dense_spectrum(band_rows(diag, upper, lower), candidates)
    assert eigenvalues[0] == (Fraction(1), 2, (2,)) and calls == []
    # both ladder zeros fall inside the k = 0 space: the leading and the
    # trailing minors decide
    diag, upper, lower = _diagonals(1, 1, 2, 0)
    assert not all(upper) and not all(lower)
    ((_, _, eigenvalues),) = _weights(casimir_report(1, 0, 2, (0, 0)))
    assert eigenvalues == dense_spectrum(band_rows(diag, upper, lower), candidates)
    assert len(calls) == 2
    # no Casimir value repeats more than twice, so a higher multiplicity,
    # given directly, is refused before any minor: J2 + J2 at 0
    with pytest.raises(AssertionError):
        tridiagonal_jordan_block_sizes([0, 0, 0, 0], [1, 0, 1], [0, 0, 0], 0, 4)
    assert len(calls) == 2


def test_jordan_sizes_at_every_double_root_around_every_break_match_dense():
    """At each break b and at b + 2, for m <= 10, every integral |lam| <= m+1
    and both eps, the banded Jordan sizes at every double root are the dense
    rank-sequence ones, and each band has at most one zero on each
    off-diagonal, so two blocks are always proven there."""
    start, seen = time.perf_counter(), Counter()
    for m in range(11):
        for lam in range(-m - 1, m + 2):
            for eps in (0, 1):
                for b in _breaks(Fraction(lam), eps, m):
                    for k in (b, b + 2):
                        band = _diagonals(lam, 1, m, k)
                        assert band[1].count(0) <= 1 and band[2].count(0) <= 1
                        poly, dense = tridiagonal_char_poly(*band), band_rows(*band)
                        for c in eigenvalue_candidates(Fraction(lam), m):
                            if root_multiplicity(poly, c.numerator)[0] == 2:
                                sizes = jordan_block_sizes(dense, c.numerator, 2)
                                assert tridiagonal_jordan_block_sizes(*band, c.numerator, 2) == sizes
                                seen[sizes] += 1
    assert set(seen) == {(2,), (1, 1)} and sum(seen.values()) > 1000
    assert time.perf_counter() - start < 1.5


@st.composite
def _report_cases(draw):
    """(lam, eps, m, window) with integral lam half the time; the window
    starts on a weight and holds up to 13 of them."""
    m = draw(st.integers(min_value=0, max_value=10))
    if draw(st.booleans()):
        lam = Fraction(draw(st.integers(min_value=-8, max_value=8)))
    else:
        lam = Fraction(draw(st.integers(min_value=-20, max_value=20)), draw(st.sampled_from((2, 3, 5))))
    eps = draw(st.integers(min_value=0, max_value=1))
    lo = eps + m + 2 * draw(st.integers(min_value=-12, max_value=12))
    return lam, eps, m, (lo, lo + draw(st.integers(min_value=0, max_value=24)))


@given(_report_cases())
@settings(max_examples=60, deadline=None)
def test_casimir_report_equals_each_weight_factored_alone(case):
    lam, eps, m, (lo, hi) = case
    expected = tuple(_weights(casimir_report(lam, eps, m, (k, k)))[0] for k in range(lo, hi + 1, 2))
    assert _weights(casimir_report(*case)) == expected


def _dense_weight(left, right, k, candidates):
    """Weight k of left (x) right taken alone on the dense ``casimir_matrix``."""
    mat = casimir_matrix(left, right, k)
    return k, len(mat), dense_spectrum(mat, candidates)


def _dense_entries(lam, eps, m, window):
    """Each weight of the window taken alone on the dense ``casimir_matrix``."""
    left, right = PrincipalSeriesRealization(lam, eps), FinDimRealization(m)
    candidates = sorted({(Fraction(lam) + m - 2 * j) ** 2 for j in range(m + 1)})
    lo, hi = window
    return tuple(_dense_weight(left, right, k, candidates) for k in range(lo, hi + 1) if (k - eps - m) % 2 == 0)


@st.composite
def _segment_cases(draw):
    """(lam, eps, m, window).  Half the draws take an integral lam with
    |lam| <= m of the reducible parity, where breaks exist, and a window that
    crosses the break zone |k| <= |lam|+m+1; the rest take lam = p/q and a
    window anywhere near it."""
    m = draw(st.integers(min_value=0, max_value=8))
    if draw(st.booleans()):
        lam = Fraction(draw(st.integers(min_value=-m, max_value=m)))
        eps = (lam.numerator + 1) % 2
        reach = int(abs(lam)) + m + 1
        lo = draw(st.integers(min_value=-reach - 6, max_value=-2))
        hi = draw(st.integers(min_value=0, max_value=reach + 6))
    else:
        lam = Fraction(draw(st.integers(min_value=-9, max_value=9)), draw(st.sampled_from((1, 2, 3))))
        eps = draw(st.integers(min_value=0, max_value=1))
        lo = draw(st.integers(min_value=-20, max_value=20))
        hi = lo + draw(st.integers(min_value=1, max_value=24))
    return lam, eps, m, (lo, hi)


@given(_segment_cases())
@settings(max_examples=60, deadline=None)
def test_segmented_report_equals_the_dense_reference_at_every_weight(case):
    assert _weights(casimir_report(*case)) == _dense_entries(*case)


@st.composite
def _integral_cases(draw):
    """(lam, eps, m, window): integral lam, either parity, and a window of at
    least two weights' span within or across the break zone |k| <= |lam|+m+1."""
    m = draw(st.integers(min_value=0, max_value=10))
    lam = Fraction(draw(st.integers(min_value=-9, max_value=9)))
    eps = draw(st.integers(min_value=0, max_value=1))
    reach = int(abs(lam)) + m + 1
    lo = draw(st.integers(min_value=-reach - 4, max_value=reach))
    return lam, eps, m, (lo, draw(st.integers(min_value=lo + 1, max_value=reach + 4)))


@given(_integral_cases())
@settings(max_examples=60, deadline=None)
def test_across_a_weight_only_the_value_at_its_step_changes(case):
    """E'_k maps G_k(c) onto G_{k+2}(c) for c != (k+1)^2, so from weight k
    to k+2 the dense reference changes at (k+1)^2 alone; the report, which
    takes only that value again after a break, equals it at every weight."""
    dense = _dense_entries(*case)
    for (k, _, a), (_, _, b) in zip(dense, dense[1:]):
        changed = {va[0] for va, vb in zip(a, b) if va != vb}
        assert changed <= {(k + 1) ** 2}
    assert _weights(casimir_report(*case)) == dense


@given(
    st.integers(min_value=-12, max_value=12),
    st.sampled_from((1, 2, 3, 5)),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=0, max_value=15),
)
@settings(max_examples=80, deadline=None)
def test_characteristic_polynomial_is_one_polynomial_over_a_window(p, q, m, lo, count):
    polys = {tuple(tridiagonal_char_poly(*_diagonals(p, q, m, lo + 2 * i))) for i in range(count + 1)}
    assert len(polys) == 1


def test_an_empty_break_set_fails_the_dense_reference(monkeypatch):
    """Moving every step of I(3, 0) (x) V(8) outside the window leaves no
    weight at which a Jordan size is taken again, and the report no longer
    equals the dense reference."""
    from sl2hc import oracle

    case = (3, 0, 8, default_window(3, 0, 8))
    dense = _dense_entries(*case)
    assert _weights(casimir_report(*case)) == dense
    monkeypatch.setattr(oracle, "math", SimpleNamespace(ceil=math.ceil, isqrt=lambda n: 10**6))
    assert _weights(casimir_report(*case)) != dense


@st.composite
def _irreducible_integral_cases(draw):
    """(lam, eps, m): integral lam = eps (mod 2), |lam| <= m + 2, m <= 24."""
    m = draw(st.integers(min_value=0, max_value=24))
    lam = draw(st.integers(min_value=-m - 2, max_value=m + 2))
    return lam, lam % 2, m


@given(_irreducible_integral_cases())
@settings(max_examples=60, deadline=None)
@example((0, 0, 1))
def test_an_irreducible_integral_series_gives_one_segment_from_one_band(case):
    """On an irreducible I(lam, eps), lam integral with lam = eps (mod 2), the
    steps k = +-t - 1 of every repeated value t^2 lie off the weights, so
    the default-window report is one segment and builds one band."""
    from sl2hc import oracle

    bands = []

    def counting_diagonals(*args):
        bands.append(args)
        return _diagonals(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_diagonals", counting_diagonals)
        report = casimir_report(*case)
    assert len(report.segments) == 1 and len(bands) == 1


def test_casimir_report_consults_no_closed_form(monkeypatch):
    """The oracle stays independent of what it checks: with the reducibility
    criterion and every function of ``tensor`` that ``oracle`` binds made to
    raise, the reports over reducible integral, irreducible integral and
    generic lam are unchanged."""
    from sl2hc import core, oracle, tensor

    cases = [
        (3, 0, 8, None),
        (-2, 1, 6, (-30, 30)),
        (0, 1, 12, None),
        (2, 0, 8, None),
        (0, 0, 6, None),
        (-3, 1, 5, (31, 61)),
        (Fraction(7, 5), 0, 16, None),
        (Fraction(1, 2), 0, 1, None),
        (Fraction(-7, 3), 1, 4, (-20, 20)),
    ]
    expected = [casimir_report(*case) for case in cases]
    closed = [core.principal_is_irreducible]
    closed += [f for f in vars(tensor).values() if inspect.isfunction(f) and f.__module__ == tensor.__name__]

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle consulted a closed form")

    patched = [name for name, value in vars(oracle).items() if any(value is f for f in closed)]
    for name in patched:
        monkeypatch.setattr(oracle, name, refuse)
    # the patch bites: the verdict, which reads the closed form, refuses
    with pytest.raises(AssertionError, match="closed form"):
        verify_tensor(3, 0, 8)
    assert [casimir_report(*case) for case in cases] == expected


@pytest.mark.parametrize(
    "lam, eps, m, window",
    [
        (3, 0, 8, None),
        (-2, 1, 6, (-30, 30)),
        (0, 1, 1, None),
        (Fraction(7, 5), 0, 16, None),
        (3, 0, 8, (31, 61)),
        (0, 1, 12, None),
    ],
)
def test_one_characteristic_polynomial_per_report_and_no_jordan_call_at_multiplicity_one(
    monkeypatch, lam, eps, m, window
):
    from sl2hc import linalg, oracle

    polys, jordans, dense = [], [], []

    def counting_char_poly(*args):
        polys.append(args)
        return tridiagonal_char_poly(*args)

    def counting_jordan(diag, upper, lower, c, mult):
        jordans.append(mult)
        return tridiagonal_jordan_block_sizes(diag, upper, lower, c, mult)

    def counting_dense(a, c, mult):
        dense.append(mult)
        return jordan_block_sizes(a, c, mult)

    monkeypatch.setattr(oracle, "tridiagonal_char_poly", counting_char_poly)
    monkeypatch.setattr(oracle, "tridiagonal_jordan_block_sizes", counting_jordan)
    monkeypatch.setattr(linalg, "jordan_block_sizes", counting_dense)
    report = casimir_report(lam, eps, m, window)
    assert len(polys) == 1
    # no value repeats more than twice, so no report reaches the dense rank sequence
    assert all(mult == 2 for mult in jordans) and dense == []
    # Jordan sizes at each repeated value of the first weight, then after each
    # break at k - 2 only at (k-1)^2, when that value is repeated
    breaks = _breaks(Fraction(lam), eps, m)
    weights = _weights(report)
    repeated = {value for value, mult, _ in weights[0][2] if mult >= 2}
    retaken = sum(1 for k, _, _ in weights[1:] if k - 2 in breaks and (k - 1) ** 2 in repeated)
    assert len(jordans) == len(repeated) + retaken


@given(
    st.integers(min_value=-40, max_value=40),
    st.sampled_from((1, 2, 3, 5, 7)),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_no_casimir_value_occurs_more_than_twice(p, q, m):
    """(lam+m-2j)^2 = (lam+m-2j')^2 only for j = j' or j + j' = lam + m, so
    no eigenvalue of the oracle has multiplicity above 2."""
    lam = Fraction(p, q)
    counts = Counter((lam + m - 2 * j) ** 2 for j in range(m + 1))
    assert max(counts.values()) <= 2


@pytest.mark.parametrize("m", range(6))
def test_breaks_are_where_both_ladder_maps_are_singular_and_inside_the_default_window(m):
    right = FinDimRealization(m)
    for lam in [Fraction(p, q) for p in range(-8, 9) for q in (1, 2, 3) if Fraction(p, q).denominator == q]:
        for eps in (0, 1):
            left = PrincipalSeriesRealization(lam, eps)
            lo, hi = default_window(lam, eps, m)
            # E'_k : W_k -> W_{k+2} and F'_{k+2} : W_{k+2} -> W_k
            singular = {
                k
                for k in range(lo - 10, hi + 10)
                if (k - eps - m) % 2 == 0
                and all(
                    rank(clear_denominators(_ladder_map(left, right, source, step))[0]) < m + 1
                    for source, step in ((k, 2), (k + 2, -2))
                )
            }
            breaks = _breaks(lam, eps, m)
            assert breaks == singular, (lam, eps, m)
            assert bool(breaks) == (lam.denominator == 1 and (lam.numerator + eps) % 2 == 1 and abs(lam) <= m)
            # a break between k and k+2 has a weight of the window on each side of both
            assert all(lo <= k - 2 and k + 4 <= hi and abs(k) <= abs(lam) + m + 1 for k in breaks), (lam, eps, m)


@pytest.mark.parametrize(
    "lam, eps, m, window, dropped, k, factor",
    [
        (Fraction(1, 2), 0, 1, (-5, 5), 1, -5, [1, -9]),
        (0, 0, 1, (-5, 5), 0, -5, [1, -2, 1]),
        (2, 1, 3, (-11, 11), 0, -10, [1, -2, 1]),
        (Fraction(1, 2), 0, 1, (-1, -1), 1, -1, [1, -9]),
    ],
)
def test_casimir_report_names_the_first_weight_without_a_candidate(
    monkeypatch, lam, eps, m, window, dropped, k, factor
):
    from sl2hc import oracle

    def fewer_candidates(lam, m):
        values = list(eigenvalue_candidates(lam, m))
        del values[dropped]
        return tuple(values)

    monkeypatch.setattr(oracle, "eigenvalue_candidates", fewer_candidates)
    with pytest.raises(UnexpectedEigenvalueError) as error:
        casimir_report(lam, eps, m, window)
    assert str(error.value) == (
        f"unexpected eigenvalue at K-weight {k}: char poly factor {factor} has no roots among the candidates"
    )


def test_diagonals_frozen_at_one_half():
    # lam = 1/2, V(2), k = 0: scale q^2 = 4, basis b = -2, 0, 2
    band = _diagonals(1, 2, 2, 0)
    assert band == ([1, 33, 1], [-12, 8], [8, -12])
    mat = casimir_matrix(PrincipalSeriesRealization(Fraction(1, 2), 0), FinDimRealization(2), 0)
    assert band_rows(*band) == [[4 * x for x in row] for row in mat]
    # (x - 1)(x - 9)(x - 25): the candidates 1/4, 9/4, 25/4 at scale 4
    assert tridiagonal_char_poly(*band) == [1, -35, 259, -225]


def test_casimir_report_refuses_a_window_without_weights():
    with pytest.raises(ValueError):
        casimir_report(Fraction(1, 2), 0, 1, (2, 2))
    with pytest.raises(ValueError):
        verify_tensor(Fraction(1, 2), 0, 1, (2, 2))
    # a reversed window, which the command line refuses before the library sees it
    with pytest.raises(ValueError, match="^window must be nonempty$"):
        casimir_report(Fraction(1, 2), 0, 1, (3, 1))
    with pytest.raises(ValueError, match="^window must be nonempty$"):
        verify_tensor(Fraction(1, 2), 0, 1, (3, 1))


@pytest.mark.parametrize("window", [(0.5, 3), (1, 3.0), (Fraction(1), 3), (True, 3), (-3, "3")])
def test_window_bounds_must_be_ints(window):
    """(0.5, 3) once passed over a segment at 1.5, which is no K-weight."""
    for run in (casimir_report, verify_tensor):
        with pytest.raises(ValueError, match="window bounds must be ints"):
            run(Fraction(1, 2), 0, 1, window)


def test_a_report_without_breaks_is_one_segment_however_wide():
    lo, hi = default_window(10**6, 0, 1)
    report = casimir_report(10**6, 0, 1)
    candidates = eigenvalue_candidates(Fraction(10**6), 1)
    assert report.segments == (Segment(lo, hi, tuple((c, 1, (1,)) for c in candidates)),)


def test_verify_tensor_cost_does_not_follow_the_window():
    start = time.perf_counter()
    verdict = verify_tensor(10**6, 0, 1)
    assert time.perf_counter() - start < 0.5
    assert verdict.passed and len(verdict.segments) == 1


@given(_integral_cases())
@settings(max_examples=60, deadline=None)
def test_each_break_inside_the_window_ends_a_segment(case):
    """One segment, plus one for each break b with first weight <= b < last
    weight at which (b+1)^2 is a repeated value; the segments tile the
    window's weights in order."""
    lam, eps, m, window = case
    report = casimir_report(*case)
    ks = [k for k, _, _ in _weights(report)]
    assert ks == [k for k in range(window[0], window[1] + 1) if (k - eps - m) % 2 == 0]
    repeated = {value for value, mult, _ in report.segments[0].eigenvalues if mult == 2}
    inside = sorted(b for b in _breaks(lam, eps, m) if ks[0] <= b < ks[-1] and (b + 1) ** 2 in repeated)
    assert len(report.segments) == 1 + len(inside)
    assert [seg.last for seg in report.segments[:-1]] == inside
    assert all(a.last + 2 == b.first for a, b in zip(report.segments, report.segments[1:]))


@given(st.one_of(_report_cases(), _segment_cases(), _integral_cases()))
@example((Fraction(0), 1, 2, default_window(0, 1, 2)))
@settings(max_examples=90, deadline=None)
def test_segments_are_the_maximal_runs_of_equal_spectra(case):
    """The segments tile the window's weights in order, and adjacent ones
    differ: at lam = 0, eps = 1 the simple value 0 at the ladder zero k = -1
    starts no segment of its own."""
    lam, eps, m, (lo, hi) = case
    segments = casimir_report(*case).segments
    ks = [k for k in range(lo, hi + 1) if (k - eps - m) % 2 == 0]
    assert (segments[0].first, segments[-1].last) == (ks[0], ks[-1])
    assert all(seg.first <= seg.last for seg in segments)
    assert all(a.last + 2 == b.first and a.eigenvalues != b.eigenvalues for a, b in zip(segments, segments[1:]))


def test_verify_tensor_large_highest_weights():
    assert verify_tensor(Fraction(7, 5), 0, 48).passed
    assert verify_tensor(3, 0, 32).passed


@pytest.mark.parametrize("bad", ["2", 2.0, True, False, -1])
def test_highest_weight_checked_as_findim_checks_it(bad):
    with pytest.raises(ValueError) as expected:
        FinDim(bad)
    with pytest.raises(ValueError) as report:
        casimir_report(1, 0, bad)
    with pytest.raises(ValueError) as realization:
        FinDimRealization(bad)
    assert str(report.value) == str(realization.value) == str(expected.value)


def _reference_verdict(lam, eps, m, window):
    """The verdict ``verify_tensor`` must give, built the plain way: spectra
    of the dense Casimir matrices, and a prediction keyed by Fraction values,
    both taken at every weight.  Returns the window, one
    (k, dim, eigenvalues, predicted, match) per weight, the block
    observations and the verdict."""
    summands = ps_tensor(lam, eps, m)
    module = decomposition_semisimplification(summands)
    candidates = sorted({(lam + m - 2 * j) ** 2 for j in range(m + 1)})
    lo, hi = window or default_window(lam, eps, m)
    left, right = PrincipalSeriesRealization(lam, eps), FinDimRealization(m)
    block_values = sorted({abs(block_parameter(s.sub)) ** 2 for s in summands if isinstance(s, LengthTwo)})
    profiles = {v: set() for v in block_values}
    entries = []
    for k in range(lo, hi + 1):
        if (k - eps - m) % 2:
            continue
        _, dim, eigenvalues = _dense_weight(left, right, k, candidates)
        predicted = predicted_counts(module, k)
        observed = {value: mult for value, mult, _ in eigenvalues}
        entries.append((k, dim, eigenvalues, tuple(sorted(predicted.items())), observed == predicted))
        for value, _, sizes in eigenvalues:
            if value in profiles:
                profiles[value].add(sizes)
    blocks = tuple(BlockObservation(v, tuple(sorted(profiles[v]))) for v in block_values)
    return (lo, hi), tuple(entries), blocks, all(match for *_, match in entries)


@st.composite
def _verify_cases(draw):
    """(lam, eps, m, window): lam = p/q, and a window that holds a weight or none."""
    q = draw(st.sampled_from((1, 2, 3, 5)))
    lam = Fraction(draw(st.integers(min_value=-12, max_value=12)), q)
    eps = draw(st.integers(min_value=0, max_value=1))
    m = draw(st.integers(min_value=0, max_value=5))
    window = None
    if draw(st.booleans()):
        k = eps + m + 2 * draw(st.integers(min_value=-12, max_value=12))
        window = (k - draw(st.integers(min_value=0, max_value=9)), k + draw(st.integers(min_value=0, max_value=9)))
    return lam, eps, m, window


@given(_verify_cases())
@settings(max_examples=60, deadline=None)
def test_verify_tensor_equals_dense_fraction_keyed_reference(case):
    lam, eps, m, _ = case
    verdict = verify_tensor(*case)
    window, entries, blocks, passed = _reference_verdict(*case)
    assert (verdict.lam, verdict.eps, verdict.m, verdict.window) == (lam, eps, m, window)
    # each weight: its segment's spectrum, the one prediction and the one verdict
    weights = _weights(verdict)
    assert tuple((k, dim, eigenvalues, verdict.predicted, verdict.passed) for k, dim, eigenvalues in weights) == entries
    assert (verdict.block_observations, verdict.passed) == (blocks, passed)
    assert verdict.passed


def _drop(i):
    """Drop summand i; the test id shows i, as it did when the cases held the bare index."""

    def mutate(summands):
        del summands[i]

    mutate.label = str(i)
    return mutate


def _extra_block(label):
    """Append I(7/2, e), e the parity opposite to the first summand's block."""

    def mutate(summands):
        (block,) = summands[0].blocks
        summands.append(Irr(PrincipalIrr(Fraction(7, 2), 1 - block.eps)))

    mutate.label = label
    return mutate


def _first_block(label, shift, flip):
    """Move the first summand's parameter by ``shift`` and flip its parity if ``flip``."""

    def mutate(summands):
        (block,) = summands[0].blocks
        summands[0] = Irr(PrincipalIrr(block.lam + shift, (block.eps + flip) % 2))

    mutate.label = label
    return mutate


@pytest.mark.parametrize(
    "argv, mutate, line",
    [
        # recorded from the Fraction-keyed verify_tensor
        (["verify", "1/2", "0", "1"], _drop(-1), "FAIL (k=-9: predicted 9/4:1; observed 1/4:1, 9/4:1)"),
        (["verify", "2", "1", "3"], _drop(0), "FAIL (k=-12: predicted 1:2, 9:1; observed 1:2, 9:1, 25:1)"),
        (["verify", "0", "0", "2"], _drop(0), "FAIL (k=-8: predicted 0:1; observed 0:1, 4:2)"),
        # recorded from the verify_tensor that rebuilt its prediction per weight
        (
            ["verify", "1/2", "0", "1"],
            _first_block("other-parity", 0, 1),
            "FAIL (k=-9: predicted 1/4:1; observed 1/4:1, 9/4:1)",
        ),
        (
            ["verify", "1/3", "1", "2"],
            _first_block("moved-by-1/2", Fraction(1, 2), 0),
            "FAIL (k=-9: predicted 1/9:1, 25/9:1, 289/36:1; observed 1/9:1, 25/9:1, 49/9:1)",
        ),
        # a block of the other parity predicts nothing at these weights, and fails
        (
            ["verify", "1/2", "0", "1"],
            _extra_block("extra-other-parity"),
            "FAIL (k=-9: predicted 1/4:1, 9/4:1; observed 1/4:1, 9/4:1; a summand block has parity 0, not 1)",
        ),
        (
            ["verify", "1/2", "0", "2"],
            _extra_block("extra-other-parity-even-m"),
            "FAIL (k=-10: predicted 1/4:1, 9/4:1, 25/4:1; observed 1/4:1, 9/4:1, 25/4:1; "
            "a summand block has parity 1, not 0)",
        ),
    ],
    ids=lambda value: getattr(value, "label", None),
)
def test_verify_fails_on_a_decomposition_missing_a_summand(monkeypatch, capsys, argv, mutate, line):
    from sl2hc import oracle
    from sl2hc.cli import main

    def mutated_ps_tensor(lam, eps, m):
        summands = ps_tensor(lam, eps, m)
        mutate(summands)
        return summands

    monkeypatch.setattr(oracle, "ps_tensor", mutated_ps_tensor)
    assert main(argv) == 3
    assert capsys.readouterr().out == line + "\n"
