from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2hc.core import FinDim, casimir_value, ktype_function
from sl2hc.linalg import char_poly, clear_denominators, jordan_block_sizes, root_multiplicity
from sl2hc.oracle import (
    BlockObservation,
    FinDimRealization,
    PrincipalSeriesRealization,
    UnexpectedEigenvalueError,
    VerificationVerdict,
    VerifyEntry,
    casimir_band,
    casimir_matrix,
    casimir_on_symmetric_power,
    casimir_report,
    default_window,
    reducibility_points,
    report_to_dict,
    verdict_to_dict,
    verify_tensor,
    _weight_spectrum,
)
from sl2hc.tensor import LengthTwo, block_parameter, decomposition_semisimplification, ps_tensor


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
    assert [ws.k for ws in report.entries] == [-5, -3, -1, 1, 3, 5]
    for ws in report.entries:
        assert ws.dim == 2
        assert ws.eigenvalues == ((Fraction(1, 4), 1, (1,)), (Fraction(9, 4), 1, (1,)))


def test_casimir_report_sees_nontrivial_jordan_block():
    # the paired factors of I(0,0) (x) V(1) form a non-split extension
    report = casimir_report(0, 0, 1, (-5, 5))
    for ws in report.entries:
        assert ws.eigenvalues == ((Fraction(1), 2, (2,)),)


def test_weight_spectrum_rejects_uncovered_eigenvalue():
    with pytest.raises(UnexpectedEigenvalueError):
        _weight_spectrum(0, [[Fraction(2)]], (Fraction(1),))


def test_reducibility_points():
    assert reducibility_points(2, 1) == [(-3, "E'"), (3, "F'")]
    assert reducibility_points(0, 1) == [(-1, "E'"), (1, "F'")]
    assert reducibility_points(Fraction(1, 2), 0) == []
    assert reducibility_points(3, 1) == []
    assert reducibility_points(0, 0) == []
    assert reducibility_points(-4, 1) == [(3, "E'"), (-3, "F'")] or reducibility_points(-4, 1) == [
        (-3, "F'"),
        (3, "E'"),
    ]


def test_default_window():
    assert default_window(Fraction(1, 2), 0, 1) == (-9, 9)
    assert default_window(2, 1, 3) == (-12, 12)
    assert default_window(0, 0, 0) == (-6, 6)


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


def _band_rows(band):
    n = len(band.diag)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = band.diag[i]
        if i + 1 < n:
            rows[i][i + 1] = band.upper[i]
            rows[i + 1][i] = band.lower[i]
    return rows


def _dense_spectrum(mat, candidates):
    mint, scale = clear_denominators(mat, extra=candidates)
    remaining = char_poly(mint)
    eigen = []
    for c in candidates:
        cs = int(c * scale)
        mult, remaining = root_multiplicity(remaining, cs)
        if mult:
            eigen.append((c, mult, jordan_block_sizes(mint, cs, mult)))
    assert len(remaining) == 1
    return tuple(eigen)


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
    band = casimir_band(lam, eps, m, k)
    mat = casimir_matrix(PrincipalSeriesRealization(lam, eps), FinDimRealization(m), k)
    assert _band_rows(band) == [[x * band.scale for x in row] for row in mat]
    candidates = sorted({(lam + m - 2 * j) ** 2 for j in range(m + 1)})
    ws = _weight_spectrum(k, band, candidates)
    assert ws.eigenvalues == _dense_spectrum(mat, candidates)


def test_banded_oracle_takes_both_jordan_paths():
    # lam = 1/2 is generic: every weight space is unreduced tridiagonal
    band = casimir_band(Fraction(1, 2), 0, 4, 0)
    assert all(u * l for u, l in zip(band.upper, band.lower))
    # I(1, 0) is reducible: both ladder zeros fall inside the k = 0 space of V(2)
    band = casimir_band(1, 0, 2, 0)
    assert not all(u * l for u, l in zip(band.upper, band.lower))
    candidates = sorted({(1 + 2 - 2 * j) ** 2 for j in range(3)})
    ws = _weight_spectrum(0, band, candidates)
    assert ws.eigenvalues == _dense_spectrum(_band_rows(band), candidates)


def test_casimir_band_requires_a_vector():
    with pytest.raises(ValueError):
        casimir_band(Fraction(1, 2), 0, 1, 2)


def test_casimir_band_is_a_positional_record():
    from sl2hc.core import Record
    from sl2hc.oracle import CasimirBand

    band = casimir_band(Fraction(1, 2), 0, 2, 0)
    assert isinstance(band, Record) and not isinstance(band, tuple)
    assert CasimirBand._fields == ("scale", "diag", "upper", "lower")
    assert band == CasimirBand(band.scale, band.diag, band.upper, band.lower)
    assert band.scale == 4 and len(band.diag) == 3 and len(band.upper) == len(band.lower) == 2
    with pytest.raises(AttributeError):
        band.scale = 1


def test_casimir_report_refuses_a_window_without_weights():
    with pytest.raises(ValueError):
        casimir_report(Fraction(1, 2), 0, 1, (2, 2))
    with pytest.raises(ValueError):
        verify_tensor(Fraction(1, 2), 0, 1, (2, 2))


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
    of the dense Casimir matrices, and a prediction keyed by Fraction values."""
    summands = ps_tensor(lam, eps, m)
    parts = [
        (casimir_value(cls), ktype_function(cls), mult)
        for cls, mult in decomposition_semisimplification(summands).items()
    ]
    candidates = sorted({(lam + m - 2 * j) ** 2 for j in range(m + 1)})
    lo, hi = window or default_window(lam, eps, m)
    left, right = PrincipalSeriesRealization(lam, eps), FinDimRealization(m)
    block_values = sorted({abs(block_parameter(s.sub)) ** 2 for s in summands if isinstance(s, LengthTwo)})
    profiles = {v: set() for v in block_values}
    entries = []
    for k in range(lo, hi + 1):
        if (k - eps - m) % 2:
            continue
        ws = _weight_spectrum(k, casimir_matrix(left, right, k), candidates)
        predicted = {}
        for value, ktf, mult in parts:
            count = mult * ktf.value(k)
            if count:
                predicted[value] = predicted.get(value, 0) + count
        observed = {value: mult for value, mult, _ in ws.eigenvalues}
        entries.append(VerifyEntry(k, ws.dim, ws.eigenvalues, tuple(sorted(predicted.items())), observed == predicted))
        for value, _, sizes in ws.eigenvalues:
            if value in profiles:
                profiles[value].add(sizes)
    blocks = tuple(BlockObservation(v, tuple(sorted(profiles[v]))) for v in block_values)
    return VerificationVerdict(lam, eps, m, (lo, hi), tuple(entries), blocks, all(e.match for e in entries))


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
    verdict = verify_tensor(*case)
    assert verdict == _reference_verdict(*case)
    assert verdict.passed


@pytest.mark.parametrize(
    "argv, drop, line",
    [
        # recorded from the Fraction-keyed verify_tensor
        (["verify", "1/2", "0", "1"], -1, "FAIL (k=-9: predicted 9/4:1; observed 1/4:1, 9/4:1)"),
        (["verify", "2", "1", "3"], 0, "FAIL (k=-12: predicted 1:2, 9:1; observed 1:2, 9:1, 25:1)"),
        (["verify", "0", "0", "2"], 0, "FAIL (k=-8: predicted 0:1; observed 0:1, 4:2)"),
    ],
)
def test_verify_fails_on_a_decomposition_missing_a_summand(monkeypatch, capsys, argv, drop, line):
    from sl2hc import oracle
    from sl2hc.cli import main

    def short_ps_tensor(lam, eps, m):
        summands = ps_tensor(lam, eps, m)
        del summands[drop]
        return summands

    monkeypatch.setattr(oracle, "ps_tensor", short_ps_tensor)
    assert main(argv) == 3
    assert capsys.readouterr().out == line + "\n"
