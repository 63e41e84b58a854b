"""The ``Ladder`` windows of the classes and the argument checks they share.

``ladder`` is pinned against hand-written windows here; the frozen K-type
values in ``test_core.py`` stay the independent check of what it implies.
The dense reference (``casimir_matrix``, then ``_dense.dense_spectrum``:
``char_poly`` and ``root_multiplicity`` on the matrix cleared of
denominators) is run on the bounded ladder shapes D+(l), D-(l) and V(m1),
tensored with V(m), and compared with ``ds_tensor`` and ``clebsch_gordan``:
each weight's Casimir multiplicities must be those of the predicted
classes' K-types.  On every
ladder shape, I(lam, eps) included, the identities of the ``oracle``
docstring are checked from the weight-space maps of ``_ladder_map``.
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

import sl2hc
import sl2hc.core
import sl2hc.oracle
from sl2hc.core import (
    ASCone,
    DiscreteSeries,
    FinDim,
    Ladder,
    PrincipalIrr,
    VirtualModule,
    as_cone,
    casimir_value,
    check_parity,
    class_sort_key,
    display_sort_key,
    format_class,
    format_virtual_module,
    inf_char,
    ktype_function,
    ladder,
    principal_is_irreducible,
)
from sl2hc.lattice import class_closure, classify_irreducible
from sl2hc.linalg import char_poly, clear_denominators, mat_mul
from sl2hc.oracle import (
    FinDimRealization,
    PrincipalSeriesRealization,
    _basis,
    _ladder_map,
    casimir_matrix,
    casimir_on_symmetric_power,
    casimir_report,
    eigenvalue_candidates,
    reducibility_points,
)
from sl2hc.tensor import clebsch_gordan, ds_tensor, ps_tensor, tensor_with_finite

from _dense import dense_spectrum, predicted_counts


def test_named_realizations_are_ladders():
    assert PrincipalSeriesRealization("1/2", 0) == Ladder(Fraction(1, 2), 0, None, None)
    assert FinDimRealization(2) == Ladder(Fraction(-3), 0, -2, 2)
    assert FinDimRealization(3) == Ladder(-4, 1, -3, 3)
    assert sl2hc.PrincipalSeriesRealization is PrincipalSeriesRealization
    assert sl2hc.FinDimRealization is FinDimRealization
    assert sl2hc.oracle.Ladder is Ladder
    assert "Ladder" not in sl2hc.__all__


@pytest.mark.parametrize(
    "cls, expected",
    [
        (FinDim(0), Ladder(-1, 0, 0, 0)),
        (FinDim(3), Ladder(-4, 1, -3, 3)),
        (DiscreteSeries(1, 0), Ladder(0, 1, 1, None)),
        (DiscreteSeries(1, 3), Ladder(3, 0, 4, None)),
        (DiscreteSeries(-1, 2), Ladder(2, 1, None, -3)),
        (PrincipalIrr(Fraction(1, 2), 1), Ladder(Fraction(1, 2), 1, None, None)),
    ],
)
def test_each_class_has_its_ladder_window(cls, expected):
    assert ladder(cls) == expected


def test_ladder_refuses_what_is_not_a_class():
    for bad in (Ladder(0, 0, None, None), VirtualModule.of(FinDim(0)), "V(0)", None):
        with pytest.raises(TypeError, match="not an irreducible class"):
            ladder(bad)


READERS = [
    ladder,
    class_sort_key,
    display_sort_key,
    format_class,
    inf_char,
    casimir_value,
    as_cone,
    ktype_function,
    lambda x: tensor_with_finite(x, 1),
    class_closure,
    classify_irreducible,
]


@pytest.mark.parametrize("bad", [3, "V(1)", None])
@pytest.mark.parametrize("read", READERS)
def test_every_reader_of_a_kind_entry_refuses_what_is_not_a_class(read, bad):
    with pytest.raises(TypeError) as refusal:
        read(bad)
    assert str(refusal.value) == f"not an irreducible class: {bad!r}"


def test_display_order_cones_and_rendering_build_no_ladder(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Ladder was built")

    monkeypatch.setattr(sl2hc.core, "Ladder", refuse)
    with pytest.raises(AssertionError):
        ladder(FinDim(0))
    classes = [
        PrincipalIrr(2, 0),
        FinDim(1),
        DiscreteSeries(-1, 2),
        DiscreteSeries(1, 2),
        PrincipalIrr(Fraction(5, 2), 1),
    ]
    assert sorted(classes, key=display_sort_key) == [
        PrincipalIrr(Fraction(5, 2), 1),
        DiscreteSeries(1, 2),
        DiscreteSeries(-1, 2),
        FinDim(1),
        PrincipalIrr(2, 0),
    ]
    cones = [ASCone.FULL_LINE, ASCone.ZERO, ASCone.MINUS_HALF_LINE, ASCone.PLUS_HALF_LINE, ASCone.FULL_LINE]
    assert [as_cone(c) for c in classes] == cones
    text = format_virtual_module(clebsch_gordan(200, 200))
    assert text.startswith("V(400) + V(398) + ") and text.endswith(" + V(2) + V(0)")


@pytest.mark.parametrize(
    "lam, eps, lo, hi",
    [
        (2, 1, 1, None),  # f_coeff(1) = 1: the lowering arrow leaves the window
        (-3, 0, -2, 4),  # e_coeff(4) = 1: the raising arrow leaves the window
        (-3, 0, -1, 2),  # -1 is off the parity 0
    ],
)
def test_ladder_bounds_must_be_zeros_of_the_leaving_coefficient(lam, eps, lo, hi):
    with pytest.raises(ValueError, match="ladder bound"):
        Ladder(lam, eps, lo, hi)


@pytest.mark.parametrize("lam, eps, lo, hi", [(0, 1, True, None), (1, 0, 2.0, None), (-3, 0, None, 2.0)])
def test_ladder_bounds_must_be_ints(lam, eps, lo, hi):
    """A bool or a float at a zero of the leaving coefficient is still no bound."""
    with pytest.raises(ValueError, match="a ladder bound must be an int or None"):
        Ladder(lam, eps, lo, hi)


def test_every_class_window_is_accepted():
    classes = [FinDim(m) for m in range(13)]
    classes += [DiscreteSeries(sign, l) for sign in (1, -1) for l in range(13)]
    for lam in sorted({Fraction(p, q) for p in range(13) for q in (1, 2, 3, 5)}):
        classes += [PrincipalIrr(lam, eps) for eps in (0, 1) if principal_is_irreducible(lam, eps)]
    assert len(classes) == 13 + 26 + (13 + 2 * 24)  # an integral lam is irreducible for one parity
    for cls in classes:
        w = ladder(cls)
        for bound, leaving in ((w.lo, w.f_coeff), (w.hi, w.e_coeff)):
            assert bound is None or (w.has_weight(bound) and leaving(bound) == 0)


@pytest.mark.parametrize("sign, l", [(1, 0), (1, 3), (-1, 0), (-1, 2)])
def test_discrete_series_ladder_is_cut_where_a_coefficient_vanishes(sign, l):
    w = ladder(DiscreteSeries(sign, l))
    edge = sign * (l + 1)
    assert w.has_weight(edge) and not w.has_weight(edge - 2 * sign)
    assert w.has_weight(edge + 20 * sign)
    assert (w.f_coeff(edge) if sign > 0 else w.e_coeff(edge)) == 0


def test_reducibility_points_are_the_ladders_own_zeros():
    for lam in (Fraction(n, q) for n in range(-8, 9) for q in (1, 2, 3)):
        for eps in (0, 1):
            w = PrincipalSeriesRealization(lam, eps)
            for k, gen in reducibility_points(lam, eps):
                assert (w.e_coeff(k) if gen == "E'" else w.f_coeff(k)) == 0


def _compare(left: Ladder, m: int, module, bound: int) -> int:
    """Dense spectra of left (x) V(m) on |k| <= bound against ``module``;
    returns the number of nonzero weight spaces compared."""
    right = FinDimRealization(m)
    candidates = eigenvalue_candidates(left.lam, m)
    seen = 0
    for k in range(-bound, bound + 1):
        predicted = predicted_counts(module, k)
        if not any(left.has_weight(k - b) for b in range(-m, m + 1, 2)):
            assert predicted == {}, k
            continue
        observed = {c: mult for c, mult, _ in dense_spectrum(casimir_matrix(left, right, k), candidates)}
        assert observed == predicted, (left, m, k)
        seen += 1
    return seen


def test_dense_reference_confirms_ds_tensor():
    seen = 0
    for sign in (1, -1):
        for l in range(5):
            for m in range(5):
                seen += _compare(ladder(DiscreteSeries(sign, l)), m, ds_tensor(sign, l, m), l + m + 6)
    # the weights of D+-(l) (x) V(m) in the window: +-k = l+1-m, l+3-m, ..., l+m+5
    assert seen == 2 * sum(m + 3 for l in range(5) for m in range(5))


def test_dense_reference_confirms_clebsch_gordan():
    seen = 0
    for m1 in range(6):
        for m in range(6):
            seen += _compare(FinDimRealization(m1), m, clebsch_gordan(m1, m), m1 + m + 2)
    # every weight of V(m1) (x) V(m) is |k| <= m1 + m with the parity of m1 + m
    assert seen == sum(m1 + m + 1 for m1 in range(6) for m in range(6))


def test_casimir_matrix_needs_a_bounded_right_factor():
    with pytest.raises(ValueError, match="finite-dimensional factor"):
        casimir_matrix(FinDimRealization(1), PrincipalSeriesRealization(0, 1), 1)
    with pytest.raises(ValueError, match="finite-dimensional factor"):
        casimir_matrix(FinDimRealization(1), ladder(DiscreteSeries(1, 0)), 1)


def _ladder_shapes() -> list:
    """I(lam, eps), reducible or not, for |p| <= 4 and q <= 2; V(n), n <= 4; D+-(l), l <= 3."""
    shapes = [
        PrincipalSeriesRealization(Fraction(p, q), eps)
        for p in range(-4, 5)
        for q in (1, 2)
        if Fraction(p, q).denominator == q
        for eps in (0, 1)
    ]
    shapes += [FinDimRealization(n) for n in range(5)]
    return shapes + [ladder(DiscreteSeries(sign, l)) for sign in (1, -1) for l in range(4)]


def _through(left: Ladder, right: Ladder, k: int, step: int, n: int) -> list:
    """F'E' (step 2) or E'F' (step -2) on the n-dimensional W_k, through
    W_{k+step}; zero when W_{k+step} is empty."""
    out = _ladder_map(left, right, k, step)
    return mat_mul(_ladder_map(left, right, k + step, -step), out) if out else [[0] * n for _ in range(n)]


def _times_root_power(poly: list, r: int, d: int) -> list:
    """poly(y) (y - r)^d, coefficients from the leading one down."""
    for _ in range(d):
        poly = [c - r * below for c, below in zip(poly + [0], [0] + poly)]
    return poly


def test_oracle_identities_hold_on_every_ladder_shape():
    """The identities of the ``oracle`` docstring, from the definition, on
    ladder (x) V(m) for half the pairs (shape, m <= 4), over a window that
    holds every change of dimension.  E'F' - F'E' = k on each W_k.  With
    chi_k the characteristic polynomial of Omega on W_k and d_k its degree,
    adjacent weights obey the non-square Sylvester rule
    chi_{k+2}(y) = (y - (k+1)^2)^(d_{k+2} - d_k) chi_k(y), or its mirror
    where d_k > d_{k+2}."""
    steps, weights = Counter(), 0
    for index, left in enumerate(_ladder_shapes()):
        for m in range(index % 2, 5, 2):
            right, scale = FinDimRealization(m), 4 * left.lam.denominator ** 2
            bound = math.ceil(abs(left.lam)) + m + 2
            prev = None
            for k in range(-bound - (bound + left.eps + m) % 2, bound + 1, 2):
                n = len(_basis(left, right, k))
                if n:
                    ef, fe = _through(left, right, k, -2, n), _through(left, right, k, 2, n)
                    assert [[x - y for x, y in zip(*rows)] for rows in zip(ef, fe)] == [
                        [k if i == j else 0 for j in range(n)] for i in range(n)
                    ], (left, m, k)
                    omega, s = clear_denominators(casimir_matrix(left, right, k), extra=[Fraction(1, scale)])
                    assert s == scale
                    chi = char_poly(omega)
                    weights += 1
                else:
                    chi = [1]
                if prev is not None and (n or len(prev) > 1):
                    grow = n - (len(prev) - 1)
                    r = scale * (k - 1) ** 2
                    if grow >= 0:
                        assert chi == _times_root_power(prev, r, grow), (left, m, k)
                    else:
                        assert prev == _times_root_power(chi, r, -grow), (left, m, k)
                    steps[(grow > 0) - (grow < 0)] += 1
                prev = chi
    assert weights > 500 and min(steps[c] for c in (-1, 0, 1)) > 50, (weights, steps)


BAD_PARITIES = [True, False, 1.0, "1", 2, -1]


@pytest.mark.parametrize("bad", BAD_PARITIES)
def test_parity_must_be_the_int_0_or_1(bad):
    with pytest.raises(ValueError) as expected:
        check_parity(bad)
    assert str(expected.value) == f"parity must be 0 or 1, got {bad!r}"
    for build in (
        lambda: PrincipalIrr(Fraction(1, 2), bad),
        lambda: ps_tensor(Fraction(1, 2), bad, 1),
        lambda: casimir_report(Fraction(1, 2), bad, 1),
        lambda: PrincipalSeriesRealization(Fraction(1, 2), bad),
        lambda: reducibility_points(2, bad),
    ):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", [True, False, 1.0, -1.0, "1", 2, 0])
def test_sign_must_be_the_int_1_or_minus_1(bad):
    with pytest.raises(ValueError) as expected:
        DiscreteSeries(bad, 2)
    assert str(expected.value) == f"sign must be +1 or -1, got {bad!r}"
    with pytest.raises(ValueError) as raised:
        ds_tensor(bad, 2, 1)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", ["2", 2.0, True, -1])
def test_discrete_series_parameter_checked_once(bad):
    with pytest.raises(ValueError) as expected:
        DiscreteSeries(1, bad)
    with pytest.raises(ValueError) as raised:
        ds_tensor(1, bad, 1)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("bad", ["2", 2.0, True, -1])
def test_symmetric_power_checks_the_highest_weight_as_findim(bad):
    with pytest.raises(ValueError) as expected:
        FinDim(bad)
    with pytest.raises(ValueError) as raised:
        casimir_on_symmetric_power(bad)
    assert str(raised.value) == str(expected.value)
