from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sl2hc.linalg as linalg
from sl2hc.linalg import (
    char_poly,
    clear_denominators,
    divide_out_root,
    jordan_block_sizes,
    mat_mul,
    mat_sub_scalar,
    rank,
    root_multiplicity,
    tridiagonal_char_poly,
    tridiagonal_jordan_block_sizes,
)

from _dense import band_rows, identity


def test_identity_and_mat_mul():
    i2 = identity(2)
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, i2) == a
    assert mat_mul(i2, a) == a
    assert mat_mul(a, a) == [[7, 10], [15, 22]]


def test_mat_sub_scalar():
    assert mat_sub_scalar([[5, 1], [0, 5]], 5) == [[0, 1], [0, 0]]


def test_clear_denominators():
    a = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1), Fraction(-2, 3)]]
    scaled, s = clear_denominators(a)
    assert s == 6
    assert scaled == [[3, 2], [6, -4]]
    _, s2 = clear_denominators(a, extra=(Fraction(1, 4),))
    assert s2 == 12


def test_rank_known_cases():
    assert rank(identity(3)) == 3
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[2, 0, 1], [0, 1, 0], [2, 1, 1]]) == 2


def test_char_poly_known_cases():
    assert char_poly([[2, 0], [0, 3]]) == [1, -5, 6]
    assert char_poly([[0, 1], [0, 0]]) == [1, 0, 0]
    # companion matrix of t^3 - 2t - 5
    c = [[0, 0, 5], [1, 0, 2], [0, 1, 0]]
    assert char_poly(c) == [1, 0, -2, -5]
    assert char_poly([]) == [1]


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_cayley_hamilton(rows):
    poly = char_poly(rows)
    n = 3
    acc = [[0] * n for _ in range(n)]
    power = identity(n)
    for coeff in reversed(poly):
        acc = [[acc[i][j] + coeff * power[i][j] for j in range(n)] for i in range(n)]
        power = mat_mul(power, rows)
    assert acc == [[0] * n for _ in range(n)]


def test_divide_out_root():
    # (t - 1)^2 (t - 2) = t^3 - 4t^2 + 5t - 2
    poly = [1, -4, 5, -2]
    assert divide_out_root(poly, 1) == ([1, -3, 2], 0)
    assert divide_out_root(poly, 3) == ([1, -1, 2], 4)
    assert root_multiplicity(poly, 1) == (2, [1, -2])
    assert root_multiplicity(poly, 2) == (1, [1, -2, 1])
    assert root_multiplicity(poly, 7) == (0, poly)


def test_jordan_block_sizes():
    nilp = [[0, 1], [0, 0]]
    assert jordan_block_sizes(nilp, 0, 2) == (2,)
    diag = [[4, 0], [0, 4]]
    assert jordan_block_sizes(diag, 4, 2) == (1, 1)
    j21 = [[3, 1, 0], [0, 3, 0], [0, 0, 3]]
    assert jordan_block_sizes(j21, 3, 3) == (2, 1)
    mixed = [[3, 1, 0], [0, 3, 0], [0, 0, 9]]
    assert jordan_block_sizes(mixed, 3, 2) == (2,)
    assert jordan_block_sizes(mixed, 9, 1) == (1,)


def test_jordan_block_sizes_sum_check():
    with pytest.raises(AssertionError, match="^rank sequence failed to stabilize$"):
        jordan_block_sizes([[1, 0], [0, 2]], 1, 2)
    # the zero matrix drops straight to rank 0, below n - mult = 1
    with pytest.raises(AssertionError, match="^rank sequence undershot the algebraic multiplicity$"):
        jordan_block_sizes([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 0, 2)


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=2), min_size=2, max_size=2))
@settings(max_examples=60)
def test_char_poly_trace_det(rows):
    poly = char_poly(rows)
    assert poly[1] == -(rows[0][0] + rows[1][1])
    assert poly[2] == rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def _check_jordan_at_every_root(diag, upper, lower, poly, shifts=None):
    """At every root of multiplicity 1 or 2 among ``shifts`` (by default the
    diagonal's values) the tridiagonal sizes are the dense ones, except that
    two blocks are refused where both off-diagonals hold two or more zeros,
    as the minors do not prove them there."""
    dense = band_rows(diag, upper, lower)
    for c in set(diag) if shifts is None else shifts:
        mult, _ = root_multiplicity(poly, c)
        if 1 <= mult <= 2:
            sizes = jordan_block_sizes(dense, c, mult)
            if sizes == (1, 1) and min(upper.count(0), lower.count(0)) >= 2:
                with pytest.raises(AssertionError):
                    tridiagonal_jordan_block_sizes(diag, upper, lower, c, mult)
            else:
                assert tridiagonal_jordan_block_sizes(diag, upper, lower, c, mult) == sizes


@st.composite
def _zeroed_tridiagonals(draw):
    """Tridiagonals of size 1..9 with frequent zeros on both off-diagonals, and a shift c."""
    n = draw(st.integers(min_value=1, max_value=9))
    entries = st.integers(min_value=-3, max_value=3)
    sparse = st.one_of(st.just(0), entries)
    diag = draw(st.lists(entries, min_size=n, max_size=n))
    upper = draw(st.lists(sparse, min_size=n - 1, max_size=n - 1))
    lower = draw(st.lists(sparse, min_size=n - 1, max_size=n - 1))
    return diag, upper, lower, draw(st.integers(min_value=-2, max_value=2))


@given(_zeroed_tridiagonals())
@example(([0, 0, 0], [0, 0], [0, 0], 0))
@example(([1, 1], [0], [0], 0))
@example(([2], [], [], 2))
@settings(max_examples=300)
def test_leading_minors_match_dense_determinants(case):
    """Every leading minor of T - cI, and every trailing one (the leading
    minors of the reversed band), is the determinant of its dense block."""
    diag, upper, lower, c = case
    n = len(diag)
    shifted = band_rows([d - c for d in diag], upper, lower)
    theta = linalg._leading_minors(diag, upper, lower, c)
    phi = linalg._leading_minors(diag[::-1], upper[::-1], lower[::-1], c)
    for i in range(n + 1):
        assert theta[i] == _det([row[:i] for row in shifted[:i]])
        assert phi[i] == _det([row[n - i :] for row in shifted[n - i :]])
    _check_jordan_at_every_root(diag, upper, lower, tridiagonal_char_poly(diag, upper, lower), {c})


def _det(rows):
    """Dense determinant, the constant term of det(tI - A) times (-1)^n."""
    return (-1) ** len(rows) * char_poly(rows)[-1]


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n - 1, max_size=n - 1),
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n - 1, max_size=n - 1),
        )
    )
)
@settings(max_examples=80)
def test_tridiagonal_routines_match_dense(diagonals):
    diag, upper, lower = diagonals
    poly = tridiagonal_char_poly(diag, upper, lower)
    assert poly == char_poly(band_rows(diag, upper, lower))
    _check_jordan_at_every_root(diag, upper, lower, poly)


@st.composite
def _reduced_tridiagonals(draw):
    """Tridiagonals with a zero on each off-diagonal and few distinct diagonal
    values, so that repeated eigenvalues are common."""
    n = draw(st.integers(min_value=2, max_value=7))
    diag = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    upper = draw(st.lists(st.integers(min_value=-1, max_value=1), min_size=n - 1, max_size=n - 1))
    lower = draw(st.lists(st.integers(min_value=-1, max_value=1), min_size=n - 1, max_size=n - 1))
    upper[draw(st.integers(min_value=0, max_value=n - 2))] = 0
    lower[draw(st.integers(min_value=0, max_value=n - 2))] = 0
    return diag, upper, lower


# (diag, upper, lower) at eigenvalue 0 -> Jordan sizes, and the sweeps of
# leading minors ``tridiagonal_jordan_block_sizes`` takes at multiplicity 1 or 2
JORDAN_CASES = {
    "upper-full": (([0, 0], [1], [0]), (2,), 0),
    "lower-full": (([0, 0, 1], [0, 0], [1, 1]), (2,), 0),
    "J2": (([0, 0, 1], [1, 0], [0, 0]), (2,), 2),
    "J2-lower": (([0, 0, 1], [0, 0], [1, 0]), (2,), 2),
    "J1+J1": (([0, 0], [0], [0]), (1, 1), 2),
    "J3": (([0, 0, 0, 1], [1, 1, 0], [0, 0, 0]), (3,), None),
    "J2+J1": (([0, 0, 0], [1, 0], [0, 0]), (2, 1), None),
    "J1+J1+J1": (([0, 0, 0], [0, 0], [0, 0]), (1, 1, 1), None),
    "J2+J2": (([0, 0, 0, 0], [1, 0, 1], [0, 0, 0]), (2, 2), None),
    "J3+J1": (([0, 0, 0, 0], [1, 1, 0], [0, 0, 0]), (3, 1), None),
    "J3+J2": (([0] * 5, [1, 1, 0, 1], [0] * 4), (3, 2), None),
    "J4+J1": (([0] * 5, [1, 1, 1, 0], [0] * 4), (4, 1), None),
    "J2+J2+J1": (([0] * 5, [1, 0, 1, 0], [0] * 4), (2, 2, 1), None),
    "J3+J1+J1": (([0] * 5, [1, 1, 0, 0], [0] * 4), (3, 1, 1), None),
}


@given(_reduced_tridiagonals())
@example(JORDAN_CASES["J2"][0])
@example(JORDAN_CASES["J2-lower"][0])
@example(JORDAN_CASES["J1+J1"][0])
@example(JORDAN_CASES["J3"][0])
@example(JORDAN_CASES["J2+J1"][0])
@example(JORDAN_CASES["J1+J1+J1"][0])
@example(JORDAN_CASES["J2+J2"][0])
@example(JORDAN_CASES["J3+J1"][0])
@settings(max_examples=150)
def test_reduced_tridiagonal_jordan_sizes_match_dense(diagonals):
    diag, upper, lower = diagonals
    poly = tridiagonal_char_poly(diag, upper, lower)
    assume(max(root_multiplicity(poly, c)[0] for c in set(diag)) >= 2)
    _check_jordan_at_every_root(diag, upper, lower, poly)


@pytest.mark.parametrize("label", sorted(JORDAN_CASES))
def test_tridiagonal_jordan_sizes_take_minors_only_where_an_off_diagonal_has_a_zero(monkeypatch, label):
    """No minors when an off-diagonal has no zero, and otherwise the leading
    and the trailing ones, which tell (2,) from (1, 1).  The oracle meets no
    multiplicity above 2, so there the routine refuses."""
    (diag, upper, lower), sizes, sweeps = JORDAN_CASES[label]
    calls = []

    def counting_minors(*args):
        calls.append(args)
        return leading_minors(*args)

    leading_minors = linalg._leading_minors
    monkeypatch.setattr(linalg, "_leading_minors", counting_minors)
    mult, _ = root_multiplicity(tridiagonal_char_poly(diag, upper, lower), 0)
    assert jordan_block_sizes(band_rows(diag, upper, lower), 0, mult) == sizes
    if mult <= 2:
        assert tridiagonal_jordan_block_sizes(diag, upper, lower, 0, mult) == sizes
        assert len(calls) == sweeps
    else:
        with pytest.raises(AssertionError):
            tridiagonal_jordan_block_sizes(diag, upper, lower, 0, mult)


def test_tridiagonal_jordan_sizes_refuse_a_wrong_multiplicity():
    # three blocks at multiplicity 2, and none at a value that is no eigenvalue
    with pytest.raises(AssertionError):
        tridiagonal_jordan_block_sizes([0, 0, 0], [0, 0], [0, 0], 0, 2)
    with pytest.raises(AssertionError):
        tridiagonal_jordan_block_sizes([1, 1], [0], [0], 0, 2)
