import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from sl2hc.core import (
    DiscreteSeries,
    FinDim,
    PrincipalIrr,
    VirtualModule,
    is_integer,
    principal_is_irreducible,
)
from sl2hc.lattice import (
    ANTIHOL_POINT,
    FD_POINT,
    HOL_POINT,
    ClassPoint,
    _ps_point_count,
    class_closure,
    classify_irreducible,
    closure,
    cover_edges,
    enumerate_submodule_sets,
    format_point,
    format_point_set,
    generated_submodule,
    irreducible_closed_sets,
    is_valid_submodule_set,
    orbit_label,
    point_sort_key,
    ps_class_equal,
    ps_class_point,
    reduce_to_base,
    specialization_edges,
    structural_counts,
    sub_poset_ops,
)

F = Fraction


def test_reduce_to_base():
    assert reduce_to_base(F(0)) == 0
    assert reduce_to_base(F(7)) == 0
    assert reduce_to_base(F(1, 2)) == F(1, 2)
    assert reduce_to_base(F(5, 2)) == F(1, 2)
    assert reduce_to_base(F(-1, 2)) == F(1, 2)
    assert reduce_to_base(F(-7, 3)) == F(1, 3)
    assert reduce_to_base(F(2, 3)) == F(1, 3)
    assert reduce_to_base(F(7, 4)) == F(1, 4)


def test_class_point_validation():
    with pytest.raises(ValueError):
        ClassPoint("banana")
    with pytest.raises(ValueError):
        ClassPoint("fd", F(1, 2))
    with pytest.raises(ValueError):
        ClassPoint("ps", F(2, 3), 0)  # out of [0, 1/2]
    with pytest.raises(ValueError):
        ClassPoint("ps", F(1, 2), 0)  # collapsed base carries no parity
    with pytest.raises(ValueError):
        ClassPoint("ps", F(1, 3))  # parity marker required here


def test_ps_class_point_canonical_keys():
    assert ps_class_point(F(1, 2), 0) == ClassPoint("ps", F(1, 2), None)
    assert ps_class_point(F(5, 2), 1) == ClassPoint("ps", F(1, 2), None)
    assert ps_class_point(F(1, 3), 0) == ClassPoint("ps", F(1, 3), 0)
    assert ps_class_point(F(1, 3), 1) == ClassPoint("ps", F(1, 3), 1)
    # lam = 4/3 reaches base 1/3 by shift -1, flipping the parity marker
    assert ps_class_point(F(4, 3), 0) == ClassPoint("ps", F(1, 3), 1)
    assert ps_class_point(F(-7, 3), 1) == ClassPoint("ps", F(1, 3), 1)
    assert ps_class_point(F(0), 0) == ClassPoint("ps", F(0), None)
    assert ps_class_point(F(3), 1) == ClassPoint("ps", F(0), None)
    with pytest.raises(ValueError):
        ps_class_point(F(2), 1)


def test_ps_class_equal_examples():
    assert ps_class_equal(F(1, 2), 0, F(-1, 2), 1)
    assert not ps_class_equal(F(1, 3), 0, F(1, 3), 1)
    assert ps_class_equal(F(1, 4), 0, F(5, 4), 1)
    assert ps_class_equal(F(1, 2), 0, F(1, 2), 1)  # collapsed base point
    assert not ps_class_equal(F(1, 3), 0, F(1, 4), 0)
    with pytest.raises(ValueError):
        ps_class_equal(F(2), 1, F(2), 1)


def test_ps_class_equal_matches_point_equality():
    params = [
        (F(0), 0),
        (F(1), 1),
        (F(2), 0),
        (F(1, 2), 0),
        (F(1, 2), 1),
        (F(-1, 2), 0),
        (F(5, 2), 1),
        (F(1, 3), 0),
        (F(1, 3), 1),
        (F(-7, 3), 0),
        (F(4, 3), 1),
    ]
    for (l1, e1), (l2, e2) in itertools.product(params, repeat=2):
        assert ps_class_equal(l1, e1, l2, e2) == (ps_class_point(l1, e1) == ps_class_point(l2, e2))


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(min_value=0, max_value=1),
)
@settings(max_examples=150)
def test_ps_class_point_is_a_class_invariant(lam, eps):
    """Shifting the parameter with the matching parity change fixes the point."""
    from sl2hc.core import principal_is_irreducible

    if not principal_is_irreducible(lam, eps):
        return
    base = ps_class_point(lam, eps)
    for j in (-2, -1, 1, 3):
        shifted = (lam + j, (eps + j) % 2)
        if principal_is_irreducible(*shifted):
            assert ps_class_point(*shifted) == base
    if principal_is_irreducible(-lam, eps):
        assert ps_class_point(-lam, eps) == base


def test_class_closure():
    assert class_closure(DiscreteSeries(1, 3)) == frozenset({FD_POINT, HOL_POINT})
    assert class_closure(FinDim(4)) == frozenset({FD_POINT})
    assert class_closure(PrincipalIrr(F(1, 2), 0)) == frozenset({ClassPoint("ps", F(1, 2), None)})


def test_generated_submodule():
    assert generated_submodule([VirtualModule.of(DiscreteSeries(1, 1))]) == frozenset({FD_POINT, HOL_POINT})
    assert generated_submodule([]) == frozenset()
    got = generated_submodule([VirtualModule.of(PrincipalIrr(F(1, 3), 0), DiscreteSeries(-1, 0))])
    assert got == frozenset({FD_POINT, ANTIHOL_POINT, ClassPoint("ps", F(1, 3), 0)})
    with pytest.raises(ValueError):
        generated_submodule([-1 * VirtualModule.of(FinDim(0))])


def test_closure_operator():
    assert closure({HOL_POINT}) == frozenset({HOL_POINT, FD_POINT})
    assert closure({FD_POINT}) == frozenset({FD_POINT})
    ps = ClassPoint("ps", F(0), None)
    assert closure({ps}) == frozenset({ps})
    pool = [FD_POINT, HOL_POINT, ANTIHOL_POINT, ps]
    for bits in range(16):
        s = frozenset(p for i, p in enumerate(pool) if bits >> i & 1)
        c = closure(s)
        assert s <= c
        assert closure(c) == c
        assert is_valid_submodule_set(c)


def test_sub_poset_ops():
    fd = frozenset({FD_POINT})
    hol = frozenset({FD_POINT, HOL_POINT})
    anti = frozenset({FD_POINT, ANTIHOL_POINT})
    ps = frozenset({ClassPoint("ps", F(1, 2), None)})
    assert sub_poset_ops(fd, hol).leq
    assert not sub_poset_ops(hol, fd).leq
    assert sub_poset_ops(hol, anti).join == frozenset({FD_POINT, HOL_POINT, ANTIHOL_POINT})
    assert sub_poset_ops(hol, ps).meet == frozenset()
    with pytest.raises(ValueError, match="not a valid tensor-submodule"):
        sub_poset_ops(frozenset({HOL_POINT}), fd)


def test_irreducible_closed_sets():
    sets = irreducible_closed_sets([F(0), F(1, 2)])
    assert len(sets) == 5
    assert sets[0] == frozenset({FD_POINT})
    assert frozenset({ClassPoint("ps", F(0), None)}) in sets
    assert len(irreducible_closed_sets([])) == 3
    sets = irreducible_closed_sets([F(1, 3)])
    assert len(sets) == 5
    assert frozenset({ClassPoint("ps", F(1, 3), 0)}) in sets
    assert frozenset({ClassPoint("ps", F(1, 3), 1)}) in sets


@given(st.lists(st.builds(F, st.integers(-24, 24), st.integers(1, 8)), max_size=12))
def test_ps_point_count_is_the_number_of_built_points(keys):
    """The count the lattice command refuses by, before any point is built:
    one point per distinct base parameter whose double is an integer, else two."""
    assert _ps_point_count(keys) == len(frozenset().union(*irreducible_closed_sets(keys))) - 3


def test_classify_irreducible_frozen_values():
    assert classify_irreducible(FinDim(3)) == (frozenset({FD_POINT}), F(4))
    assert classify_irreducible(DiscreteSeries(-1, 0)) == (frozenset({FD_POINT, ANTIHOL_POINT}), F(0))
    half = frozenset({ClassPoint("ps", F(1, 2), None)})
    assert classify_irreducible(PrincipalIrr(F(5, 2), 0)) == (half, F(2))
    assert classify_irreducible(PrincipalIrr(F(5, 2), 1)) == (half, F(-3))
    assert classify_irreducible(PrincipalIrr(F(1, 2), 0)) == (half, F(0))
    assert classify_irreducible(PrincipalIrr(F(1, 2), 1)) == (half, F(-1))
    zero = frozenset({ClassPoint("ps", F(0), None)})
    assert classify_irreducible(PrincipalIrr(F(0), 0)) == (zero, F(0))
    assert classify_irreducible(PrincipalIrr(F(2), 0)) == (zero, F(2))
    third0 = frozenset({ClassPoint("ps", F(1, 3), 0)})
    assert classify_irreducible(PrincipalIrr(F(1, 3), 0)) == (third0, F(0))
    third1 = frozenset({ClassPoint("ps", F(1, 3), 1)})
    assert classify_irreducible(PrincipalIrr(F(7, 3), 1)) == (third1, F(2))


def test_classify_fiber_membership_consistency():
    """The returned shift reconstructs the module from its base point."""
    cases = [
        PrincipalIrr(F(5, 2), 0),
        PrincipalIrr(F(5, 2), 1),
        PrincipalIrr(F(7, 3), 0),
        PrincipalIrr(F(4, 3), 1),
        PrincipalIrr(F(3), 1),
        PrincipalIrr(F(0), 0),
    ]
    for x in cases:
        (point_set, j) = classify_irreducible(x)
        (point,) = point_set
        eps0 = 0 if point.eps0 is None else point.eps0
        lam = point.lam0 + j
        eps = (eps0 + int(j)) % 2
        assert PrincipalIrr(lam, eps) == x


def test_orbit_labels():
    assert orbit_label(FD_POINT) == "closed orbit P^1(C) (compact form SU(2))"
    assert orbit_label(HOL_POINT) == "pole {0}"
    assert orbit_label(ANTIHOL_POINT) == "pole {infinity}"
    assert orbit_label(ClassPoint("ps", F(1, 2), None)) == "open orbit C^x"


def test_format_points():
    assert format_point(FD_POINT) == "Fd"
    assert format_point(HOL_POINT) == "C+"
    assert format_point(ANTIHOL_POINT) == "C-"
    assert format_point(ClassPoint("ps", F(1, 3), 0)) == "Ps(1/3,0)"
    assert format_point(ClassPoint("ps", F(1, 2), None)) == "Ps(1/2,*)"
    pts = frozenset({HOL_POINT, FD_POINT})
    assert format_point_set(pts) == "{Fd, C+}"


def test_enumerate_and_covers_compact_window():
    sets = enumerate_submodule_sets([FD_POINT, HOL_POINT, ANTIHOL_POINT])
    assert len(sets) == 5
    edges = cover_edges(sets)
    assert len(edges) == 5
    for i, j in edges:
        assert sets[i] < sets[j]
        assert len(sets[j]) == len(sets[i]) + 1


def test_enumerate_with_ps_points_and_minimality():
    ps0 = ClassPoint("ps", F(0), None)
    ps1 = ClassPoint("ps", F(1, 3), 0)
    points = [FD_POINT, HOL_POINT, ANTIHOL_POINT, ps0, ps1]
    sets = enumerate_submodule_sets(points)
    assert len(sets) == 5 * 4
    universe = set(sets)
    # minimal nonzero elements are exactly {Fd} and the ps singletons
    minimal = [
        s
        for s in sets
        if s and not any(t and t < s for t in universe)
    ]
    assert sorted(minimal, key=lambda s: sorted(point_sort_key(p) for p in s)) == [
        frozenset({FD_POINT}),
        frozenset({ps0}),
        frozenset({ps1}),
    ]
    # {Fd, C+} covers exactly one nonzero proper subset, namely {Fd}
    hol = frozenset({FD_POINT, HOL_POINT})
    proper = [s for s in universe if s and s < hol]
    assert proper == [frozenset({FD_POINT})]


def test_every_cover_adds_one_point():
    ps1 = ClassPoint("ps", F(1, 3), 0)
    sets = enumerate_submodule_sets([FD_POINT, HOL_POINT, ANTIHOL_POINT, ps1])
    universe = set(sets)
    for s in sets:
        for t in sets:
            if s < t and len(t) > len(s) + 1:
                # a strictly intermediate valid set must exist
                assert any(s < u < t for u in universe)


def test_specialization_edges():
    ps = ClassPoint("ps", F(1, 2), None)
    edges = specialization_edges([FD_POINT, HOL_POINT, ANTIHOL_POINT, ps])
    assert edges == [(HOL_POINT, FD_POINT), (ANTIHOL_POINT, FD_POINT)]


def _member_search(l1, e1, l2, e2) -> bool:
    """(l2, e2) is a member of the class of (l1, e1): some integer shift j
    with the matching parity change reaches l2 or its dual -l2.  Any witness
    has |j| <= |l1| + |l2|, so the search is exhaustive."""
    bound = math.ceil(abs(l1) + abs(l2)) + 1
    return any(
        (e2 - e1 - j) % 2 == 0 and l2 in (l1 + j, -(l1 + j)) for j in range(-bound, bound + 1)
    )


@st.composite
def _irreducible_pair(draw) -> tuple:
    lam = st.fractions(min_value=-6, max_value=6, max_denominator=6)
    l1, e1 = draw(lam), draw(st.integers(0, 1))
    if draw(st.booleans()):  # a translate or its dual, so that members are common
        l2 = draw(st.sampled_from((1, -1))) * (l1 + draw(st.integers(-4, 4)))
    else:
        l2 = draw(lam)
    e2 = draw(st.integers(0, 1))
    assume(principal_is_irreducible(l1, e1) and principal_is_irreducible(l2, e2))
    return l1, e1, l2, e2


@given(_irreducible_pair())
@settings(max_examples=300)
def test_class_equality_and_classification_match_membership_search(pair):
    l1, e1, l2, e2 = pair
    member = _member_search(l1, e1, l2, e2)
    assert ps_class_equal(l1, e1, l2, e2) == member
    x, y = PrincipalIrr(l1, e1), PrincipalIrr(l2, e2)
    (cx, jx), (cy, jy) = classify_irreducible(x), classify_irreducible(y)
    assert (cx == cy) == member
    assert ((cx, jx) == (cy, jy)) == (x == y)
    # the index reaches the module from the base point of its class
    (point,) = cx
    eps0 = 0 if point.eps0 is None else point.eps0
    assert is_integer(jx) and PrincipalIrr(point.lam0 + jx, (eps0 + int(jx)) % 2) == x


# --- the structural lattice against the brute-force reference --------------------------


def _enumerate_reference(points) -> list:
    """Filter all 2^n subsets by the constraint, then sort by (size, keys)."""
    pts = sorted(set(points), key=point_sort_key)
    sets = []
    for mask in range(1 << len(pts)):
        subset = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
        if is_valid_submodule_set(subset):
            sets.append(subset)
    sets.sort(key=lambda s: (len(s), sorted(point_sort_key(p) for p in s)))
    return sets


def _cover_reference(sets: list) -> list:
    """Scan all pairs for one set inside another with one point more."""
    index = {s: i for i, s in enumerate(sets)}
    edges = [(index[s], index[t]) for s in sets for t in sets if len(t) == len(s) + 1 and s < t]
    return sorted(edges)


_PS_POOL = [
    ClassPoint("ps", F(0), None),
    ClassPoint("ps", F(1, 2), None),
    *(ClassPoint("ps", F(a, b), e) for a, b in ((1, 3), (1, 4), (1, 5), (2, 5)) for e in (0, 1)),
]


@st.composite
def _window_points(draw) -> list:
    """Any subset of {Fd, C+, C-} and 0-5 principal series points, in any
    order and with repeats."""
    fixed = draw(st.lists(st.sampled_from([FD_POINT, HOL_POINT, ANTIHOL_POINT]), unique=True))
    ps = draw(st.lists(st.sampled_from(_PS_POOL), unique=True, max_size=5))
    repeats = draw(st.lists(st.sampled_from(fixed + ps), max_size=3)) if fixed + ps else []
    return draw(st.permutations(fixed + ps + repeats))


@given(_window_points())
@settings(max_examples=200)
def test_closure_is_the_union_of_its_point_closures(points):
    """The condition of Birkhoff's theorem: the closed sets are then the
    down-sets of the specialization order."""
    assert closure(points) == frozenset().union(*(closure({p}) for p in points))


def _hol_forces_antihol(points):
    """Another closure: C+ adds C-, which adds Fd."""
    pts = set(points)
    if HOL_POINT in pts:
        pts.add(ANTIHOL_POINT)
    return closure(pts)


def _ps_zero_forces_hol(points):
    """Another closure: Ps(0,*) adds C+, which adds Fd."""
    pts = set(points)
    if _PS_POOL[0] in pts:
        pts.add(HOL_POINT)
    return closure(pts)


@pytest.mark.parametrize("rule", [_hol_forces_antihol, _ps_zero_forces_hol])
@given(points=_window_points())
@settings(max_examples=100, deadline=None)
def test_structural_lattice_follows_closure(rule, points):
    """The enumeration reads the rule off ``closure`` alone.  The patch
    replaces ``sl2hc.lattice.closure``; the rules call this module's own."""
    with mock.patch("sl2hc.lattice.closure", rule):
        sets = enumerate_submodule_sets(points)
        assert sets == _enumerate_reference(points)
        assert cover_edges(sets) == _cover_reference(sets)


@given(_window_points(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_structural_lattice_matches_brute_force(points, rnd):
    sets = enumerate_submodule_sets(points)
    assert sets == _enumerate_reference(points)
    assert cover_edges(sets) == _cover_reference(sets)
    # any sub-list of the sets, in any order, is read the same way
    some = rnd.sample(sets, rnd.randint(0, len(sets)))
    assert cover_edges(some) == _cover_reference(some)


@pytest.mark.parametrize("p", range(11))
def test_structural_counts_closed_form(p):
    points = [FD_POINT, HOL_POINT, ANTIHOL_POINT, *(ClassPoint("ps", F(1, 3 + i), 0) for i in range(p))]
    sets = enumerate_submodule_sets(points)
    covers = cover_edges(sets)
    assert (len(sets), len(covers)) == (5 * 2**p, 5 * 2**p + 5 * p * 2**p // 2)
    assert structural_counts(p) == (len(sets), len(covers))
    # the product of the down-sets of {Fd, C+, C-} and the Boolean lattice on
    # the p points: a cover of the product is a cover in one factor
    poles, ps = enumerate_submodule_sets(points[:3]), enumerate_submodule_sets(points[3:])
    n1, c1 = len(poles), len(cover_edges(poles))
    n2, c2 = len(ps), len(cover_edges(ps))
    assert structural_counts(p) == (n1 * n2, c1 * n2 + n1 * c2)
    assert all(len(sets[j]) == len(sets[i]) + 1 for i, j in covers)


def test_cover_edges_on_sets_that_are_not_closed():
    ps, ps3 = ClassPoint("ps", F(0), None), ClassPoint("ps", F(1, 3), 1)
    sets = [
        frozenset({HOL_POINT, ps}),
        frozenset(),
        frozenset({HOL_POINT}),
        frozenset({FD_POINT, HOL_POINT, ANTIHOL_POINT, ps}),
        frozenset({ps3}),
        frozenset({HOL_POINT, ANTIHOL_POINT, ps}),
        frozenset({ps}),
        frozenset({FD_POINT, ps3, ps}),
    ]
    expected = [(0, 5), (1, 2), (1, 4), (1, 6), (2, 0), (5, 3), (6, 0)]
    assert cover_edges(sets) == _cover_reference(sets) == expected
