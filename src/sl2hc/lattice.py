"""The lattice of thick tensor-submodules and the classification it carries.

Tensoring with finite-dimensional modules cannot leave the finite-dimensional
classes, can only push a discrete series family towards the
finite-dimensionals, and moves an irreducible principal series through the
integer translates of its parameter (with the parameter sign identified).
The resulting "class points" are

* ``Fd``: all finite-dimensional classes,
* ``C+`` / ``C-``: the holomorphic / anti-holomorphic discrete series families,
* one point per principal series translation class, keyed by the canonical
  base parameter lam0 in [0, 1/2] (parity collapses when 2*lam0 is integral).

A set of class points is realizable as a thick tensor-submodule exactly when
it contains ``Fd`` whenever it meets a discrete series family; that single
constraint generates the whole lattice, its specialization topology, and an
injective classification of the irreducible classes by (closure of the
generic point, integer shift from the base parameter).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from fractions import Fraction

from .core import (
    ASCone,
    IrreducibleClass,
    PrincipalIrr,
    Record,
    Scalar,
    VirtualModule,
    as_cone,
    as_scalar,
    check_parity,
    format_scalar,
    inf_char,
    is_integer,
    principal_is_irreducible,
)

# kind -> (sort rank, name, boundary stratum); a principal series point is
# named by its parameters instead.
_KINDS = {
    "fd": (0, "Fd", "closed orbit P^1(C) (compact form SU(2))"),
    "hol": (1, "C+", "pole {0}"),
    "antihol": (2, "C-", "pole {infinity}"),
    "ps": (3, None, "open orbit C^x"),
}


class ClassPoint(Record):
    """A point of the class space: Fd, C+, C-, or a principal series class.

    ``lam0`` and ``eps0`` are the base parameter and parity marker of a
    principal series point, and None otherwise.
    """

    __slots__ = ("kind", "lam0", "eps0")
    _defaults = {"lam0": None, "eps0": None}

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown class point kind {self.kind!r}")
        if self.kind != "ps":
            if self.lam0 is not None or self.eps0 is not None:
                raise ValueError(f"{self.kind} point carries no parameters")
            return
        lam0 = as_scalar(self.lam0)
        if not 0 <= lam0 <= Fraction(1, 2):
            raise ValueError("base parameter must lie in [0, 1/2]")
        collapsed = is_integer(2 * lam0)
        if collapsed:
            if self.eps0 is not None:
                raise ValueError("parity collapses when twice the base parameter is integral")
        else:
            if self.eps0 is None:
                raise ValueError("parity marker required for this base parameter")
            check_parity(self.eps0)
        object.__setattr__(self, "lam0", lam0)


FD_POINT = ClassPoint("fd")
HOL_POINT = ClassPoint("hol")
ANTIHOL_POINT = ClassPoint("antihol")


def point_sort_key(p: ClassPoint) -> tuple:
    return (
        _KINDS[p.kind][0],
        p.lam0 if p.lam0 is not None else Fraction(0),
        p.eps0 if p.eps0 is not None else -1,
    )


def format_point(p: ClassPoint) -> str:
    eps = "*" if p.eps0 is None else str(p.eps0)
    return _KINDS[p.kind][1] or f"Ps({format_scalar(p.lam0)},{eps})"


def format_point_set(points: frozenset) -> str:
    return "{" + ", ".join(format_point(p) for p in sorted(points, key=point_sort_key)) + "}"


def orbit_label(p: ClassPoint) -> str:
    """Geometric name of the boundary stratum the point corresponds to."""
    return _KINDS[p.kind][2]


# --- principal series classes --------------------------------------------------


def reduce_to_base(lam: Scalar) -> Fraction:
    """Canonical representative in [0, 1/2] of the set {lam + Z} u {-lam + Z}."""
    lam = as_scalar(lam)
    frac = lam - math.floor(lam)
    return frac if frac <= Fraction(1, 2) else 1 - frac


def _ps_point_and_shift(lam: Scalar, eps: int) -> tuple:
    """(class point, signed shift j) of an irreducible principal series:
    lam0 + j is lam or -lam, and eps0 + j has the parity eps.  Off a
    collapsed base just one j is an integer, and it fixes eps0; over a
    collapsed base eps0 reads as 0, and where both integers have the parity
    eps (base 0) the larger is taken."""
    lam = PrincipalIrr(lam, eps).lam  # refuses a bad parity or a reducible parameter
    lam0 = reduce_to_base(lam)
    shifts = [j for j in (lam - lam0, -lam - lam0) if is_integer(j)]
    if is_integer(2 * lam0):
        return ClassPoint("ps", lam0, None), max(j for j in shifts if j % 2 == eps)
    (j,) = shifts
    return ClassPoint("ps", lam0, int(eps - j) % 2), j


def ps_class_point(lam: Scalar, eps: int) -> ClassPoint:
    """Class point of an irreducible principal series parameter."""
    return _ps_point_and_shift(lam, eps)[0]


def ps_class_equal(lam: Scalar, eps: int, lam2: Scalar, eps2: int) -> bool:
    """Same translation class: parameters linked by an integer shift with the
    matching parity change, directly or through the parameter sign flip;
    that is, the same class point."""
    return ps_class_point(lam, eps) == ps_class_point(lam2, eps2)


# --- closures and the submodule lattice ----------------------------------------


_CONE_POINTS = {
    ASCone.ZERO: FD_POINT,
    ASCone.PLUS_HALF_LINE: HOL_POINT,
    ASCone.MINUS_HALF_LINE: ANTIHOL_POINT,
}


def class_closure(x: IrreducibleClass) -> frozenset:
    """Class points generated by tensoring one irreducible with all V(m).

    The asymptotic cone of the K-type support names the point; only a full
    line needs the principal series parameters.
    """
    cone = as_cone(x)
    point = ps_class_point(x.lam, x.eps) if cone is ASCone.FULL_LINE else _CONE_POINTS[cone]
    return closure({point})


def generated_submodule(xs: Iterable[VirtualModule]) -> frozenset:
    """Class points of the thick tensor-submodule generated by the given modules."""
    out: set = set()
    for x in xs:
        if not x.is_effective:
            raise ValueError("generators must have nonnegative multiplicities")
        for cls, _ in x.items():
            out |= class_closure(cls)
    return frozenset(out)


def is_valid_submodule_set(points: Iterable[ClassPoint]) -> bool:
    """The realizability constraint: the set is closed."""
    pts = frozenset(points)
    return closure(pts) == pts


def closure(points: Iterable[ClassPoint]) -> frozenset:
    """Smallest valid set containing the given points (adds Fd when forced)."""
    pts = set(points)
    if HOL_POINT in pts or ANTIHOL_POINT in pts:
        pts.add(FD_POINT)
    return frozenset(pts)


class PosetOps(Record):
    """Containment (``leq``), union (``join``) and intersection (``meet``) of two sets."""

    __slots__ = ("leq", "join", "meet")


def sub_poset_ops(s: Iterable[ClassPoint], t: Iterable[ClassPoint]) -> PosetOps:
    """Containment order with join and meet; inputs must satisfy the constraint."""
    s, t = frozenset(s), frozenset(t)
    for x in (s, t):
        if not is_valid_submodule_set(x):
            raise ValueError(f"not a valid tensor-submodule: {format_point_set(x)}")
    join = s | t
    meet = s & t
    assert is_valid_submodule_set(join) and is_valid_submodule_set(meet)
    return PosetOps(s <= t, join, meet)


def irreducible_closed_sets(lambdas: Iterable[Scalar]) -> list:
    """Closures of single class points over the given parameter window.

    Each base parameter gives the points of its irreducible parities (one
    point when the parity collapses).
    """
    ps_points = {
        ps_class_point(lam0, e)
        for lam0 in map(reduce_to_base, lambdas)
        for e in (0, 1)
        if principal_is_irreducible(lam0, e)
    }
    points = [FD_POINT, HOL_POINT, ANTIHOL_POINT] + sorted(ps_points, key=point_sort_key)
    return [closure({p}) for p in points]


def closed_index_sets(points: list) -> list:
    """Closed sets over distinct points as index tuples, by size and then
    lexicographically (over sorted points, the order of the sorted keys): as
    ``closure`` adds only Fd, a tuple is closed iff it holds the Fd index or
    no index of a point whose closure holds Fd (C+ and C-)."""
    fd = points.index(FD_POINT) if FD_POINT in points else -1
    poles = {i for i, p in enumerate(points) if p != FD_POINT and FD_POINT in closure({p})}
    return [
        combo
        for size in range(len(points) + 1)
        for combo in itertools.combinations(range(len(points)), size)
        if fd in combo or poles.isdisjoint(combo)
    ]


def index_cover_edges(sets: list) -> list:
    """Hasse covers among distinct sets of point indices, on integer masks.

    Within a window every cover adds exactly one point: adding Fd first is
    always valid, so larger gaps always factor through an intermediate set.
    The covers are therefore the pairs of the given sets that differ by one
    point, found by one lookup per set and missing point.
    """
    masks = [sum(map((1).__lshift__, s)) for s in sets]
    index = {mask: i for i, mask in enumerate(masks)}
    bits = [1 << b for b in range(max(masks, default=0).bit_length())]
    return sorted(
        (i, index[m | bit]) for i, m in enumerate(masks) for bit in bits if not m & bit and m | bit in index
    )


def enumerate_submodule_sets(points: Iterable[ClassPoint]) -> list:
    """All valid submodule sets over a finite window of class points,
    ordered by size, then by the sorted point keys."""
    pts = sorted(set(points), key=point_sort_key)
    return [frozenset(map(pts.__getitem__, combo)) for combo in closed_index_sets(pts)]


def cover_edges(sets: list) -> list:
    """Hasse covers in the containment order restricted to the given
    (distinct) sets of class points; see ``index_cover_edges``."""
    bits: dict = {}
    return index_cover_edges([[bits.setdefault(p, len(bits)) for p in s] for s in sets])


def structural_counts(p: int) -> tuple:
    """Numbers of closed sets and of covers over Fd, C+, C- and p principal
    series points: the 5-element lattice on {Fd, C+, C-} times the Boolean
    lattice on the p points, with every cover adding one point."""
    return 5 * 2**p, 5 * 2**p + 5 * p * 2**p // 2


def specialization_edges(points: Iterable[ClassPoint]) -> list:
    """Pairs (p, q) with q in the closure of {p}, q != p."""
    out = []
    for p in sorted(set(points), key=point_sort_key):
        for q in sorted(closure({p}) - {p}, key=point_sort_key):
            out.append((p, q))
    return out


# --- classification of irreducibles --------------------------------------------


def classify_irreducible(x: IrreducibleClass) -> tuple:
    """Injective invariant (closure of the generic class point, integer index).

    The index is the infinitesimal character for V(m) and D+-(l), namely m+1
    and l.  For a principal series it is the integer shift j taking the base
    parameter (lam0, eps0) to the module, with negative shifts reaching the
    parameters below the base point through the sign flip.  Collapsed base
    points are read with eps0 = 0, and the only ambiguous case (base 0,
    where +-j land on the same module) resolves to the nonnegative shift.
    The signed shift, unlike the bare distance |j|, separates the two parity
    classes over a collapsed base, keeping the map injective.
    """
    if as_cone(x) is not ASCone.FULL_LINE:
        return (class_closure(x), inf_char(x).value)
    point, j = _ps_point_and_shift(x.lam, x.eps)
    return (frozenset({point}), j)
