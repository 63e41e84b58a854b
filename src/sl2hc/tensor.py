"""Closed-form tensor decompositions with a finite-dimensional factor.

Everything here is exact combinatorics on class parameters: Clebsch-Gordan
for two finite-dimensional modules, the signed reflection form of the same
sum, composition structure of principal series, principal series tensored
with V(m) (including the self-extension blocks that appear at integral
parameters), discrete series tensored with V(m) by parameter shifts, and
the induced operation on integer combinations of classes.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (
    DiscreteSeries,
    FinDim,
    IrreducibleClass,
    PrincipalIrr,
    Record,
    Scalar,
    VirtualModule,
    _kind,
    as_scalar,
    check_highest_weight,
    check_parity,
    format_class,
    format_scalar,
    inf_char,
    ktype_function,
    module_ktype_function,
    principal_is_irreducible,
)

# --- composition structure of a principal series ----------------------------


# The four shapes are told apart by their layer sizes alone.
_KINDS = {(1,): "irreducible", (2,): "split_limit", (2, 1): "positive_int", (1, 2): "negative_int"}


class SeriesStructure(Record):
    """Composition series of a principal series, socle to top.

    ``layers[0]`` is the socle; each layer is a tuple of irreducible classes.
    A single layer means the series is semisimple: irreducible, or the split
    sum of the two limits of discrete series.
    """

    __slots__ = ("layers",)

    @property
    def split(self) -> bool:
        return len(self.layers) == 1

    @property
    def kind(self) -> str:
        return _KINDS[tuple(map(len, self.layers))]

    @property
    def factors(self) -> tuple:
        """Composition factors, socle first."""
        return tuple(cls for layer in self.layers for cls in layer)


def PsIrreducible(factor: PrincipalIrr) -> SeriesStructure:
    """Irreducible principal series; the structure is the module itself."""
    return SeriesStructure(((factor,),))


def PsSplitLimit(plus: DiscreteSeries, minus: DiscreteSeries) -> SeriesStructure:
    """Parameter 0 with odd parity: direct sum of the two limits of discrete series."""
    return SeriesStructure(((plus, minus),))


def PsPositiveInt(sub_plus: DiscreteSeries, sub_minus: DiscreteSeries, quotient: FinDim) -> SeriesStructure:
    """Positive integral reducible parameter: discrete series pair below,
    finite-dimensional quotient above (non-split)."""
    return SeriesStructure(((sub_plus, sub_minus), (quotient,)))


def PsNegativeInt(sub: FinDim, quot_plus: DiscreteSeries, quot_minus: DiscreteSeries) -> SeriesStructure:
    """Negative integral reducible parameter: finite-dimensional submodule below,
    discrete series pair above (non-split)."""
    return SeriesStructure(((sub,), (quot_plus, quot_minus)))


def ps_structure(lam: Scalar, eps: int) -> SeriesStructure:
    """Composition structure of the principal series with parameter (lam, eps)."""
    lam = as_scalar(lam)
    check_parity(eps)
    if principal_is_irreducible(lam, eps):
        return PsIrreducible(PrincipalIrr(lam, eps))
    n = int(lam)
    if n == 0:
        return PsSplitLimit(DiscreteSeries(1, 0), DiscreteSeries(-1, 0))
    if n > 0:
        return PsPositiveInt(DiscreteSeries(1, n), DiscreteSeries(-1, n), FinDim(n - 1))
    return PsNegativeInt(FinDim(-n - 1), DiscreteSeries(1, -n), DiscreteSeries(-1, -n))


def series_semisimplification(lam: Scalar, eps: int) -> VirtualModule:
    """Composition factors (with multiplicity) of the principal series (lam, eps)."""
    return VirtualModule.of(*ps_structure(lam, eps).factors)


# --- summands of a principal series tensor ----------------------------------


class ReducibleSeries(Record):
    """A reducible principal series kept whole as one block of a decomposition.

    The parameter keeps its sign: at reducible parameters the series at lam
    and -lam are dual but not isomorphic, and the sign records which one
    occurs.
    """

    __slots__ = ("lam", "eps")

    def __post_init__(self) -> None:
        lam = as_scalar(self.lam)
        check_parity(self.eps)
        if principal_is_irreducible(lam, self.eps):
            raise ValueError(
                f"I({format_scalar(lam)},{self.eps}) is irreducible; use PrincipalIrr"
            )
        object.__setattr__(self, "lam", lam)


SeriesBlock = PrincipalIrr | ReducibleSeries


class Irr(Record):
    """A single principal series occurring as a direct summand."""

    __slots__ = ("factor",)
    kind = "irr"

    @property
    def blocks(self) -> tuple:
        return (self.factor,)


class LengthTwo(Record):
    """Self-extension block: two principal series glued along an integral wall.

    ``sub`` sits at the bottom of the extension, ``quot`` on top; they share
    the infinitesimal character.
    """

    __slots__ = ("sub", "quot")
    kind = "len2"

    def __post_init__(self) -> None:
        if abs(block_parameter(self.sub)) != abs(block_parameter(self.quot)):
            raise ValueError("the two layers must share the infinitesimal character")

    @property
    def blocks(self) -> tuple:
        return (self.sub, self.quot)


Summand = Irr | LengthTwo


def block_parameter(b: SeriesBlock) -> Fraction:
    if isinstance(b, (PrincipalIrr, ReducibleSeries)):
        return b.lam
    raise TypeError(f"not a principal series block: {b!r}")


def format_series_block(b: SeriesBlock) -> str:
    return f"I({format_scalar(b.lam)},{b.eps})"


def format_summand(s: Summand) -> str:
    text = " | ".join(map(format_series_block, s.blocks))
    return f"[{text}]" if len(s.blocks) > 1 else text


def _summand_factors(s: Summand) -> list:
    """Composition factors block by block, socle first; an irreducible block is its own factor."""
    return [c for b in s.blocks for c in ps_structure(b.lam, b.eps).factors]


def summand_semisimplification(s: Summand) -> VirtualModule:
    return VirtualModule.of(*_summand_factors(s))


def decomposition_semisimplification(summands: list) -> VirtualModule:
    return VirtualModule.of(*(c for s in summands for c in _summand_factors(s)))


def decomposition_to_dict(summands: list) -> dict:
    """JSON-friendly form of a summand list (classes listed bottom layer first)."""
    rendered = []
    for s in summands:
        factors = _summand_factors(s)
        entry = {"kind": s.kind, "classes": [format_class(c) for c in factors]}
        if len(factors) > len(s.blocks):  # reducible blocks are also named whole
            entry["series"] = [format_series_block(b) for b in s.blocks]
        rendered.append(entry)
    ss = decomposition_semisimplification(summands)
    return {
        "summands": rendered,
        "semisimplification": {format_class(c): n for c, n in ss.items()},
    }


# --- finite-dimensional tensor products --------------------------------------


def clebsch_gordan(m1: int, m2: int) -> VirtualModule:
    """V(m1) (x) V(m2) = V(m1+m2) + V(m1+m2-2) + ... + V(|m1-m2|)."""
    check_highest_weight(m1)
    check_highest_weight(m2)
    return VirtualModule.of(*(FinDim(m1 + m2 - 2 * j) for j in range(min(m1, m2) + 1)))


def weyl_signed_tensor(m1: int, m2: int) -> VirtualModule:
    """The same product through the signed reflection sum over weights of V(m2).

    Each weight nu of V(m2) contributes sgn(m1+nu+1) times the class of the
    dominant translate of m1+nu+1, with the singular point dropped; the
    signed terms cancel down to the Clebsch-Gordan staircase.
    """
    check_highest_weight(m1)
    check_highest_weight(m2)
    acc: dict = {}
    for nu in range(-m2, m2 + 1, 2):
        t = m1 + nu + 1
        if t == 0:
            continue
        cls = FinDim(abs(t) - 1)
        acc[cls] = acc.get(cls, 0) + (1 if t > 0 else -1)
    out = VirtualModule(acc)
    if not out.is_effective:
        raise AssertionError("signed sum failed to cancel")
    return out


# --- principal series tensor finite-dimensional ------------------------------


def ps_tensor(lam: Scalar, eps: int, m: int) -> list:
    """Direct summands of (principal series at (lam, eps)) (x) V(m).

    Tensoring with V(m) moves the parameter through the m+1 shifts
    t = lam+m-2j, j = 0..m, in that order.  A shift t != 0 whose negative
    -t is also a shift lands on the dual parameter of that partner: the two
    glue into one LengthTwo block, placed at t > 0 and skipped at t < 0.
    Every other shift is a single block.  Reducible parameters are
    accepted; their blocks stay whole as ReducibleSeries.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    check_highest_weight(m)
    eps2 = (eps + m) % 2
    shifts = [lam + (m - 2 * j) for j in range(m + 1)]
    # Each shift differs from lam by an integer, so all have lam's denominator
    # and compare by numerators.  No integrality test: if t = lam+m-2j and
    # -t = lam+m-2j' are both shifts, then 2t = 2(j'-j), so t is an integer.
    present = {t.numerator for t in shifts}
    out: list = []
    for t in shifts:
        if t and -t.numerator in present:
            if t > 0:
                out.append(LengthTwo(_series_block(t, eps2), _series_block(-t, eps2)))
        else:
            out.append(Irr(_series_block(t, eps2)))
    return out


def _series_block(lam: Fraction, eps: int) -> SeriesBlock:
    if principal_is_irreducible(lam, eps):
        return PrincipalIrr(lam, eps)
    return ReducibleSeries(lam, eps)


# --- discrete series tensor finite-dimensional -------------------------------


def ds_tensor(sign: int, l: int, m: int) -> VirtualModule:
    """D(sign, l) (x) V(m) by the parameter shifts t = l+m-2j, j = 0..m.

    The K-types of D(+1, l) are the half-line k >= l+1 of its parity, and
    those of the product are the m+1 half-lines k >= t+1.  For t >= 0 such
    a half-line is D(+1, t); for t < 0 it is V(-t-1) followed by D(+1, -t).
    D(-1, l) is the mirror image.  Every factor has Casimir value t^2.
    """
    DiscreteSeries(sign, l)  # checks sign and l
    check_highest_weight(m)
    classes: list = []
    for t in range(l + m, l - m - 1, -2):
        classes.append(DiscreteSeries(sign, abs(t)))
        if t < 0:
            classes.append(FinDim(-t - 1))
    return VirtualModule.of(*classes)


# --- Grothendieck-level tensor and the primary decomposition ------------------


def tensor_with_finite(x: IrreducibleClass, m: int) -> VirtualModule:
    """Composition factors (with multiplicity) of x (x) V(m), by the rule of x's kind."""
    return _kind(x).tensor(x, m)


def grothendieck_tensor(x: VirtualModule, m: int) -> VirtualModule:
    """Linear extension of - (x) V(m) to integer combinations of classes."""
    check_highest_weight(m)
    return VirtualModule(
        [(c, mult * n) for cls, mult in x.items() for c, n in tensor_with_finite(cls, m).items()]
    )


def primary_split(x: VirtualModule) -> dict:
    """Group an effective combination by infinitesimal character.

    Returns a dict keyed by InfChar, ordered by increasing character value.
    """
    if not x.is_effective:
        raise ValueError("primary decomposition requires nonnegative multiplicities")
    buckets: dict = {}
    for cls, mult in x.items():
        buckets.setdefault(inf_char(cls), []).append((cls, mult))
    return {key: VirtualModule(buckets[key]) for key in sorted(buckets)}


# --- conservation checks ------------------------------------------------------


def ktype_conservation_holds(x: VirtualModule, m: int, product: VirtualModule) -> bool:
    """The product's K-type function equals the convolution of the inputs'."""
    lhs = module_ktype_function(product)
    rhs = module_ktype_function(x).convolve(ktype_function(FinDim(m)))
    return lhs == rhs
