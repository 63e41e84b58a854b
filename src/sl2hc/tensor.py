"""Closed-form tensor decompositions with a finite-dimensional factor.

Everything here is exact combinatorics on class parameters: Clebsch-Gordan
for two finite-dimensional modules, the signed reflection form of the same
sum, composition structure of principal series, principal series tensored
with V(m) (including the self-extension blocks that appear at integral
parameters), discrete series tensored with V(m) via support peeling, and
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
    as_scalar,
    casimir_value,
    check_highest_weight,
    check_parity,
    format_class,
    format_scalar,
    is_integer,
    ktype_function,
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

    The m+1 parameter shifts lam+m-2j split into single blocks, except that
    shifts j and j' with j + j' = lam + m land on dual parameters and glue
    into one LengthTwo block.  Reducible parameters are accepted; their
    blocks stay whole as ReducibleSeries.
    """
    lam = as_scalar(lam)
    check_parity(eps)
    check_highest_weight(m)
    eps2 = (eps + m) % 2
    out: list = []
    used: set = set()
    for j in range(m + 1):
        if j in used:
            continue
        partner = lam + m - j
        if is_integer(partner) and j < partner <= m:
            jp = int(partner)
            used.add(jp)
            c = lam + m - 2 * j  # > 0 since j < jp
            out.append(LengthTwo(_series_block(c, eps2), _series_block(-c, eps2)))
        else:
            out.append(Irr(_series_block(lam + m - 2 * j, eps2)))
    return out


def _series_block(lam: Fraction, eps: int) -> SeriesBlock:
    if principal_is_irreducible(lam, eps):
        return PrincipalIrr(lam, eps)
    return ReducibleSeries(lam, eps)


# --- discrete series tensor finite-dimensional -------------------------------


def ds_tensor(sign: int, l: int, m: int) -> VirtualModule:
    """D(sign, l) (x) V(m), peeled off its exact K-type function.

    The K-type function of the product is the convolution of a half-line
    indicator with a finite window.  Finite-dimensional factors are the only
    ones that can cover support on the side opposite to ``sign``; peeling
    them off from that side leaves a staircase which is a sum of discrete
    series of the same sign.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    check_highest_weight(l)
    check_highest_weight(m)
    if sign < 0:
        return VirtualModule([(_mirror_class(c), n) for c, n in ds_tensor(1, l, m).items()])

    f = ktype_function(DiscreteSeries(1, l)).convolve(ktype_function(FinDim(m)))
    lo = l + 1 - m  # leftmost possible support point
    hi = l + 1 + m  # support is constant m+1 beyond this point
    fds: list = []  # (n, mult) for FinDim(n)
    dss: list = []  # (p, mult) for DiscreteSeries(+1, p)
    k = lo
    while k <= 0:
        r = f.value(k) - sum(mult for n, mult in fds if -n <= k <= n)
        if r < 0:
            raise AssertionError("peeling produced a negative residual")
        if r:
            fds.append((-k, r))
        k += 2
    while k <= hi:
        r = (
            f.value(k)
            - sum(mult for n, mult in fds if -n <= k <= n)
            - sum(mult for p, mult in dss if k >= p + 1)
        )
        if r < 0:
            raise AssertionError("peeling produced a negative residual")
        if r:
            dss.append((k - 1, r))
        k += 2
    if sum(mult for _, mult in dss) != f.tail_right:
        raise AssertionError("peeling failed to exhaust the right tail")
    out = VirtualModule(
        [(FinDim(n), mult) for n, mult in fds] + [(DiscreteSeries(1, p), mult) for p, mult in dss]
    )
    allowed = {Fraction(l + m - 2 * j) ** 2 for j in range(m + 1)}
    for cls, _ in out.items():
        if casimir_value(cls) not in allowed:
            raise AssertionError(f"factor {format_class(cls)} outside the Casimir shift set")
    return out


def _mirror_class(c: IrreducibleClass) -> IrreducibleClass:
    if isinstance(c, DiscreteSeries):
        return DiscreteSeries(-c.sign, c.l)
    return c


# --- Grothendieck-level tensor and the primary decomposition ------------------


def tensor_with_finite(x: IrreducibleClass, m: int) -> VirtualModule:
    """Composition factors (with multiplicity) of x (x) V(m)."""
    if isinstance(x, FinDim):
        return clebsch_gordan(x.m, m)
    if isinstance(x, DiscreteSeries):
        return ds_tensor(x.sign, x.l, m)
    if isinstance(x, PrincipalIrr):
        return decomposition_semisimplification(ps_tensor(x.lam, x.eps, m))
    raise TypeError(f"not an irreducible class: {x!r}")


def grothendieck_tensor(x: VirtualModule, m: int) -> VirtualModule:
    """Linear extension of - (x) V(m) to integer combinations of classes."""
    check_highest_weight(m)
    out = VirtualModule.zero()
    for cls, mult in x.items():
        out = out + mult * tensor_with_finite(cls, m)
    return out


def primary_split(x: VirtualModule) -> dict:
    """Group an effective combination by infinitesimal character.

    Returns a dict keyed by InfChar, ordered by increasing character value.
    """
    from .core import inf_char

    if not x.is_effective:
        raise ValueError("primary decomposition requires nonnegative multiplicities")
    buckets: dict = {}
    for cls, mult in x.items():
        buckets.setdefault(inf_char(cls), []).append((cls, mult))
    return {key: VirtualModule(buckets[key]) for key in sorted(buckets)}


# --- conservation checks ------------------------------------------------------


def ktype_conservation_holds(x: VirtualModule, m: int, product: VirtualModule) -> bool:
    """The product's K-type function equals the convolution of the inputs'."""
    from .core import module_ktype_function

    lhs = module_ktype_function(product)
    rhs = module_ktype_function(x).convolve(ktype_function(FinDim(m)))
    return lhs == rhs
