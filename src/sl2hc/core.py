"""Irreducible (sl2, SO(2))-module classes and their exact invariants.

The building blocks:

* ``FinDim(m)``: the finite-dimensional module of highest weight ``m``
  (dimension ``m + 1``),
* ``DiscreteSeries(sign, l)``: holomorphic (``sign=+1``) or anti-holomorphic
  (``sign=-1``) discrete series; ``l = 0`` encodes the two limits,
* ``PrincipalIrr(lam, eps)``: irreducible principal series, stored in the
  self-dual canonical form ``lam >= 0``.

All continuous parameters are exact rationals (``fractions.Fraction``).
Every case distinction in this package depends only on integrality and
parity of the parameter, so rationals decide every branch without rounding.
Code that needs a larger exact coefficient field only has to swap out
``as_scalar`` / ``is_integer``; nothing downstream assumes more than field
arithmetic plus those two predicates.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from operator import attrgetter

Scalar = Fraction


class UnexpectedEigenvalueError(ArithmeticError):
    """Raised when a Casimir spectrum leaves the candidate eigenvalue set."""


_setattr = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass names its fields in ``__slots__`` and may give defaults for
    trailing fields in ``_defaults``.  Instances are built from positional
    or keyword field values, then checked or canonicalized by
    ``__post_init__``, which sets fields through ``object.__setattr__``.
    Afterwards they are read-only.  Two records are equal when they have
    the same class and equal fields; the hash is that of the field tuple,
    computed once.  The repr is ``Name(field=value, ...)``, and pickling
    rebuilds through the constructor.
    """

    __slots__ = ("_hash",)
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__slots__
        cls._fields = cls.__match_args__ = fields
        cls._get = get = attrgetter(*fields)  # the bare value for a single field
        cls._key = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        _setattr(self, "_hash", None)
        for name, value in zip(self._fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in order from positional values, keywords and defaults."""
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if len(args) > len(cls._fields) or given.keys() & kwargs.keys() or values.keys() != set(cls._fields):
            fields = ", ".join(cls._fields)
            raise TypeError(f"{cls.__name__} takes the fields {fields}; got {args!r}, {kwargs!r}")
        return [values[name] for name in cls._fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key(self))
            _setattr(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational; accepts ints, Fractions and 'p/q' strings."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"cannot parse rational {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def format_scalar(x: Fraction) -> str:
    return str(x)


def check_parity(eps: int) -> int:
    if eps not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {eps!r}")
    return eps


def principal_is_irreducible(lam: Fraction, eps: int) -> bool:
    """The principal series with these parameters is irreducible.

    Reducibility happens exactly for integral parameter whose parity
    disagrees with the K-type parity class.
    """
    return not (is_integer(lam) and (int(lam) - eps) % 2 != 0)


class FinDim(Record):
    """Finite-dimensional irreducible of highest weight m (dimension m + 1)."""

    __slots__ = ("m",)

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValueError(f"highest weight must be a nonnegative integer, got {self.m!r}")


class DiscreteSeries(Record):
    """Discrete series D+(l) / D-(l); l = 0 gives the limits of discrete series.

    ``sign=+1`` is the holomorphic family (K-types l+1, l+3, ...) and
    ``sign=-1`` the anti-holomorphic mirror.
    """

    __slots__ = ("sign", "l")

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not isinstance(self.l, int) or isinstance(self.l, bool) or self.l < 0:
            raise ValueError(f"discrete series parameter must be a nonnegative integer, got {self.l!r}")


class PrincipalIrr(Record):
    """Irreducible principal series I(lam, eps), canonicalized to lam >= 0.

    The modules at parameter lam and -lam are isomorphic, so the constructor
    replaces lam by its absolute value.  Reducible parameters are rejected.
    """

    __slots__ = ("lam", "eps")

    def __post_init__(self) -> None:
        lam = as_scalar(self.lam)
        check_parity(self.eps)
        if not principal_is_irreducible(lam, self.eps):
            raise ValueError(
                f"not an irreducible class: I({format_scalar(lam)},{self.eps}) is reducible"
            )
        object.__setattr__(self, "lam", abs(lam))


IrreducibleClass = FinDim | DiscreteSeries | PrincipalIrr


def class_sort_key(x: IrreducibleClass) -> tuple:
    """Total order used for canonical storage of class combinations."""
    if isinstance(x, FinDim):
        return (0, Fraction(x.m), 0)
    if isinstance(x, DiscreteSeries):
        return (1, Fraction(x.l), 0 if x.sign > 0 else 1)
    if isinstance(x, PrincipalIrr):
        return (2, x.lam, x.eps)
    raise TypeError(f"not an irreducible class: {x!r}")


def display_sort_key(x: IrreducibleClass) -> tuple:
    """Display order: descending infinitesimal character, then D+, D-, V, I."""
    if isinstance(x, DiscreteSeries):
        fam = 0 if x.sign > 0 else 1
    elif isinstance(x, FinDim):
        fam = 2
    else:
        fam = 3
    return (-inf_char(x).value, fam) + class_sort_key(x)


# --- text grammar ----------------------------------------------------------

_FINDIM_RE = re.compile(r"^V\((\d+)\)$")
_DISCRETE_RE = re.compile(r"^D([+-])\((\d+)\)$")
_PRINCIPAL_RE = re.compile(r"^I\((-?\d+(?:/\d+)?),\s*(\d+)\)$")


def format_class(x: IrreducibleClass) -> str:
    if isinstance(x, FinDim):
        return f"V({x.m})"
    if isinstance(x, DiscreteSeries):
        return f"D{'+' if x.sign > 0 else '-'}({x.l})"
    if isinstance(x, PrincipalIrr):
        return f"I({format_scalar(x.lam)},{x.eps})"
    raise TypeError(f"not an irreducible class: {x!r}")


def parse_class(text: str) -> IrreducibleClass:
    """Parse the canonical grammar V(m) | D+(l) | D-(l) | I(lam,eps)."""
    s = text.strip()
    m = _FINDIM_RE.match(s)
    if m:
        return FinDim(int(m.group(1)))
    m = _DISCRETE_RE.match(s)
    if m:
        return DiscreteSeries(1 if m.group(1) == "+" else -1, int(m.group(2)))
    m = _PRINCIPAL_RE.match(s)
    if m:
        return PrincipalIrr(as_scalar(m.group(1)), int(m.group(2)))
    raise ValueError(f"cannot parse class {text!r}")


# --- virtual modules -------------------------------------------------------


class VirtualModule:
    """Integer combination of irreducible classes (free abelian group element).

    Honest modules are the combinations with nonnegative multiplicities;
    signed combinations arise from cancellation formulas.
    """

    __slots__ = ("_entries",)

    def __init__(self, items: Mapping | Iterable = ()) -> None:
        if isinstance(items, VirtualModule):
            items = items.items()
        elif isinstance(items, Mapping):
            items = items.items()
        acc: dict = {}
        for cls, mult in items:
            class_sort_key(cls)  # type check
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise TypeError(f"multiplicity must be an int, got {mult!r}")
            acc[cls] = acc.get(cls, 0) + mult
        entries = [(c, n) for c, n in acc.items() if n]
        entries.sort(key=lambda cn: class_sort_key(cn[0]))
        self._entries: tuple = tuple(entries)

    @classmethod
    def zero(cls) -> "VirtualModule":
        return cls()

    @classmethod
    def of(cls, *classes: IrreducibleClass) -> "VirtualModule":
        return cls([(c, 1) for c in classes])

    def items(self) -> tuple:
        return self._entries

    def support(self) -> tuple:
        return tuple(c for c, _ in self._entries)

    def multiplicity(self, cls: IrreducibleClass) -> int:
        for c, n in self._entries:
            if c == cls:
                return n
        return 0

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def is_effective(self) -> bool:
        return all(n >= 0 for _, n in self._entries)

    def total_multiplicity(self) -> int:
        return sum(n for _, n in self._entries)

    def dimension(self) -> int:
        """Total dimension; defined only for effective finite-dimensional combinations."""
        total = 0
        for c, n in self._entries:
            if not isinstance(c, FinDim) or n < 0:
                raise ValueError("dimension is defined for effective finite-dimensional modules only")
            total += n * (c.m + 1)
        return total

    def __add__(self, other: "VirtualModule") -> "VirtualModule":
        return VirtualModule(list(self._entries) + list(other.items()))

    def __neg__(self) -> "VirtualModule":
        return VirtualModule([(c, -n) for c, n in self._entries])

    def __sub__(self, other: "VirtualModule") -> "VirtualModule":
        return self + (-other)

    def __rmul__(self, n: int) -> "VirtualModule":
        if not isinstance(n, int):
            return NotImplemented
        return VirtualModule([(c, n * m) for c, m in self._entries])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VirtualModule):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"VirtualModule({format_virtual_module(self)!r})"


def format_virtual_module(x: VirtualModule) -> str:
    """Render e.g. 'V(2) + V(0)' or 'D+(3) + 2*D+(1) + V(0)'; '0' for zero."""
    if x.is_zero:
        return "0"
    parts = []
    for cls, mult in sorted(x.items(), key=lambda cn: display_sort_key(cn[0])):
        txt = format_class(cls)
        if mult == 1:
            parts.append(txt)
        elif mult == -1:
            parts.append(f"-{txt}")
        else:
            parts.append(f"{mult}*{txt}")
    return " + ".join(parts)


# --- infinitesimal character / Casimir -------------------------------------


@total_ordering
class InfChar(Record):
    """Infinitesimal character, i.e. the orbit {+value, -value}, canonical rep >= 0."""

    __slots__ = ("value",)

    def __post_init__(self) -> None:
        v = as_scalar(self.value)
        if v < 0:
            raise ValueError("canonical representative must be nonnegative")
        object.__setattr__(self, "value", v)

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.value < other.value
        return NotImplemented

    @property
    def casimir(self) -> Fraction:
        return self.value * self.value


def inf_char(x: IrreducibleClass) -> InfChar:
    if isinstance(x, FinDim):
        return InfChar(Fraction(x.m + 1))
    if isinstance(x, DiscreteSeries):
        return InfChar(Fraction(x.l))
    if isinstance(x, PrincipalIrr):
        return InfChar(x.lam)
    raise TypeError(f"not an irreducible class: {x!r}")


def casimir_value(x: IrreducibleClass) -> Fraction:
    """Casimir eigenvalue: the square of the infinitesimal character."""
    return inf_char(x).casimir


# --- K-type multiplicity functions ------------------------------------------


class KTypeFunction(Record):
    """Exact K-multiplicity function on one parity class of weights.

    Stored as explicit values on a minimal window plus two constant tails
    (the eventual values for k -> -oo and k -> +oo along the parity class).
    The representation is canonical, so equality of the fields is equality
    of functions.
    """

    __slots__ = ("parity", "tail_left", "tail_right", "values")  # values: ((k, mult), ...)

    def __post_init__(self) -> None:
        check_parity(self.parity)
        if self.tail_left < 0 or self.tail_right < 0:
            raise ValueError("tail multiplicities must be nonnegative")
        ks = [k for k, _ in self.values]
        if ks and ks != list(range(ks[0], ks[-1] + 1, 2)):
            raise ValueError("window must be step-2 contiguous")
        for k, v in self.values:
            if (k - self.parity) % 2 != 0:
                raise ValueError(f"weight {k} is off the parity class {self.parity}")
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
        if not ks and self.tail_left != self.tail_right:
            raise ValueError("empty window needs equal tails")

    @staticmethod
    def build(parity: int, values: Mapping[int, int], tail_left: int, tail_right: int) -> "KTypeFunction":
        """Canonical constructor; trims window entries already implied by the tails."""
        check_parity(parity)
        if tail_left < 0 or tail_right < 0:
            raise ValueError("tail multiplicities must be nonnegative")
        pts = sorted((int(k), int(v)) for k, v in values.items())
        for k, v in pts:
            if (k - parity) % 2 != 0:
                raise ValueError(f"weight {k} is off the parity class {parity}")
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
        if not pts:
            if tail_left != tail_right:
                raise ValueError("cannot place the tail crossover without window values")
            return KTypeFunction(parity, tail_left, tail_right, ())
        lo, hi = pts[0][0], pts[-1][0]
        filled = {k: 0 for k in range(lo, hi + 1, 2)}
        filled.update(dict(pts))
        # pad one tail point per side so the crossover is always in view
        seq = [(lo - 2, tail_left)] + sorted(filled.items()) + [(hi + 2, tail_right)]
        first = next((i for i, (_, v) in enumerate(seq) if v != tail_left), None)
        last = next((i for i in reversed(range(len(seq))) if seq[i][1] != tail_right), None)
        if first is None and last is None:
            return KTypeFunction(parity, tail_left, tail_right, ())
        if first is not None and last is not None and first <= last:
            window = tuple(seq[first : last + 1])
        else:
            # pure step between the tails; anchor at the first right-tail point
            assert tail_left != tail_right and first is not None
            window = (seq[first],)
        return KTypeFunction(parity, tail_left, tail_right, window)

    @staticmethod
    def zero(parity: int) -> "KTypeFunction":
        return KTypeFunction.build(parity, {}, 0, 0)

    def value(self, k: int) -> int:
        if (k - self.parity) % 2 != 0:
            return 0
        if not self.values:
            return self.tail_left
        k0 = self.values[0][0]
        k1 = self.values[-1][0]
        if k < k0:
            return self.tail_left
        if k > k1:
            return self.tail_right
        return self.values[(k - k0) // 2][1]

    def table(self, lo: int, hi: int) -> dict:
        """Explicit values on the window [lo, hi] (parity-class points only)."""
        if lo > hi:
            raise ValueError("window must be nonempty")
        start = lo if (lo - self.parity) % 2 == 0 else lo + 1
        return {k: self.value(k) for k in range(start, hi + 1, 2)}

    @property
    def is_finite(self) -> bool:
        return self.tail_left == 0 and self.tail_right == 0

    def total(self) -> int:
        if not self.is_finite:
            raise ValueError("total multiplicity is defined for finitely supported functions")
        return sum(v for _, v in self.values)

    def support_points(self) -> tuple:
        if not self.is_finite:
            raise ValueError("explicit support requires a finitely supported function")
        return tuple((k, v) for k, v in self.values if v)

    def scale(self, n: int) -> "KTypeFunction":
        if n < 0:
            raise ValueError("multiplicities must stay nonnegative")
        return KTypeFunction.build(
            self.parity, {k: n * v for k, v in self.values}, n * self.tail_left, n * self.tail_right
        )

    def __add__(self, other: "KTypeFunction") -> "KTypeFunction":
        if not isinstance(other, KTypeFunction):
            return NotImplemented
        if self.parity != other.parity:
            raise ValueError("cannot add K-type functions on different parity classes")
        ks = [k for k, _ in self.values] + [k for k, _ in other.values]
        if not ks:
            return KTypeFunction.build(
                self.parity, {}, self.tail_left + other.tail_left, self.tail_right + other.tail_right
            )
        lo, hi = min(ks), max(ks)
        vals = {k: self.value(k) + other.value(k) for k in range(lo, hi + 1, 2)}
        return KTypeFunction.build(
            self.parity, vals, self.tail_left + other.tail_left, self.tail_right + other.tail_right
        )

    def convolve(self, other: "KTypeFunction") -> "KTypeFunction":
        """Convolution; the right factor must be finitely supported."""
        if not other.is_finite:
            raise ValueError("convolution requires a finitely supported right factor")
        parity = (self.parity + other.parity) % 2
        pts = other.support_points()
        if not pts:
            return KTypeFunction.zero(parity)
        total = sum(v for _, v in pts)
        if not self.values:
            const = self.tail_left * total
            return KTypeFunction.build(parity, {}, const, const)
        lo = self.values[0][0] + pts[0][0]
        hi = self.values[-1][0] + pts[-1][0]
        vals = {k: sum(gv * self.value(k - b) for b, gv in pts) for k in range(lo, hi + 1, 2)}
        return KTypeFunction.build(parity, vals, self.tail_left * total, self.tail_right * total)


def ktype_function(x: IrreducibleClass) -> KTypeFunction:
    """Multiplicity-one K-type indicator of the class."""
    if isinstance(x, FinDim):
        return KTypeFunction.build(x.m % 2, {k: 1 for k in range(-x.m, x.m + 1, 2)}, 0, 0)
    if isinstance(x, DiscreteSeries):
        parity = (x.l + 1) % 2
        if x.sign > 0:
            return KTypeFunction.build(parity, {x.l + 1: 1}, 0, 1)
        return KTypeFunction.build(parity, {-(x.l + 1): 1}, 1, 0)
    if isinstance(x, PrincipalIrr):
        return KTypeFunction.build(x.eps, {}, 1, 1)
    raise TypeError(f"not an irreducible class: {x!r}")


def module_ktype_function(x: VirtualModule) -> KTypeFunction:
    """K-type function of an effective combination whose classes share a parity class."""
    if x.is_zero:
        raise ValueError("undefined on zero module")
    if not x.is_effective:
        raise ValueError("K-type function requires nonnegative multiplicities")
    parts = [(ktype_function(c), n) for c, n in x.items()]
    parities = {f.parity for f, _ in parts}
    if len(parities) > 1:
        raise ValueError("classes live on different parity classes")
    out = KTypeFunction.zero(parities.pop())
    for f, n in parts:
        out = out + f.scale(n)
    return out


# --- asymptotic cones -------------------------------------------------------


class ASCone(Enum):
    """Asymptotic cone of the K-type support: {0}, a half-line, or the full line."""

    ZERO = (False, False)
    PLUS_HALF_LINE = (True, False)
    MINUS_HALF_LINE = (False, True)
    FULL_LINE = (True, True)

    def join(self, other: "ASCone") -> "ASCone":
        a, b = self.value
        c, d = other.value
        return ASCone((a or c, b or d))


def as_cone(x: IrreducibleClass) -> ASCone:
    """Closed form of ``ascone_from_ktypes(ktype_function(x))``; it skips
    building the m + 1 explicit K-types of V(m)."""
    if isinstance(x, FinDim):
        return ASCone.ZERO
    if isinstance(x, DiscreteSeries):
        return ASCone.PLUS_HALF_LINE if x.sign > 0 else ASCone.MINUS_HALF_LINE
    if isinstance(x, PrincipalIrr):
        return ASCone.FULL_LINE
    raise TypeError(f"not an irreducible class: {x!r}")


def ascone_from_ktypes(f: KTypeFunction) -> ASCone:
    """Asymptotic cone computed directly from a K-type support set.

    The support is unbounded in a direction exactly when the tail on that
    side is positive, which is what scaling the truncated support to zero
    detects.
    """
    if not any(v for _, v in f.values) and f.tail_left == 0 and f.tail_right == 0:
        raise ValueError("undefined on empty support")
    return ASCone((f.tail_right > 0, f.tail_left > 0))


def as_cone_module(x: VirtualModule) -> ASCone:
    """Join of the factors' asymptotic cones; undefined on the zero module."""
    if x.is_zero:
        raise ValueError("undefined on zero module")
    if not x.is_effective:
        raise ValueError("asymptotic cone requires nonnegative multiplicities")
    out = ASCone.ZERO
    for cls, _ in x.items():
        out = out.join(as_cone(cls))
    return out


# --- principal series isomorphism test --------------------------------------


def principal_iso_equal(lam: Fraction, eps: int, lam2: Fraction, eps2: int) -> bool:
    """Isomorphism test for two irreducible principal series parameters.

    The parameter is determined up to sign; the parity class is an invariant.
    """
    return PrincipalIrr(lam, eps) == PrincipalIrr(lam2, eps2)
