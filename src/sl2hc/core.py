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
A larger exact coefficient field would need more than a new ``as_scalar`` /
``is_integer``: ``oracle._diagonals``, ``eigenvalue_candidates`` and
``ps_tensor`` read a scalar's ``numerator`` and ``denominator``, and
``reduce_to_base`` takes its ``math.floor``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
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
    the same class and equal fields; the hash is that of the field tuple.
    The repr is ``Name(field=value, ...)``, and pickling rebuilds through
    the constructor.
    """

    __slots__ = ()
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
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._key(self)


def _is_int(n) -> bool:
    """The one integer rule of the package: an int, and a bool is not one."""
    return isinstance(n, int) and not isinstance(n, bool)


_INT = "-?[0-9]+"  # the numeral of every text reader: no '+', '_', '.', 'e' or non-ASCII digit
_RATIONAL = _INT + "(?:/[0-9]+)?"


def parse_int(text: str) -> int:
    """The int of an integer numeral, blanks around it stripped."""
    if not re.fullmatch(_INT, text.strip()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def as_scalar(value: int | str | Fraction) -> Fraction:
    """Coerce to an exact rational; accepts ints, Fractions and 'p' or 'p/q' numerals."""
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if re.fullmatch(_RATIONAL, value.strip()):
                return Fraction(value)
        except ZeroDivisionError:
            pass
        raise ValueError(f"cannot parse rational {value!r}")
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def is_integer(x: Fraction) -> bool:
    return x.denominator == 1


def format_scalar(x: Fraction) -> str:
    return str(x)


def check_parity(eps: int) -> int:
    """``eps`` must be the int 0 or 1 (a bool is not one)."""
    if not _is_int(eps) or eps not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {eps!r}")
    return eps


def check_highest_weight(m: int) -> int:
    """``m`` must be a nonnegative int (a bool is not one)."""
    if not _is_int(m) or m < 0:
        raise ValueError(f"highest weight must be a nonnegative integer, got {m!r}")
    return m


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
        check_highest_weight(self.m)


class DiscreteSeries(Record):
    """Discrete series D+(l) / D-(l); l = 0 gives the limits of discrete series.

    ``sign=+1`` is the holomorphic family (K-types l+1, l+3, ...) and
    ``sign=-1`` the anti-holomorphic mirror.
    """

    __slots__ = ("sign", "l")

    def __post_init__(self) -> None:
        if not _is_int(self.sign) or self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not _is_int(self.l) or self.l < 0:
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


# --- K-weight ladders ---------------------------------------------------------


def _weight_range(lo: int, hi: int, parity: int) -> range:
    """The weights k = parity (mod 2) of the window [lo, hi], ascending."""
    return range(lo + (lo - parity) % 2, hi + 1, 2)


class Ladder(Record):
    """The K-weight ladder of I(lam, eps), cut to the window lo <= k <= hi.

    On the basis {w_k : k = eps mod 2} the compact-picture action

        H'.w_k = k w_k,   E'.w_k = (lam+k+1)/2 w_{k+2},   F'.w_k = (lam-k+1)/2 w_{k-2}

    realizes a principal series for any rational lam.  A bound of ``None``
    leaves that side open; any other bound is a weight where the coefficient
    leaving the window vanishes (``f_coeff(lo) == 0``, i.e. lam = lo - 1;
    ``e_coeff(hi) == 0``, i.e. lam = -hi - 1), so the window is a submodule.
    ``ladder`` gives the window of each class kind.
    """

    __slots__ = ("lam", "eps", "lo", "hi")

    def __post_init__(self) -> None:
        _setattr(self, "lam", as_scalar(self.lam))
        check_parity(self.eps)
        for bound, sign in ((self.lo, 1), (self.hi, -1)):
            if bound is not None and not _is_int(bound):
                raise ValueError(f"a ladder bound must be an int or None, got {bound!r}")
            if bound is not None and ((bound - self.eps) % 2 or self.lam != sign * bound - 1):
                raise ValueError(f"a ladder bound must be a zero of the coefficient leaving it: {self!r}")

    def has_weight(self, k: Scalar) -> bool:
        lo, hi = self.lo, self.hi
        return (k - self.eps) % 2 == 0 and (lo is None or lo <= k) and (hi is None or k <= hi)

    def e_coeff(self, k: int) -> Fraction:
        return (self.lam + k + 1) / 2

    def f_coeff(self, k: int) -> Fraction:
        return (self.lam - k + 1) / 2


# --- the three class kinds -------------------------------------------------


class _Kind(Record):
    """The entry of one class kind, the one place where V(m), D+-(l) and
    I(lam, eps) are told apart.  ``window`` gives the ladder window
    (lam, eps, lo, hi), whose |lam| is the infinitesimal character.
    ``sort_key`` orders storage, and ``family`` the kinds at one character for
    display.  ``parse`` builds a class from the groups of ``pattern``, the
    grammar of ``text``.  ``tensor`` gives the composition factors of the
    product with V(m)."""

    __slots__ = ("window", "sort_key", "family", "text", "pattern", "parse", "tensor")


def _tensor_module():
    """The ``tensor`` module, which imports this one, at first use."""
    from . import tensor

    return tensor


_KINDS = {
    FinDim: _Kind(
        window=lambda x: (-(x.m + 1), x.m % 2, -x.m, x.m),
        sort_key=lambda x: (0, Fraction(x.m), 0),
        family=1,
        text=lambda x: f"V({x.m})",
        pattern=re.compile(r"V\(([0-9]+)\)"),
        parse=lambda m: FinDim(int(m)),
        tensor=lambda x, m: _tensor_module().clebsch_gordan(x.m, m),
    ),
    DiscreteSeries: _Kind(
        window=lambda x: (x.l, (x.l + 1) % 2) + ((x.l + 1, None) if x.sign > 0 else (None, -x.l - 1)),
        sort_key=lambda x: (1, Fraction(x.l), 0 if x.sign > 0 else 1),
        family=0,
        text=lambda x: f"D{'+' if x.sign > 0 else '-'}({x.l})",
        pattern=re.compile(r"D([+-])\(([0-9]+)\)"),
        parse=lambda sign, l: DiscreteSeries(1 if sign == "+" else -1, int(l)),
        tensor=lambda x, m: _tensor_module().ds_tensor(x.sign, x.l, m),
    ),
    PrincipalIrr: _Kind(
        window=lambda x: (x.lam, x.eps, None, None),
        sort_key=lambda x: (2, x.lam, x.eps),
        family=2,
        text=lambda x: f"I({format_scalar(x.lam)},{x.eps})",
        pattern=re.compile(rf"I\(({_RATIONAL}),\s*([0-9]+)\)"),
        parse=lambda lam, eps: PrincipalIrr(as_scalar(lam), int(eps)),
        tensor=lambda x, m: _tensor_module().decomposition_semisimplification(
            _tensor_module().ps_tensor(x.lam, x.eps, m)
        ),
    ),
}


def _kind(x: IrreducibleClass) -> _Kind:
    """The entry of the class's kind; anything else is refused here."""
    if type(x) in _KINDS:
        return _KINDS[type(x)]
    raise TypeError(f"not an irreducible class: {x!r}")


def ladder(x: IrreducibleClass) -> Ladder:
    """The ladder window realizing an irreducible class."""
    return Ladder(*_kind(x).window(x))


def class_sort_key(x: IrreducibleClass) -> tuple:
    """Total order used for canonical storage of class combinations."""
    return _kind(x).sort_key(x)


def display_sort_key(x: IrreducibleClass) -> tuple:
    """Display order: descending infinitesimal character, then D+, D-, V, I."""
    kind = _kind(x)
    return (-abs(kind.window(x)[0]), kind.family) + kind.sort_key(x)


def format_class(x: IrreducibleClass) -> str:
    return _kind(x).text(x)


def parse_class(text: str) -> IrreducibleClass:
    """Parse the canonical grammar V(m) | D+(l) | D-(l) | I(lam,eps)."""
    s = text.strip()
    for kind in _KINDS.values():
        match = kind.pattern.fullmatch(s)
        if match:
            return kind.parse(*match.groups())
    raise ValueError(f"cannot parse class {text!r}")


# --- virtual modules -------------------------------------------------------


class VirtualModule(Record):
    """Integer combination of irreducible classes (free abelian group element).

    Honest modules are the combinations with nonnegative multiplicities;
    signed combinations arise from cancellation formulas.  Built from a
    module, a mapping or (class, mult) pairs, summed per class.
    """

    __slots__ = ("_entries",)
    _defaults = {"_entries": ()}

    def __post_init__(self) -> None:
        items = self._entries
        if isinstance(items, (VirtualModule, Mapping)):
            items = items.items()
        acc: dict = {}
        for cls, mult in items:
            class_sort_key(cls)  # type check
            if not _is_int(mult):
                raise TypeError(f"multiplicity must be an int, got {mult!r}")
            acc[cls] = acc.get(cls, 0) + mult
        entries = [(c, n) for c, n in acc.items() if n]
        entries.sort(key=lambda cn: class_sort_key(cn[0]))
        _setattr(self, "_entries", tuple(entries))

    @classmethod
    def zero(cls) -> "VirtualModule":
        return cls()

    @classmethod
    def of(cls, *classes: IrreducibleClass) -> "VirtualModule":
        return cls([(c, 1) for c in classes])

    def items(self) -> tuple:
        return self._entries

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
        if not _is_int(n):
            return NotImplemented
        return VirtualModule([(c, n * m) for c, m in self._entries])

    def __bool__(self) -> bool:
        return bool(self._entries)

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
    return InfChar(abs(_kind(x).window(x)[0]))


def casimir_value(x: IrreducibleClass) -> Fraction:
    """Casimir eigenvalue: the square of the infinitesimal character."""
    return inf_char(x).casimir


# --- K-type multiplicity functions ------------------------------------------


class KTypeFunction(Record):
    """Exact K-multiplicity function on one parity class of weights.

    Stored as explicit values on a step-2 window plus two constant tails
    (the values for k -> -oo and k -> +oo along the parity class).  Weights,
    multiplicities and tails are ints; anything else, bools included, is
    refused.  The constructor trims the window to its canonical form: no
    leading entry equals ``tail_left`` and no trailing one ``tail_right``,
    except that a pure step between unequal tails keeps its first right-tail
    point.  So equality of the fields is equality of functions, whatever
    window the fields were given on.
    """

    __slots__ = ("parity", "tail_left", "tail_right", "values")  # values: ((k, mult), ...)

    def __post_init__(self) -> None:
        parity, left, right = check_parity(self.parity), self.tail_left, self.tail_right
        pts = tuple((k, v) for k, v in self.values)
        for n in (left, right, *(x for pt in pts for x in pt)):
            if not _is_int(n):
                raise ValueError(f"weights, multiplicities and tails must be ints, got {n!r}")
        if left < 0 or right < 0:
            raise ValueError("tail multiplicities must be nonnegative")
        for k, v in pts:
            if (k - parity) % 2 != 0:
                raise ValueError(f"weight {k} is off the parity class {parity}")
            if v < 0:
                raise ValueError("multiplicities must be nonnegative")
        if any(b - a != 2 for (a, _), (b, _) in zip(pts, pts[1:])):
            raise ValueError("window must be step-2 contiguous")
        if not pts and left != right:
            raise ValueError("empty window needs equal tails")
        # Trim the tail-valued ends.  A pure step between unequal tails keeps
        # its first right-tail point, which may be the one padded past the end.
        if pts:
            pts += ((pts[-1][0] + 2, right),)
        first = next((i for i, (_, v) in enumerate(pts) if v != left), len(pts))
        last = max((i for i, (_, v) in enumerate(pts) if v != right), default=-1)
        if left != right:
            last = max(last, first)
        _setattr(self, "values", pts[first : last + 1])

    @staticmethod
    def build(parity: int, values: Mapping[int, int], tail_left: int, tail_right: int) -> "KTypeFunction":
        """The function with these values, 0 in the window's gaps and these tails."""
        pts = dict(values)
        lo = min(pts, default=0)
        for i in range(1, int((max(pts, default=lo) - lo) // 2)):
            pts.setdefault(lo + 2 * i, 0)
        return KTypeFunction(parity, tail_left, tail_right, sorted(pts.items()))

    @staticmethod
    def zero(parity: int) -> "KTypeFunction":
        return KTypeFunction(parity, 0, 0, ())

    def value(self, k: int) -> int:
        if (k - self.parity) % 2 != 0:
            return 0
        if not self.values or k < self.values[0][0]:
            return self.tail_left
        if k > self.values[-1][0]:
            return self.tail_right
        return self.values[(k - self.values[0][0]) // 2][1]

    def table(self, lo: int, hi: int) -> dict:
        """Explicit values on the window [lo, hi] (parity-class points only)."""
        if lo > hi:
            raise ValueError("window must be nonempty")
        return {k: self.value(k) for k in _weight_range(lo, hi, self.parity)}

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
        return KTypeFunction(
            self.parity, n * self.tail_left, n * self.tail_right, [(k, n * v) for k, v in self.values]
        )

    def __add__(self, other: "KTypeFunction") -> "KTypeFunction":
        if not isinstance(other, KTypeFunction):
            return NotImplemented
        if self.parity != other.parity:
            raise ValueError("cannot add K-type functions on different parity classes")
        ks = [k for k, _ in self.values + other.values]
        window = range(min(ks), max(ks) + 1, 2) if ks else ()
        return KTypeFunction(
            self.parity,
            self.tail_left + other.tail_left,
            self.tail_right + other.tail_right,
            [(k, self.value(k) + other.value(k)) for k in window],
        )

    def convolve(self, other: "KTypeFunction") -> "KTypeFunction":
        """Convolution; the right factor must be finitely supported."""
        if not other.is_finite:
            raise ValueError("convolution requires a finitely supported right factor")
        pts = other.support_points()
        total = sum(v for _, v in pts)
        ks = [k for k, _ in self.values]
        window = range(ks[0] + pts[0][0], ks[-1] + pts[-1][0] + 1, 2) if ks and pts else ()
        vals = [(k, sum(gv * self.value(k - b) for b, gv in pts)) for k in window]
        return KTypeFunction(
            (self.parity + other.parity) % 2, self.tail_left * total, self.tail_right * total, vals
        )


def ktype_function(x: IrreducibleClass) -> KTypeFunction:
    """Multiplicity-one K-type indicator of the class: its ladder window."""
    w = ladder(x)
    ends = [k for k in (w.lo, w.hi) if k is not None]
    values = {k: 1 for k in range(ends[0], ends[-1] + 1, 2)} if ends else {}
    return KTypeFunction.build(w.eps, values, int(w.lo is None), int(w.hi is None))


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
    """Asymptotic cone of the K-type support, read off the ladder's open sides;
    the tests check it against the tails of ``ktype_function(x)``."""
    _, _, lo, hi = _kind(x).window(x)
    return ASCone((hi is None, lo is None))


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
