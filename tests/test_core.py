import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from sl2hc.core import (
    ASCone,
    DiscreteSeries,
    FinDim,
    InfChar,
    KTypeFunction,
    PrincipalIrr,
    VirtualModule,
    as_cone,
    as_cone_module,
    as_scalar,
    casimir_value,
    format_class,
    format_scalar,
    format_virtual_module,
    inf_char,
    is_integer,
    ktype_function,
    module_ktype_function,
    parse_class,
    parse_int,
    principal_is_irreducible,
    principal_iso_equal,
)
from sl2hc.tensor import ps_tensor, tensor_with_finite


def test_as_scalar_accepts_ints_strings_fractions():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar("1/2") == Fraction(1, 2)
    assert as_scalar("-7/3") == Fraction(-7, 3)
    assert as_scalar(Fraction(5, 2)) == Fraction(5, 2)
    with pytest.raises(ValueError):
        as_scalar("one half")
    with pytest.raises((TypeError, ValueError)):
        as_scalar(0.5)
    assert as_scalar(" -7/3 ") == Fraction(-7, 3)


@pytest.mark.parametrize("text", ["0.5", "1e3", "+1", "1/+2", "1_0", "\u0663", "1/\u0663", "1/0", "1/", "/2", ""])
def test_as_scalar_reads_only_ascii_numerals(text):
    with pytest.raises(ValueError, match="cannot parse rational"):
        as_scalar(text)


def test_parse_int_and_class_tokens_read_only_ascii_numerals():
    assert parse_int(" -12 ") == -12
    for text in ("+1", "1_0", "\u0663", "1.0", "1e3", "", "-"):
        with pytest.raises(ValueError, match="invalid int value"):
            parse_int(text)
    assert parse_class("I(-7/3, 1)") == PrincipalIrr(Fraction(-7, 3), 1)
    for text in ("V(\u0663)", "D-(1_0)", "I(0.5,0)", "I(+1,0)", "I(1,\u0660)", "V(+2)"):
        with pytest.raises(ValueError, match="cannot parse class"):
            parse_class(text)


def test_a_bool_is_not_an_int_anywhere():
    """One int rule: a bool is refused as a scalar as it is as a highest weight."""
    with pytest.raises(ValueError):
        FinDim(True)
    for build in (
        lambda: as_scalar(True),
        lambda: PrincipalIrr(True, 1),
        lambda: InfChar(True),
        lambda: ps_tensor(True, 1, 1),
    ):
        with pytest.raises(TypeError, match="cannot interpret True as an exact scalar"):
            build()
    with pytest.raises(TypeError):
        True * VirtualModule.of(FinDim(1))


def test_is_integer():
    assert is_integer(Fraction(4))
    assert is_integer(Fraction(-6, 3))
    assert not is_integer(Fraction(1, 2))


def test_principal_irreducibility_predicate():
    # reducible exactly at integer parameter with mismatched parity
    assert principal_is_irreducible(Fraction(1, 2), 0)
    assert principal_is_irreducible(Fraction(2), 0)
    assert not principal_is_irreducible(Fraction(2), 1)
    assert not principal_is_irreducible(Fraction(0), 1)
    assert principal_is_irreducible(Fraction(0), 0)
    assert principal_is_irreducible(Fraction(-3), 1)
    assert not principal_is_irreducible(Fraction(-3), 0)


def test_principal_irr_canonicalizes_parameter_sign():
    assert PrincipalIrr(Fraction(-5, 2), 0) == PrincipalIrr(Fraction(5, 2), 0)
    assert PrincipalIrr(Fraction(-3), 1).lam == Fraction(3)


def test_principal_irr_rejects_reducible_parameters():
    with pytest.raises(ValueError, match="reducible"):
        PrincipalIrr(Fraction(2), 1)


def test_class_validation():
    with pytest.raises(ValueError):
        FinDim(-1)
    with pytest.raises(ValueError):
        DiscreteSeries(0, 1)
    with pytest.raises(ValueError):
        DiscreteSeries(1, -1)


def test_format_and_parse_round_trip():
    classes = [
        FinDim(0),
        FinDim(12),
        DiscreteSeries(1, 0),
        DiscreteSeries(-1, 5),
        PrincipalIrr(Fraction(1, 2), 0),
        PrincipalIrr(Fraction(7, 3), 1),
        PrincipalIrr(Fraction(2), 0),
    ]
    for c in classes:
        assert parse_class(format_class(c)) == c
    assert format_class(DiscreteSeries(1, 0)) == "D+(0)"
    assert format_class(PrincipalIrr(Fraction(1, 2), 0)) == "I(1/2,0)"


def test_parse_class_rejects_bad_text():
    for text in ["V(-1)", "I(2,1)", "X(1)", "D(3)", "I(1/2)", "V(1.5)", ""]:
        with pytest.raises(ValueError):
            parse_class(text)


def test_principal_iso_equal_is_sign_identification():
    assert principal_iso_equal(Fraction(1, 2), 0, Fraction(-1, 2), 0)
    assert not principal_iso_equal(Fraction(1, 2), 0, Fraction(1, 2), 1)
    assert not principal_iso_equal(Fraction(1, 2), 0, Fraction(3, 2), 0)
    with pytest.raises(ValueError):
        principal_iso_equal(Fraction(2), 1, Fraction(2), 1)


def test_inf_char_and_casimir():
    assert inf_char(FinDim(3)) == InfChar(Fraction(4))
    assert inf_char(DiscreteSeries(1, 0)) == InfChar(Fraction(0))
    assert inf_char(PrincipalIrr(Fraction(-5, 2), 1)) == InfChar(Fraction(5, 2))
    assert casimir_value(FinDim(3)) == Fraction(16)
    assert casimir_value(PrincipalIrr(Fraction(1, 2), 0)) == Fraction(1, 4)
    assert InfChar(Fraction(1)) < InfChar(Fraction(3, 2))


def test_virtual_module_algebra():
    a = VirtualModule.of(FinDim(2), FinDim(0))
    b = VirtualModule.of(FinDim(2))
    assert (a - b) == VirtualModule.of(FinDim(0))
    assert (a + (-a)).is_zero
    assert 2 * b == b + b
    assert a.multiplicity(FinDim(2)) == 1
    assert a.multiplicity(FinDim(7)) == 0
    assert a.dimension() == 4
    assert not (a - 2 * b).is_effective
    assert bool(a) and not bool(VirtualModule.zero())


def test_dimension_rejects_infinite_classes():
    with pytest.raises(ValueError):
        VirtualModule.of(DiscreteSeries(1, 1)).dimension()


def test_display_order_of_formatting():
    x = VirtualModule([(FinDim(0), 1), (DiscreteSeries(1, 1), 2), (DiscreteSeries(1, 3), 1)])
    assert format_virtual_module(x) == "D+(3) + 2*D+(1) + V(0)"
    assert format_virtual_module(VirtualModule.zero()) == "0"
    # a multiplicity of -1 is a bare minus sign
    x = VirtualModule([(FinDim(2), 1), (FinDim(0), -1), (DiscreteSeries(1, 1), -2)])
    assert format_virtual_module(x) == "V(2) + -2*D+(1) + -V(0)"


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=8), st.integers(min_value=-3, max_value=3)),
        max_size=6,
    )
)
def test_virtual_module_canonical_equality(pairs):
    x = VirtualModule([(FinDim(m), n) for m, n in pairs])
    y = VirtualModule.zero()
    for m, n in pairs:
        y = y + n * VirtualModule.of(FinDim(m))
    assert x == y
    assert hash(x) == hash(y)
    assert x - x == VirtualModule.zero()


def test_ktype_functions_of_classes():
    v = ktype_function(FinDim(2))
    assert v.table(-4, 4) == {-4: 0, -2: 1, 0: 1, 2: 1, 4: 0}
    d = ktype_function(DiscreteSeries(1, 1))
    assert d.table(-2, 6) == {-2: 0, 0: 0, 2: 1, 4: 1, 6: 1}
    assert d.tail_right == 1 and d.tail_left == 0
    dm = ktype_function(DiscreteSeries(-1, 2))
    assert dm.value(-3) == 1 and dm.value(3) == 0 and dm.value(-101) == 1
    i = ktype_function(PrincipalIrr(Fraction(1, 2), 0))
    assert i.tail_left == i.tail_right == 1
    assert i.value(100) == 1 and i.value(0) == 1 and i.value(1) == 0


def test_ktype_build_is_canonical():
    # explicitly listing tail-valued points must not change the value
    a = KTypeFunction.build(0, {0: 0, 2: 1, 4: 1}, 0, 1)
    b = ktype_function(DiscreteSeries(1, 1))
    assert a == b
    c = KTypeFunction.build(1, {-5: 1, -3: 1, -1: 1, 1: 1, 3: 1}, 1, 1)
    assert c == ktype_function(PrincipalIrr(Fraction(1), 1))


def test_ktype_build_rejects_bad_input():
    with pytest.raises(ValueError):
        KTypeFunction.build(0, {0: -1}, 0, 0)
    with pytest.raises(ValueError):
        KTypeFunction.build(0, {1: 1}, 0, 0)  # parity mismatch
    with pytest.raises(ValueError):
        KTypeFunction.build(2, {}, 0, 0)
    # weights, multiplicities and tails are ints, in build and the constructor alike
    for parity, values, tail_left, tail_right in [
        (0, {Fraction(1, 2): 1}, 0, 0),
        (0, {Fraction(2): 1}, 0, 0),
        (0, {0: 1.5}, 0, 0),
        (0, {0: 1.0}, 0, 0),
        (0, {0: 1}, 0, 1.0),
        (0, {}, 1.0, 1.0),
        (0, {0: True}, 0, 0),
        (1, {True: 1}, 0, 0),
        (0, {0: 1}, False, 0),
    ]:
        with pytest.raises(ValueError):
            KTypeFunction.build(parity, values, tail_left, tail_right)
        with pytest.raises(ValueError):
            KTypeFunction(parity, tail_left, tail_right, tuple(values.items()))


@st.composite
def _ktype_data(draw, parity=None):
    """Constructor fields (parity, tail_left, tail_right, [(k, mult), ...])."""
    if parity is None:
        parity = draw(st.sampled_from((0, 1)))
    tail_left, tail_right = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    mults = draw(st.lists(st.integers(0, 2), min_size=int(tail_left != tail_right), max_size=6))
    start = parity + 2 * draw(st.integers(-3, 3))
    return parity, tail_left, tail_right, [(start + 2 * i, v) for i, v in enumerate(mults)]


@st.composite
def _ktype_pairs(draw):
    """Two K-type functions on one parity class; often one function written twice."""
    first = draw(_ktype_data())
    parity, tail_left, tail_right, pts = first
    if not draw(st.booleans()):
        return first, draw(_ktype_data(parity))
    lo = pts[0][0] if pts else parity
    left, right = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    padded = (
        [(lo - 2 * i, tail_left) for i in range(left, 0, -1)]
        + pts
        + [(lo + 2 * (len(pts) + i), tail_right) for i in range(right)]
    )
    return first, (parity, tail_left, tail_right, padded)


@given(_ktype_pairs())
@example(((0, 0, 0, ((0, 0),)), (0, 0, 0, ())))
@example(((0, 0, 0, [(0, 1)]), (0, 0, 0, [(-2, 0), (0, 1), (2, 0)])))
@example(((1, 1, 0, [(-1, 0)]), (1, 1, 0, [(-3, 1), (-1, 0), (1, 0)])))
def test_ktype_constructor_and_build_agree(pair):
    fs = []
    for parity, tail_left, tail_right, pts in pair:
        f = KTypeFunction(parity, tail_left, tail_right, pts)
        g = KTypeFunction.build(parity, dict(pts), tail_left, tail_right)
        assert f == g and hash(f) == hash(g)
        fs.append(f)
    f, g = fs
    ks = [k for *_, pts in pair for k, _ in pts] or [f.parity]
    lo, hi = min(ks) - 2, max(ks) + 2
    for other in (g, KTypeFunction.zero(f.parity)):
        assert (f == other) == (f.table(lo, hi) == other.table(lo, hi))


def test_ktype_add_and_scale():
    v0 = ktype_function(FinDim(0))
    v2 = ktype_function(FinDim(2))
    s = v0 + v2
    assert s.table(-2, 2) == {-2: 1, 0: 2, 2: 1}
    assert v0.scale(3).value(0) == 3
    with pytest.raises(ValueError):
        v0 + ktype_function(FinDim(1))


def test_ktype_convolution_matches_module_sum():
    f = ktype_function(DiscreteSeries(1, 0)).convolve(ktype_function(FinDim(1)))
    assert f.table(-4, 4) == {-4: 0, -2: 0, 0: 1, 2: 2, 4: 2}
    assert f.tail_right == 2 and f.tail_left == 0
    with pytest.raises(ValueError):
        ktype_function(FinDim(1)).convolve(ktype_function(DiscreteSeries(1, 0)))


@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_ktype_convolution_total_is_multiplicative(m1, m2):
    f = ktype_function(FinDim(m1)).convolve(ktype_function(FinDim(m2)))
    assert f.total() == (m1 + 1) * (m2 + 1)


def _ktype_digest_classes():
    yield from (FinDim(m) for m in range(9))
    yield from (DiscreteSeries(sign, l) for sign in (1, -1) for l in range(9))
    for q in (1, 2, 3, 5):
        for p in range(-12, 13):
            for eps in (0, 1):
                if principal_is_irreducible(Fraction(p, q), eps):
                    yield PrincipalIrr(Fraction(p, q), eps)


# sha256 over the reprs, one a line, of ktype_function(x), its convolution with
# V(m), its scale by m, module_ktype_function(tensor_with_finite(x, m)) and the
# sum of those two, for m <= 4; then of f + g for every pair of classes on one
# parity class; recorded from the KTypeFunction whose build trimmed the window
KTYPE_SHA256 = "6bd59c94889b9896fdf4ab306752e157c68b82c43e91e2b82e4d33fd31cd2f9a"


def test_ktype_function_reprs_are_pinned():
    digest = hashlib.sha256()
    classes = list(_ktype_digest_classes())
    fs = [ktype_function(x) for x in classes]
    for x, f in zip(classes, fs):
        for m in range(5):
            g = f.convolve(ktype_function(FinDim(m)))
            h = module_ktype_function(tensor_with_finite(x, m))
            for r in (f, g, f.scale(m), h, g + h):
                digest.update(f"{r!r}\n".encode("ascii"))
    for i, f in enumerate(fs):
        for g in fs[i:]:
            if f.parity == g.parity:
                digest.update(f"{f + g!r}\n".encode("ascii"))
    assert digest.hexdigest() == KTYPE_SHA256


def test_module_ktype_function():
    x = VirtualModule([(DiscreteSeries(1, 1), 2), (FinDim(0), 1)])
    f = module_ktype_function(x)
    assert f.table(-2, 4) == {-2: 0, 0: 1, 2: 2, 4: 2}
    with pytest.raises(ValueError):
        module_ktype_function(VirtualModule.zero())
    with pytest.raises(ValueError):
        module_ktype_function(VirtualModule.of(FinDim(0), FinDim(1)))


def test_as_cone_values_and_join():
    assert as_cone(FinDim(5)) is ASCone.ZERO
    assert as_cone(DiscreteSeries(1, 0)) is ASCone.PLUS_HALF_LINE
    assert as_cone(DiscreteSeries(-1, 4)) is ASCone.MINUS_HALF_LINE
    assert as_cone(PrincipalIrr(Fraction(1, 3), 1)) is ASCone.FULL_LINE
    assert ASCone.PLUS_HALF_LINE.join(ASCone.MINUS_HALF_LINE) is ASCone.FULL_LINE
    assert ASCone.ZERO.join(ASCone.PLUS_HALF_LINE) is ASCone.PLUS_HALF_LINE


def ascone_from_ktypes(f: KTypeFunction) -> ASCone:
    """Asymptotic cone computed directly from a K-type support set, the
    definition ``as_cone`` is checked against.

    The support is unbounded in a direction exactly when the tail on that
    side is positive, which is what scaling the truncated support to zero
    detects.
    """
    if f == KTypeFunction.zero(f.parity):
        raise ValueError("undefined on empty support")
    return ASCone((f.tail_right > 0, f.tail_left > 0))


def test_as_cone_module_and_ktype_agreement():
    window = [FinDim(2), DiscreteSeries(1, 1), DiscreteSeries(-1, 0), PrincipalIrr(Fraction(1, 2), 1)]
    for c in window:
        assert ascone_from_ktypes(ktype_function(c)) is as_cone(c)
    x = VirtualModule.of(DiscreteSeries(1, 1), FinDim(3))
    assert as_cone_module(x) is ASCone.PLUS_HALF_LINE
    with pytest.raises(ValueError):
        as_cone_module(VirtualModule.zero())


# Every refusal of the class and K-type layer, by its exact message: a call
# whose check is deleted returns, or stops at a later check with another one.
REFUSALS = [
    (lambda: InfChar(-1), ValueError, "canonical representative must be nonnegative"),
    (lambda: InfChar(1) < 1, TypeError, "'<' not supported between instances of 'InfChar' and 'int'"),
    (lambda: KTypeFunction(0, -1, -1, ()), ValueError, "tail multiplicities must be nonnegative"),
    (lambda: KTypeFunction(0, 0, 0, ((0, 1), (4, 1))), ValueError, "window must be step-2 contiguous"),
    (lambda: KTypeFunction(0, 0, 1, ()), ValueError, "empty window needs equal tails"),
    (lambda: ktype_function(FinDim(2)).table(2, 0), ValueError, "window must be nonempty"),
    (
        lambda: ktype_function(DiscreteSeries(1, 0)).total(),
        ValueError,
        "total multiplicity is defined for finitely supported functions",
    ),
    (
        lambda: ktype_function(DiscreteSeries(-1, 0)).support_points(),
        ValueError,
        "explicit support requires a finitely supported function",
    ),
    (lambda: ktype_function(FinDim(0)).scale(-1), ValueError, "multiplicities must stay nonnegative"),
    (
        lambda: ktype_function(FinDim(0)) + 1,
        TypeError,
        "unsupported operand type(s) for +: 'KTypeFunction' and 'int'",
    ),
    (
        lambda: module_ktype_function(VirtualModule([(FinDim(0), -1)])),
        ValueError,
        "K-type function requires nonnegative multiplicities",
    ),
    (lambda: ascone_from_ktypes(KTypeFunction.zero(1)), ValueError, "undefined on empty support"),
    (
        lambda: as_cone_module(VirtualModule([(FinDim(0), 1), (FinDim(2), -1)])),
        ValueError,
        "asymptotic cone requires nonnegative multiplicities",
    ),
]


@pytest.mark.parametrize("call, error, message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_each_refusal_gives_its_own_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_format_scalar():
    assert format_scalar(Fraction(1, 2)) == "1/2"
    assert format_scalar(Fraction(-4, 2)) == "-2"
