import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2hc.core import (
    DiscreteSeries,
    FinDim,
    InfChar,
    KTypeFunction,
    PrincipalIrr,
    VirtualModule,
    casimir_value,
    format_virtual_module,
    ktype_function,
    module_ktype_function,
)
from sl2hc.tensor import (
    Irr,
    LengthTwo,
    PsIrreducible,
    PsNegativeInt,
    PsPositiveInt,
    PsSplitLimit,
    ReducibleSeries,
    SeriesStructure,
    block_parameter,
    clebsch_gordan,
    decomposition_semisimplification,
    decomposition_to_dict,
    ds_tensor,
    format_summand,
    grothendieck_tensor,
    ktype_conservation_holds,
    primary_split,
    ps_structure,
    ps_tensor,
    series_semisimplification,
    summand_semisimplification,
    tensor_with_finite,
    weyl_signed_tensor,
)


def V(m):
    return FinDim(m)


def Dp(l):
    return DiscreteSeries(1, l)


def Dm(l):
    return DiscreteSeries(-1, l)


def I(lam, eps):
    return PrincipalIrr(Fraction(lam), eps)


# --- composition series ---------------------------------------------------------


def test_ps_structure_variants():
    assert ps_structure(0, 1) == PsSplitLimit(Dp(0), Dm(0))
    assert ps_structure(0, 0) == PsIrreducible(I(0, 0))
    assert ps_structure(Fraction(1, 2), 0) == PsIrreducible(I(Fraction(1, 2), 0))
    assert ps_structure(2, 1) == PsPositiveInt(Dp(2), Dm(2), V(1))
    assert ps_structure(5, 0) == PsPositiveInt(Dp(5), Dm(5), V(4))
    assert ps_structure(-2, 1) == PsNegativeInt(V(1), Dp(2), Dm(2))
    assert ps_structure(3, 1) == PsIrreducible(I(3, 1))


def test_series_semisimplification():
    assert series_semisimplification(0, 1) == VirtualModule.of(Dp(0), Dm(0))
    assert series_semisimplification(3, 0) == VirtualModule.of(Dp(3), Dm(3), V(2))
    assert series_semisimplification(-3, 0) == series_semisimplification(3, 0)
    assert series_semisimplification(Fraction(1, 2), 0) == VirtualModule.of(I(Fraction(1, 2), 0))


def test_reducible_series_validation():
    assert ReducibleSeries(Fraction(-1), 0).lam == Fraction(-1)  # sign is kept
    with pytest.raises(ValueError):
        ReducibleSeries(Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        ReducibleSeries(Fraction(2), 0)


# --- finite-dimensional tensor products -----------------------------------------


def test_clebsch_gordan_values():
    assert clebsch_gordan(1, 1) == VirtualModule.of(V(2), V(0))
    assert clebsch_gordan(2, 3) == VirtualModule.of(V(5), V(3), V(1))
    assert clebsch_gordan(0, 4) == VirtualModule.of(V(4))
    assert clebsch_gordan(3, 3).multiplicity(V(0)) == 1


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_weyl_signed_formula_agrees_with_clebsch_gordan(m1, m2):
    assert weyl_signed_tensor(m1, m2) == clebsch_gordan(m1, m2)


@given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9))
def test_clebsch_gordan_dimension_identity(m1, m2):
    assert clebsch_gordan(m1, m2).dimension() == (m1 + 1) * (m2 + 1)


# --- principal series tensor products -------------------------------------------


def test_ps_tensor_generic_parameter():
    assert ps_tensor(Fraction(1, 2), 0, 1) == [
        Irr(I(Fraction(3, 2), 1)),
        Irr(I(Fraction(1, 2), 1)),
    ]


def test_ps_tensor_merges_paired_factors():
    summands = ps_tensor(0, 0, 1)
    assert summands == [LengthTwo(I(1, 1), I(1, 1))]
    assert format_summand(summands[0]) == "[I(1,1) | I(1,1)]"


def test_ps_tensor_integer_parameter_inside_bound():
    summands = ps_tensor(1, 1, 2)
    assert summands == [Irr(I(3, 1)), LengthTwo(I(1, 1), I(1, 1))]
    semi = decomposition_semisimplification(summands)
    assert semi == VirtualModule([(I(3, 1), 1), (I(1, 1), 2)])


def test_ps_tensor_integer_parameter_outside_bound():
    # lam = 3 > m - 1 = 1: no pairing is possible
    assert ps_tensor(3, 1, 1) == [Irr(I(4, 0)), Irr(I(2, 0))]


def test_ps_tensor_reducible_input_keeps_signed_blocks():
    summands = ps_tensor(2, 1, 3)
    assert summands == [
        Irr(ReducibleSeries(Fraction(5), 0)),
        Irr(ReducibleSeries(Fraction(3), 0)),
        LengthTwo(ReducibleSeries(Fraction(1), 0), ReducibleSeries(Fraction(-1), 0)),
    ]
    pair = summands[-1]
    assert block_parameter(pair.sub) == Fraction(1)
    assert block_parameter(pair.quot) == Fraction(-1)
    semi = decomposition_semisimplification(summands)
    expected = (
        series_semisimplification(5, 0)
        + series_semisimplification(3, 0)
        + 2 * series_semisimplification(1, 0)
    )
    assert semi == expected


def test_length_two_requires_matching_casimir():
    with pytest.raises(ValueError):
        LengthTwo(I(1, 1), I(3, 1))


@given(
    st.one_of(
        st.integers(min_value=-4, max_value=4).map(Fraction),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    ),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=5),
)
@settings(max_examples=120)
def test_ps_tensor_casimir_multiplicity_profile(lam, eps, m):
    """Each Casimir value appears with multiplicity #{j : (lam+m-2j)^2 = value}."""
    want = {}
    for j in range(m + 1):
        s = lam + m - 2 * j
        want[s * s] = want.get(s * s, 0) + 1
    got = {}
    for summand in ps_tensor(lam, eps, m):
        if isinstance(summand, Irr):
            value = block_parameter(summand.factor) ** 2
            got[value] = got.get(value, 0) + 1
        else:
            value = block_parameter(summand.sub) ** 2
            got[value] = got.get(value, 0) + 2
    assert got == want


@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=80)
def test_ps_tensor_ktype_conservation(lam, eps, m):
    base = series_semisimplification(lam, eps)
    product = decomposition_semisimplification(ps_tensor(lam, eps, m))
    assert ktype_conservation_holds(base, m, product)


# --- discrete series tensor products --------------------------------------------


def test_ds_tensor_frozen_values():
    assert ds_tensor(1, 5, 2) == VirtualModule.of(Dp(7), Dp(5), Dp(3))
    assert ds_tensor(1, 0, 0) == VirtualModule.of(Dp(0))
    assert ds_tensor(1, 1, 2) == VirtualModule([(Dp(3), 1), (Dp(1), 2), (V(0), 1)])
    assert ds_tensor(-1, 1, 2) == VirtualModule([(Dm(3), 1), (Dm(1), 2), (V(0), 1)])
    assert ds_tensor(1, 0, 1) == VirtualModule([(Dp(1), 2), (V(0), 1)])


def test_ds_tensor_literal_ladder_when_l_dominates():
    for l in range(7):
        for m in range(min(l, 6) + 1):
            expected = VirtualModule([(Dp(l + m - 2 * j), 1) for j in range(m + 1)])
            assert ds_tensor(1, l, m) == expected


@given(
    st.integers(min_value=-1, max_value=1).filter(lambda s: s != 0),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=100)
def test_ds_tensor_invariants(sign, l, m):
    product = ds_tensor(sign, l, m)
    assert product.is_effective
    # only the input's half-line family plus finite-dimensionals may appear
    for cls, _ in product.items():
        assert isinstance(cls, (FinDim, DiscreteSeries))
        if isinstance(cls, DiscreteSeries):
            assert cls.sign == sign
        assert casimir_value(cls) in {Fraction((l + m - 2 * j) ** 2) for j in range(m + 1)}
    lhs = module_ktype_function(product)
    rhs = ktype_function(DiscreteSeries(sign, l)).convolve(ktype_function(V(m)))
    assert lhs == rhs


def test_ds_tensor_mirror_symmetry():
    for l in range(5):
        for m in range(5):
            plus = ds_tensor(1, l, m)
            minus = ds_tensor(-1, l, m)
            flipped = VirtualModule(
                [
                    (DiscreteSeries(-cls.sign, cls.l) if isinstance(cls, DiscreteSeries) else cls, n)
                    for cls, n in plus.items()
                ]
            )
            assert minus == flipped


# --- Grothendieck-level products ------------------------------------------------


def test_tensor_with_finite_dispatch():
    assert tensor_with_finite(V(1), 1) == clebsch_gordan(1, 1)
    assert tensor_with_finite(Dp(5), 2) == ds_tensor(1, 5, 2)
    assert tensor_with_finite(I(Fraction(1, 2), 0), 1) == VirtualModule.of(
        I(Fraction(3, 2), 1), I(Fraction(1, 2), 1)
    )


def test_grothendieck_tensor_linearity():
    x = VirtualModule([(Dp(1), 1), (Dm(1), 1), (V(0), 1)])
    assert grothendieck_tensor(x, 2) == ds_tensor(1, 1, 2) + ds_tensor(-1, 1, 2) + clebsch_gordan(0, 2)
    assert grothendieck_tensor(VirtualModule.zero(), 5) == VirtualModule.zero()


def test_grothendieck_tensor_commutes_on_finite_dims():
    for m1 in range(5):
        for m2 in range(5):
            a = grothendieck_tensor(VirtualModule.of(V(m1)), m2)
            b = grothendieck_tensor(VirtualModule.of(V(m2)), m1)
            assert a == b


def test_grothendieck_tensor_casimir_closure():
    from sl2hc.core import inf_char

    x = VirtualModule.of(Dp(2), I(Fraction(1, 3), 0))
    for m in range(4):
        allowed = set()
        for cls, _ in x.items():
            base = inf_char(cls).value
            allowed |= {(base + m - 2 * j) ** 2 for j in range(m + 1)}
        for cls, _ in grothendieck_tensor(x, m).items():
            assert casimir_value(cls) in allowed


def test_as_cone_preserved_by_grothendieck_tensor():
    from sl2hc.core import as_cone_module

    cases = [
        VirtualModule.of(Dp(3)),
        VirtualModule.of(Dm(0)),
        VirtualModule.of(V(2), V(0)),
        VirtualModule.of(I(Fraction(5, 2), 1)),
    ]
    for x in cases:
        for m in range(4):
            assert as_cone_module(grothendieck_tensor(x, m)) is as_cone_module(x)


def test_primary_split():
    x = VirtualModule.of(I(Fraction(3, 2), 1), I(Fraction(1, 2), 1))
    split = primary_split(x)
    assert split == {
        InfChar(Fraction(1, 2)): VirtualModule.of(I(Fraction(1, 2), 1)),
        InfChar(Fraction(3, 2)): VirtualModule.of(I(Fraction(3, 2), 1)),
    }
    y = VirtualModule.of(V(1), Dp(2), Dm(2))
    assert primary_split(y) == {InfChar(Fraction(2)): y}
    z = VirtualModule.of(V(0), Dp(0))
    split = primary_split(z)
    assert split[InfChar(Fraction(1))] == VirtualModule.of(V(0))
    assert split[InfChar(Fraction(0))] == VirtualModule.of(Dp(0))
    assert sum(split.values(), VirtualModule.zero()) == z
    with pytest.raises(ValueError) as raised:
        primary_split(VirtualModule.of(V(1)) - VirtualModule.of(V(0)))
    assert str(raised.value) == "primary decomposition requires nonnegative multiplicities"


@pytest.mark.parametrize("block", [V(0), Dp(1), Irr(I(Fraction(1, 2), 0)), "I(1/2,0)"])
def test_block_parameter_refuses_what_is_not_a_series_block(block):
    with pytest.raises(TypeError) as raised:
        block_parameter(block)
    assert str(raised.value) == f"not a principal series block: {block!r}"


def test_decomposition_to_dict_shape():
    payload = decomposition_to_dict(ps_tensor(0, 0, 1))
    assert payload == {
        "summands": [{"kind": "len2", "classes": ["I(1,1)", "I(1,1)"]}],
        "semisimplification": {"I(1,1)": 2},
    }
    payload = decomposition_to_dict(ps_tensor(Fraction(1, 2), 0, 1))
    assert [s["kind"] for s in payload["summands"]] == ["irr", "irr"]
    payload = decomposition_to_dict(ps_tensor(2, 1, 3))
    # reducible blocks carry the signed series labels alongside their factors
    assert payload["summands"][-1]["series"] == ["I(1,0)", "I(-1,0)"]
    assert payload["summands"][-1]["classes"] == ["D+(1)", "D-(1)", "V(0)", "V(0)", "D+(1)", "D-(1)"]


def test_series_structure_layers_kind_and_split():
    shapes = {
        (0, 0): ("irreducible", ((I(0, 0),),)),
        (0, 1): ("split_limit", ((Dp(0), Dm(0)),)),
        (2, 1): ("positive_int", ((Dp(2), Dm(2)), (V(1),))),
        (-2, 1): ("negative_int", ((V(1),), (Dp(2), Dm(2)))),
    }
    for (lam, eps), (kind, layers) in shapes.items():
        s = ps_structure(lam, eps)
        assert (s.kind, s.layers, s.split) == (kind, layers, len(layers) == 1)
        assert s.factors == tuple(c for layer in layers for c in layer)
        assert s == SeriesStructure(layers)


@pytest.mark.parametrize(
    "lam, eps, m, text, rendered",
    [
        # Irr of an irreducible series
        (
            Fraction(1, 2), 0, 1,
            ["I(3/2,1)", "I(1/2,1)"],
            {
                "summands": [{"kind": "irr", "classes": ["I(3/2,1)"]}, {"kind": "irr", "classes": ["I(1/2,1)"]}],
                "semisimplification": {"I(1/2,1)": 1, "I(3/2,1)": 1},
            },
        ),
        # Irr of reducible series, kept whole and named under "series"
        (
            1, 0, 1,
            ["I(2,1)", "I(0,1)"],
            {
                "summands": [
                    {"kind": "irr", "classes": ["D+(2)", "D-(2)", "V(1)"], "series": ["I(2,1)"]},
                    {"kind": "irr", "classes": ["D+(0)", "D-(0)"], "series": ["I(0,1)"]},
                ],
                "semisimplification": {"V(1)": 1, "D+(0)": 1, "D-(0)": 1, "D+(2)": 1, "D-(2)": 1},
            },
        ),
        # LengthTwo of irreducible series
        (
            0, 0, 1,
            ["[I(1,1) | I(1,1)]"],
            {
                "summands": [{"kind": "len2", "classes": ["I(1,1)", "I(1,1)"]}],
                "semisimplification": {"I(1,1)": 2},
            },
        ),
        # LengthTwo of reducible series: socle-first factors of both layers
        (
            0, 1, 1,
            ["[I(1,0) | I(-1,0)]"],
            {
                "summands": [
                    {
                        "kind": "len2",
                        "classes": ["D+(1)", "D-(1)", "V(0)", "V(0)", "D+(1)", "D-(1)"],
                        "series": ["I(1,0)", "I(-1,0)"],
                    }
                ],
                "semisimplification": {"V(0)": 2, "D+(1)": 2, "D-(1)": 2},
            },
        ),
    ],
)
def test_summand_rendering_pinned_for_all_four_shapes(lam, eps, m, text, rendered):
    summands = ps_tensor(lam, eps, m)
    assert [format_summand(s) for s in summands] == text
    got = decomposition_to_dict(summands)
    assert got == rendered
    assert list(got["semisimplification"]) == list(rendered["semisimplification"])


# --- the shift rules pinned to the outputs they replaced ---------------------------

# sha256 of "l m: <format_virtual_module(ds_tensor(sign, l, m))>\n" over 0 <= l, m <= 24,
# recorded from the K-type peeling that ds_tensor used before the shift rule
DS_TENSOR_SHA256 = {
    1: "8852e6462c57865234a9048f0f56275f8092e77e0f8e9e36e0ea2a5baaffd14d",
    -1: "27d76a3216482cf5fe6e34defb2230003a73ab08146c336dd3b125fb8f476dcc",
}

# sha256 of "p/q m: <summands joined by ' (+) '>\n" over |p| <= 30, 0 <= m <= 12,
# recorded from the partner-pairing loop that ps_tensor used before the shift rule
PS_TENSOR_SHA256 = {
    (1, 0): "01e0cc5f93c3558fa2a9744a67290e91358285fc1c595b0311dc28ca677df1e3",
    (1, 1): "1e220e1ffddfb4c1164e32cc9c20f4cf95ba978ab5dfa0c5ef2a691130995440",
    (2, 0): "4d98e59cdfeac4c6a4534a6be37eba31c44feea83ab82462053cd0158a9cdca3",
    (2, 1): "685fd45fde95d4e11da09749991705ab5c4256bc55a51fa3563eaa7e6daff954",
    (3, 0): "ab2caa005c9319e627d6cac4265ddcde47ebf1495adbcfb3b97993cc4c0447cd",
    (3, 1): "0e60e761b9eab9bd7aed986bb70937bc9eda717a6cdeea07873e43f1bf274210",
    (5, 0): "0e13012a0a918cc139085d7579dd4e96ff148f0a9104a15f77d3435a878f34d1",
    (5, 1): "c0e4c36f5a967c6f5d07ca3a50ea62cc0aaee4a5441337006c183fd6a7917cc6",
}


def _sha256(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("sign", [1, -1])
def test_ds_tensor_output_is_pinned(sign):
    lines = (f"{l} {m}: {format_virtual_module(ds_tensor(sign, l, m))}\n" for l in range(25) for m in range(25))
    assert _sha256(lines) == DS_TENSOR_SHA256[sign]


@pytest.mark.parametrize("q, eps", sorted(PS_TENSOR_SHA256))
def test_ps_tensor_output_is_pinned(q, eps):
    lines = (
        f"{p}/{q} {m}: {' (+) '.join(map(format_summand, ps_tensor(Fraction(p, q), eps, m)))}\n"
        for p in range(-30, 31)
        for m in range(13)
    )
    assert _sha256(lines) == PS_TENSOR_SHA256[q, eps]


# --- the block invariant behind verify_tensor's prediction ---------------------------

# lam = p/q over this grid, with eps in {0, 1} and m <= 6, holds the criterion-3 sweep grid
BLOCK_LAMBDAS = sorted({Fraction(p, q) for q in (1, 2, 3, 5) for p in range(-12, 13)})


@pytest.mark.parametrize("eps", [0, 1])
def test_each_ps_tensor_block_has_every_ktype_of_its_parity_once_at_value_lam_squared(eps):
    """So the summands of parity eps+m predict one Casimir spectrum, the same at every weight."""
    for lam in BLOCK_LAMBDAS:
        for m in range(7):
            parity = (eps + m) % 2
            for s in ps_tensor(lam, eps, m):
                n = len(s.blocks)
                got = module_ktype_function(summand_semisimplification(s))
                assert got == KTypeFunction.build(parity, {}, n, n), (lam, eps, m, s)
                for b in s.blocks:
                    for cls in ps_structure(b.lam, b.eps).factors:
                        assert casimir_value(cls) == b.lam ** 2, (lam, eps, m, b, cls)


def test_ds_tensor_conserves_ktypes_and_casimir_shifts_to_24():
    for sign in (1, -1):
        for l in range(25):
            for m in range(25):
                product = ds_tensor(sign, l, m)
                assert ktype_conservation_holds(VirtualModule.of(DiscreteSeries(sign, l)), m, product)
                shifts = {Fraction((l + m - 2 * j) ** 2) for j in range(m + 1)}
                assert {casimir_value(cls) for cls, _ in product.items()} <= shifts, (sign, l, m)


def test_grothendieck_tensor_of_signed_combinations():
    x = VirtualModule([(Dp(2), 2), (V(1), -3), (I(Fraction(1, 3), 0), -1), (Dm(0), 1)])
    for m in range(5):
        expected = VirtualModule.zero()
        for cls, mult in x.items():
            expected = expected + mult * tensor_with_finite(cls, m)
        assert grothendieck_tensor(x, m) == expected
        assert grothendieck_tensor(-x, m) == -expected
