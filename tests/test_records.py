"""The value classes keep the semantics they had as frozen dataclasses.

Each class is compared with a frozen dataclass twin holding the same field
values: repr, equality, hash and (for InfChar) ordering must agree.  The
field names and the pinned reprs were recorded from the dataclass versions.
"""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2hc.core import (
    DiscreteSeries,
    FinDim,
    InfChar,
    KTypeFunction,
    PrincipalIrr,
    inf_char,
    ktype_function,
    principal_is_irreducible,
)
from sl2hc.lattice import FD_POINT, HOL_POINT, ClassPoint, PosetOps, closure, ps_class_point, sub_poset_ops
from sl2hc.oracle import (
    BlockObservation,
    CasimirReport,
    FinDimRealization,
    PrincipalSeriesRealization,
    VerificationVerdict,
    VerifyEntry,
    WeightSpectrum,
    casimir_report,
    verify_tensor,
)
from sl2hc.tensor import Irr, LengthTwo, ReducibleSeries, SeriesStructure, ps_structure, ps_tensor

FIELDS = {
    FinDim: ("m",),
    DiscreteSeries: ("sign", "l"),
    PrincipalIrr: ("lam", "eps"),
    InfChar: ("value",),
    KTypeFunction: ("parity", "tail_left", "tail_right", "values"),
    SeriesStructure: ("layers",),
    ReducibleSeries: ("lam", "eps"),
    Irr: ("factor",),
    LengthTwo: ("sub", "quot"),
    ClassPoint: ("kind", "lam0", "eps0"),
    PosetOps: ("leq", "join", "meet"),
    PrincipalSeriesRealization: ("lam", "eps"),
    FinDimRealization: ("m",),
    WeightSpectrum: ("k", "dim", "eigenvalues"),
    CasimirReport: ("lam", "eps", "m", "window", "entries"),
    VerifyEntry: ("k", "dim", "observed", "predicted", "match"),
    BlockObservation: ("casimir", "jordan_profiles"),
    VerificationVerdict: ("lam", "eps", "m", "window", "entries", "block_observations", "passed"),
}

TWINS = {
    cls: dataclasses.make_dataclass(
        cls.__name__,
        # ClassPoint's lam0 and eps0 default to None
        [(f, object, dataclasses.field(default=None)) if f in ("lam0", "eps0") else (f, object) for f in fields],
        frozen=True,
        order=cls is InfChar,
    )
    for cls, fields in FIELDS.items()
}


def values(x) -> tuple:
    return tuple(getattr(x, f) for f in FIELDS[type(x)])


def twin(x):
    return TWINS[type(x)](*values(x))


def _irreducible(lam: Fraction, eps: int) -> PrincipalIrr:
    return PrincipalIrr(lam, eps if principal_is_irreducible(lam, eps) else 1 - eps)


def _block(lam: Fraction, eps: int):
    return PrincipalIrr(lam, eps) if principal_is_irreducible(lam, eps) else ReducibleSeries(lam, eps)


def samples(lam: Fraction, eps: int, m: int, n: int) -> list:
    """One instance of each of the 18 classes, built from the draw."""
    irr = _irreducible(lam, eps)
    ds = DiscreteSeries(1 if n % 2 else -1, m)
    point = ps_class_point(irr.lam, irr.eps)
    report = casimir_report(lam, eps, m, (-3, 3))
    verdict = verify_tensor(lam, eps, m, (-3, 3))
    return [
        FinDim(m),
        ds,
        irr,
        inf_char(irr),
        ktype_function(ds).convolve(ktype_function(FinDim(m))),
        ps_structure(Fraction(n), eps),
        ReducibleSeries(Fraction(n), (n + 1) % 2),
        Irr(_block(lam, eps)),
        LengthTwo(_block(Fraction(n + 1), eps), _block(Fraction(-n - 1), eps)),
        point,
        sub_poset_ops(closure({HOL_POINT}), {FD_POINT, point}),
        PrincipalSeriesRealization(lam, eps),
        FinDimRealization(m),
        report.entries[0],
        report,
        verdict.entries[-1],
        BlockObservation(lam * lam, ((m + 1,), (1,) * (n + 1))),
        verdict,
    ]


draws = st.tuples(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 3),
)


def test_samples_cover_every_class():
    assert [type(x) for x in samples(Fraction(1, 3), 0, 1, 0)] == list(FIELDS)


@settings(max_examples=60, deadline=None)
@given(draws, draws)
def test_records_behave_like_frozen_dataclasses(a, b):
    xs, ys = samples(*a), samples(*b)
    for x, y in zip(xs, ys):
        cls, tx, ty = type(x), twin(x), twin(y)
        assert repr(x) == repr(tx)
        assert hash(x) == hash(tx) == hash(values(x))
        assert x == x and x == cls(*values(x)) and not x != cls(*values(x))
        assert (x == y) == (tx == ty) and (x != y) == (tx != ty)
        assert cls(**dict(zip(FIELDS[cls], values(x)))) == x
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(clone) is cls and clone == x and hash(clone) == hash(x)
        for field in FIELDS[cls]:
            with pytest.raises(AttributeError):
                setattr(x, field, None)
            with pytest.raises(AttributeError):
                delattr(x, field)
        if cls is InfChar:
            for op in ("__lt__", "__le__", "__gt__", "__ge__"):
                assert getattr(x, op)(y) == getattr(tx, op)(ty)
        else:
            with pytest.raises(TypeError):
                x < y
    for x, y in itertools.combinations(xs, 2):
        assert x != y and not x == y


def test_cross_class_inequality():
    assert FinDim(1) != InfChar(Fraction(1))
    assert FinDim(3) != FinDimRealization(3)
    assert PrincipalIrr(Fraction(1, 2), 0) != PrincipalSeriesRealization(Fraction(1, 2), 0)
    assert len({FinDim(3), FinDimRealization(3), InfChar(Fraction(3))}) == 3


def test_construction_defaults_and_errors():
    assert ClassPoint("fd") == ClassPoint(kind="fd") == ClassPoint("fd", None, eps0=None)
    assert ClassPoint(kind="ps", lam0=Fraction(1, 3), eps0=1) == ps_class_point(Fraction(4, 3), 0)
    assert FinDim(m=2) == FinDim(2)
    for bad in (lambda: FinDim(), lambda: FinDim(1, 2), lambda: FinDim(1, m=1), lambda: FinDim(n=1)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(ValueError, match="I\\(-2,1\\) is reducible"):
        PrincipalIrr(Fraction(-2), 1)
    with pytest.raises(ValueError, match="base parameter must lie in"):
        ClassPoint("ps", Fraction(2, 3), 0)


def test_reprs_pinned():
    assert repr(ps_structure(2, 1)) == (
        "SeriesStructure(layers=((DiscreteSeries(sign=1, l=2), DiscreteSeries(sign=-1, l=2)), "
        "(FinDim(m=1),)))"
    )
    assert repr(ps_tensor(0, 0, 1)) == (
        "[LengthTwo(sub=PrincipalIrr(lam=Fraction(1, 1), eps=1), "
        "quot=PrincipalIrr(lam=Fraction(1, 1), eps=1))]"
    )
    assert repr(ps_class_point(Fraction(4, 3), 1)) == "ClassPoint(kind='ps', lam0=Fraction(1, 3), eps0=0)"
    assert repr(ClassPoint("fd")) == "ClassPoint(kind='fd', lam0=None, eps0=None)"
    assert repr(ktype_function(DiscreteSeries(-1, 2))) == (
        "KTypeFunction(parity=1, tail_left=1, tail_right=0, values=((-1, 0),))"
    )
    assert repr(inf_char(PrincipalIrr(Fraction(-5, 2), 0))) == "InfChar(value=Fraction(5, 2))"
    assert repr(PrincipalSeriesRealization("-1/2", 1)) == (
        "PrincipalSeriesRealization(lam=Fraction(-1, 2), eps=1)"
    )
    assert repr(casimir_report(Fraction(1, 2), 0, 1, (1, 1))) == (
        "CasimirReport(lam=Fraction(1, 2), eps=0, m=1, window=(1, 1), entries=(WeightSpectrum(k=1, dim=2, "
        "eigenvalues=((Fraction(1, 4), 1, (1,)), (Fraction(9, 4), 1, (1,)))),))"
    )
    assert repr(verify_tensor(0, 0, 1, (-1, 1))) == (
        "VerificationVerdict(lam=Fraction(0, 1), eps=0, m=1, window=(-1, 1), entries=("
        "VerifyEntry(k=-1, dim=2, observed=((Fraction(1, 1), 2, (2,)),), predicted=((Fraction(1, 1), 2),), "
        "match=True), VerifyEntry(k=1, dim=2, observed=((Fraction(1, 1), 2, (2,)),), "
        "predicted=((Fraction(1, 1), 2),), match=True)), block_observations=("
        "BlockObservation(casimir=Fraction(1, 1), jordan_profiles=((2,),)),), passed=True)"
    )
