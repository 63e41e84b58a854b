"""Isomorphism and duality of principal series, read off the ladder.

An intertwiner T from I(lam, eps) to I(lam2, eps) commutes with H', so it
is diagonal on the K-weight bases, T w_k = a_k w_k.  With e and f the
``Ladder`` coefficients, commuting with E' and F' asks at each step k -> k+2

    a_{k+2} e(lam, k) = a_k e(lam2, k),    a_k f(lam, k+2) = a_{k+2} f(lam2, k+2).

Where all four coefficients are nonzero the two give e(lam, k) f(lam, k+2) =
e(lam2, k) f(lam2, k+2), that is lam^2 = lam2^2.  At lam2 = -lam both read
a_{k+2}/a_k = (k+1-lam)/(k+1+lam), so an invertible T exists exactly when no
k+1 +- lam vanishes at a weight (I(lam, eps) is irreducible) or lam = 0.

The contragredient acts by (X.phi)(v) = -phi(X.v).  On u_n = w_{-n}^*, of
weight n, E'.u_n = -e(lam, -n-2) u_{n+2} and F'.u_n = -f(lam, 2-n) u_{n-2}:
the coefficients of ``Ladder(-lam, eps)``.  A glued summand of ``ps_tensor``
puts the contragredient of its bottom block on top.  (Knapp, Representation
Theory of Semisimple Groups, 1986, ch. II and VII.)
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from sl2hc.core import Ladder, PrincipalIrr, principal_is_irreducible, principal_iso_equal
from sl2hc.tensor import LengthTwo, ps_tensor

PARAMETERS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 5)))


def weights(eps: int) -> range:
    """A window of weights of parity eps past every zero of a coefficient at |lam| <= 12."""
    return range(eps - 16, 17, 2)


def step_ratios(lam, lam2, eps: int, k: int):
    """The ratios a_{k+2}/a_k that both equations allow at step k: a set, or
    None when every ratio is allowed."""
    a, b = Ladder(lam, eps, None, None), Ladder(lam2, eps, None, None)
    allowed = None
    for x, y in ((a.e_coeff(k), b.e_coeff(k)), (b.f_coeff(k + 2), a.f_coeff(k + 2))):  # ratio * x = y
        if x:
            allowed = {y / x} if allowed is None else allowed & {y / x}
        elif y:
            return set()
    return allowed


def invertible_intertwiner(lam, lam2, eps: int) -> bool:
    """Some T with every a_k nonzero commutes with E' and F' over the window."""
    ks = weights(eps)[:-1]
    return all(r is None or r - {0} for r in (step_ratios(lam, lam2, eps, k) for k in ks))


def contragredient(w: Ladder, n: int) -> tuple:
    """The (E', F') coefficients at u_n = w_{-n}^* of the dual of w."""
    return -w.e_coeff(-n - 2), -w.f_coeff(-n + 2)


def coefficients(w: Ladder, n: int) -> tuple:
    return w.e_coeff(n), w.f_coeff(n)


@given(PARAMETERS, st.integers(0, 1))
def test_an_intertwiner_to_the_negated_parameter_has_the_ladder_ratio(lam, eps):
    for k in weights(eps)[:-1]:
        if k + 1 + lam:
            assert step_ratios(lam, -lam, eps, k) == {(k + 1 - lam) / (k + 1 + lam)}


@given(PARAMETERS, st.sampled_from(("same", "negated", "shifted", "other")), PARAMETERS, st.integers(0, 1))
def test_invertible_intertwiners_are_the_principal_series_isomorphisms(lam, relation, other, eps):
    lam2 = {"same": lam, "negated": -lam, "shifted": lam + 1, "other": other}[relation]
    exists = invertible_intertwiner(lam, lam2, eps)
    assert exists == (lam2 == lam or (lam2 == -lam and (principal_is_irreducible(lam, eps) or lam == 0)))
    if principal_is_irreducible(lam, eps) and principal_is_irreducible(lam2, eps):
        assert exists == principal_iso_equal(lam, eps, lam2, eps)
        assert exists == (PrincipalIrr(lam, eps) == PrincipalIrr(lam2, eps))


@given(PARAMETERS, st.integers(0, 1))
def test_the_contragredient_ladder_negates_the_parameter(lam, eps):
    w, dual = Ladder(lam, eps, None, None), Ladder(-lam, eps, None, None)
    assert all(contragredient(w, n) == coefficients(dual, n) for n in weights(eps))


def glued_blocks_are_dual(summands) -> bool:
    """A reducible bottom block has its contragredient, the block at the
    negated parameter, on top; an irreducible one, isomorphic to its
    contragredient, has itself on top."""
    for s in summands:
        if len(s.blocks) != 2:
            continue
        sub, quot = s.blocks
        if principal_is_irreducible(sub.lam, sub.eps):
            if quot != sub or not invertible_intertwiner(sub.lam, -sub.lam, sub.eps):
                return False
            continue
        bottom, top = Ladder(sub.lam, sub.eps, None, None), Ladder(quot.lam, quot.eps, None, None)
        if quot.eps != sub.eps or any(contragredient(bottom, n) != coefficients(top, n) for n in weights(sub.eps)):
            return False
    return True


def undual_cases(tensor) -> list:
    """The (lam, eps, m), lam integral in [-6, 6] and m <= 5, whose glued
    summands under ``tensor`` fail ``glued_blocks_are_dual``."""
    cases = [(lam, eps, m) for lam in range(-6, 7) for eps in (0, 1) for m in range(6)]
    return [case for case in cases if not glued_blocks_are_dual(tensor(*case))]


def test_each_glued_summand_tops_its_block_with_the_contragredient():
    assert undual_cases(ps_tensor) == []


def test_a_block_glued_to_itself_fails_the_duality_check():
    def glued_to_itself(lam, eps, m):
        return [LengthTwo(s.sub, s.sub) if len(s.blocks) == 2 else s for s in ps_tensor(lam, eps, m)]

    assert (0, 1, 1) in undual_cases(glued_to_itself)
