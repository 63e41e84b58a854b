"""The ladder coefficients derived from the induced representation.

I(lam, eps) is the space of functions f on SL(2,R) with f(g man) =
chi_eps(m) a^-(lam+1) f(g), where (X.f)(g) = d/dt f(exp(-tX) g).  Putting
F(g e1) = f(g) makes F(tv) = sgn(t)^eps |t|^-(lam+1) F(v) on R^2 - 0, where
X acts by the vector field -(Xv).grad.  In w = x + iy the K-type z^k
(z = e^{i theta}) extends to F_k = w^a wbar^b, a - b = k, a + b = -(lam+1);
the Cayley combinations H', E', F' (Lang, SL2(R), ch. VI) move it to F_k,
F_{k+2}, F_{k-2}.  At lam = -(m+1), |k| <= m, the F_k are the homogeneous
polynomials of degree m in (x, y): V(m).  Scalars are Gaussian rationals,
pairs of Fractions.  No rescaling of the basis moves the product
e(k) f(k+2) or which factor vanishes, so both are compared with ``Ladder``.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from sl2hc.core import FinDim, Ladder, ladder

ZERO, ONE, I = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
HALF, MINUS = (Fraction(1, 2), Fraction(0)), (Fraction(-1), Fraction(0))


def add(*zs):
    return (sum(z[0] for z in zs), sum(z[1] for z in zs))


def mul(*zs):
    out = ONE
    for re, im in zs:
        out = (out[0] * re - out[1] * im, out[0] * im + out[1] * re)
    return out


def real(q):
    return (Fraction(q), Fraction(0))


def vector_field(A):
    """(alpha, beta, gamma, delta) with (Av)_x + i(Av)_y = alpha w + beta wbar and
    (Av)_x - i(Av)_y = gamma w + delta wbar, for a complex 2x2 matrix A."""
    x, y = (HALF, HALF), (mul(MINUS, HALF, I), mul(HALF, I))  # x and y as forms in (w, wbar)
    ax, ay = ([add(mul(row[0], x[i]), mul(row[1], y[i])) for i in (0, 1)] for row in A)
    return tuple(add(ax[i], mul(sign, I, ay[i])) for sign in (ONE, MINUS) for i in (0, 1))


# H' = -i(E - F), E' = (H + iE + iF)/2, F' = (H - iE - iF)/2
H_ = vector_field(((ZERO, mul(MINUS, I)), (I, ZERO)))
E_ = vector_field(((HALF, mul(HALF, I)), (mul(HALF, I), mul(MINUS, HALF))))
F_ = vector_field(((HALF, mul(MINUS, HALF, I)), (mul(MINUS, HALF, I), mul(MINUS, HALF))))


def act(field, lam, k):
    """{j: c} with A.F_k = sum c F_j: -(Av).grad w^a wbar^b by the chain rule."""
    alpha, beta, gamma, delta = field
    a, b = real((k - lam - 1) / 2), real((-k - lam - 1) / 2)
    diagonal = add(mul(a, alpha), mul(b, delta))
    return {k - 2: mul(MINUS, a, beta), k: mul(MINUS, diagonal), k + 2: mul(MINUS, b, gamma)}


def matches_ladder(w: Ladder, lam, ks) -> bool:
    """The derived E' and F' at lam have the zeros and products e(k) f(k+2) of ``w``."""
    up, down = (lambda k: act(E_, lam, k)[k + 2]), (lambda k: act(F_, lam, k)[k - 2])
    return all(
        (up(k) == ZERO) == (w.e_coeff(k) == 0)
        and (down(k) == ZERO) == (w.f_coeff(k) == 0)
        and mul(up(k), down(k + 2)) == real(w.e_coeff(k) * w.f_coeff(k + 2))
        for k in ks
    )


@given(st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 2, 3, 5))), st.integers(0, 1))
def test_principal_series_ladder_is_the_induced_action(lam, eps):
    ks = range(eps - 10, 11, 2)
    assert all(act(H_, lam, k) == {k - 2: ZERO, k: real(k), k + 2: ZERO} for k in ks)
    assert all(act(E_, lam, k)[j] == ZERO == act(F_, lam, k)[2 * k - j] for k in ks for j in (k - 2, k))
    assert matches_ladder(Ladder(lam, eps, None, None), lam, ks)


def test_dual_convention_fails_the_check():
    """The E' and F' of I(-lam, eps) have the same products; their zeros sit at the other end."""
    for n in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5):
        eps = (n + 1) % 2
        assert not matches_ladder(Ladder(Fraction(n), eps, None, None), Fraction(-n), range(eps - 8, 9, 2)), n


@given(st.integers(0, 40))
def test_finite_dimensional_ladder_is_the_action_on_polynomials(m):
    lam, ks = Fraction(-(m + 1)), range(-m, m + 1, 2)
    assert act(E_, lam, m)[m + 2] == ZERO == act(F_, lam, -m)[-m - 2]  # degree-m polynomials are closed
    assert all(act(H_, lam, k)[k] == real(k) for k in ks)
    assert matches_ladder(ladder(FinDim(m)), lam, ks)
