"""Exact linear algebra over the integers.

Everything is fraction-free, so no floating point or rational normalization
enters the spectral computations built on top.

The oracle's matrices are tridiagonal and are held as three integer
diagonals ``(diag, upper, lower)``: ``upper[i]`` is entry (i, i+1) and
``lower[i]`` entry (i+1, i).  Production uses the routines for that form:
the continuant recurrence, which gives the characteristic polynomial and
the principal minors, and Jordan block sizes at multiplicity 1 or 2, which
need nothing when one off-diagonal has no zero, and otherwise the leading
and trailing principal minors of T - cI, whose products with runs of
off-diagonal entries are its (n-1)-minors.

Dense matrices are lists of row lists.  The dense routines (Bareiss rank,
Faddeev-LeVerrier characteristic polynomial, whose divisions are exact over
the integers, and rank-sequence Jordan sizes) are the reference the tests
compare the tridiagonal routines against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import lcm

Matrix = list


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, p = len(a), len(b), len(b[0]) if b else 0
    assert all(len(row) == m for row in a)
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            c = ai[k]
            if c:
                for j, x in enumerate(b[k]):
                    if x:
                        oi[j] += c * x
    return out


def mat_sub_scalar(a: Matrix, c) -> Matrix:
    """a - c*I."""
    return [[a[i][j] - c if i == j else a[i][j] for j in range(len(a))] for i in range(len(a))]


def clear_denominators(a: Matrix, extra=()) -> tuple:
    """Scale a rational matrix to integers; returns (integer matrix, scale).

    ``extra`` lists additional rationals whose denominators the scale must
    also clear (eigenvalue candidates, so that scaled candidates stay
    integral).
    """
    dens = [Fraction(x).denominator for row in a for x in row]
    dens += [Fraction(x).denominator for x in extra]
    s = lcm(*dens) if dens else 1
    out = []
    for row in a:
        out_row = []
        for x in row:
            v = Fraction(x) * s
            assert v.denominator == 1
            out_row.append(int(v))
        out.append(out_row)
    return out, s


def rank(a: Matrix) -> int:
    """Rank of an integer matrix via fraction-free Bareiss elimination."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    prev = 1
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, rows):
            for j in range(c + 1, cols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == rows:
            break
    return r


def char_poly(a: Matrix) -> list:
    """Monic characteristic polynomial det(tI - a) of an integer matrix.

    Returned as coefficients [c_0=1, c_1, ..., c_n] of t^n + c_1 t^(n-1) + ...
    via Faddeev-LeVerrier; all intermediate divisions are exact.
    """
    n = len(a)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    ck = 1
    for k in range(1, n + 1):
        # M_k = A*M_{k-1} + c_{k-1} I
        mk = mat_mul(a, mk)
        for i in range(n):
            mk[i][i] += ck
        am = mat_mul(a, mk)
        tr = sum(am[i][i] for i in range(n))
        assert tr % k == 0
        ck = -tr // k
        coeffs.append(ck)
    return coeffs


def divide_out_root(poly: list, r) -> tuple:
    """Synthetic division of a monic polynomial by (t - r): (quotient, remainder)."""
    out = []
    acc = 0
    for c in poly:
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return out, rem


def root_multiplicity(poly: list, r) -> tuple:
    """Largest e with (t-r)^e dividing poly; returns (e, poly / (t-r)^e)."""
    e = 0
    while len(poly) > 1:
        q, rem = divide_out_root(poly, r)
        if rem != 0:
            break
        poly = q
        e += 1
    return e, poly


def jordan_block_sizes(a: Matrix, c, mult: int) -> tuple:
    """Jordan block sizes (descending) of integer matrix ``a`` at eigenvalue ``c``.

    ``mult`` is the known algebraic multiplicity; the rank sequence of powers
    of (a - c I), taken only until the rank reaches n - mult, determines the
    partition.
    """
    if mult == 1:
        return (1,)
    n = len(a)
    ranks = map(rank, accumulate(repeat(mat_sub_scalar(a, c), n), mat_mul))
    seq = [n]
    while seq[-1] > n - mult:
        r = next(ranks, None)
        if r is None:
            raise AssertionError("rank sequence failed to stabilize")
        seq.append(r)
    if seq[-1] != n - mult:
        raise AssertionError("rank sequence undershot the algebraic multiplicity")
    # number of blocks of size >= i is seq[i-1] - seq[i]
    n_ge = [seq[i - 1] - seq[i] for i in range(1, len(seq))]
    n_ge.append(0)
    sizes = []
    for i in range(1, len(n_ge)):
        sizes.extend([i] * (n_ge[i - 1] - n_ge[i]))
    sizes.sort(reverse=True)
    assert sum(sizes) == mult
    return tuple(sizes)


# --- tridiagonal matrices ---------------------------------------------------------


def tridiagonal_char_poly(diag: list, upper: list, lower: list) -> list:
    """Monic det(tI - T) of an integer tridiagonal matrix, as ``char_poly`` returns it.

    Continuant recurrence over the leading principal minors,
    p_i = (t - d_i) p_{i-1} - u_{i-1} l_{i-1} p_{i-2}: O(n^2) integer
    operations instead of the O(n^4) of the dense recursion.
    """
    prev, poly = [], [1]
    for i, d in enumerate(diag):
        nxt = poly + [0]
        for j, c in enumerate(poly):
            nxt[j + 1] -= d * c
        w = upper[i - 1] * lower[i - 1] if i else 0
        if w:
            for j, c in enumerate(prev):
                nxt[j + 2] -= w * c
        prev, poly = poly, nxt
    return poly


def tridiagonal_jordan_block_sizes(diag: list, upper: list, lower: list, c, mult: int) -> tuple:
    """Jordan block sizes (descending) of an integer tridiagonal matrix T at
    an eigenvalue ``c`` of multiplicity 1 or 2, the most the oracle meets.

    There is one block exactly when some (n-1)-minor of T - cI is nonzero.
    Deleting row j and column i <= j (or row i and column j) leaves a block
    triangular matrix whose diagonal blocks are the leading i x i minor, the
    entries ``upper[i:j]`` (or ``lower[i:j]``) and the trailing
    (n-1-j) x (n-1-j) minor.  When ``upper`` or ``lower`` has no zero, the
    minor with i = 0 and j = n-1 is nonzero and no minor is taken.  As
    rank(T - cI) >= n-1-z when an off-diagonal has z zeros, two blocks are
    proven only when one off-diagonal has a single zero.  Any other
    multiplicity, a ``c`` that is no eigenvalue, or an unproven second block
    is an ``AssertionError``.
    """
    if mult not in (1, 2):
        raise AssertionError(f"Jordan sizes are taken at multiplicity 1 or 2, not {mult}")
    if mult == 1 or all(upper) or all(lower):
        return (mult,)
    theta = _leading_minors(diag, upper, lower, c)
    if theta[-1]:
        raise AssertionError(f"{c} is not an eigenvalue")
    phi = _leading_minors(diag[::-1], upper[::-1], lower[::-1], c)
    n = len(diag)
    for off in (upper, lower):
        joined = False  # some theta[i] != 0 with off[i:j] free of zeros
        for j in range(n):
            joined = theta[j] != 0 or (joined and off[j - 1] != 0)
            if joined and phi[n - 1 - j]:
                return (2,)
    if min(upper.count(0), lower.count(0)) > 1:
        raise AssertionError("a second Jordan block at multiplicity 2 is not proven")
    return (1, 1)


def _leading_minors(diag: list, upper: list, lower: list, c) -> list:
    """The leading principal minors theta_0 = 1, theta_1, ..., theta_n of
    T - cI, by the continuant recurrence of ``tridiagonal_char_poly``."""
    minors = [1]
    for i, d in enumerate(diag):
        w = upper[i - 1] * lower[i - 1] * minors[i - 1] if i else 0
        minors.append((d - c) * minors[i] - w)
    return minors
