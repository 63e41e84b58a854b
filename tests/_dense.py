"""Dense references shared by the tests: the identity and the band as full
matrices, a weight's spectrum from the dense routines of ``linalg``, and a
weight's Casimir multiplicities predicted from a module's classes."""

from sl2hc.core import casimir_value, ktype_function
from sl2hc.linalg import char_poly, clear_denominators, jordan_block_sizes, root_multiplicity


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def band_rows(diag, upper, lower):
    """The tridiagonal matrix with these diagonals, as full rows."""
    n = len(diag)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        if i + 1 < n:
            rows[i][i + 1], rows[i + 1][i] = upper[i], lower[i]
    return rows


def dense_spectrum(mat, candidates):
    """(value, multiplicity, Jordan sizes) at each candidate that is an
    eigenvalue of ``mat``, by the characteristic polynomial and the rank
    sequence; every eigenvalue must be a candidate."""
    mint, scale = clear_denominators(mat, extra=candidates)
    remaining = char_poly(mint)
    eigen = []
    for c in candidates:
        cs = int(c * scale)
        mult, remaining = root_multiplicity(remaining, cs)
        if mult:
            eigen.append((c, mult, jordan_block_sizes(mint, cs, mult)))
    assert len(remaining) == 1
    return tuple(eigen)


def predicted_counts(module, k: int) -> dict:
    """Casimir value -> multiplicity at weight k, from a module's classes."""
    counts: dict = {}
    for cls, mult in module.items():
        n = mult * ktype_function(cls).value(k)
        if n:
            value = casimir_value(cls)
            counts[value] = counts.get(value, 0) + n
    return counts
