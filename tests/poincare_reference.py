"""The Fraction matrix arithmetic of `causalbox.poincare`, kept by the
tests as a reference for the integer one.

It is the arithmetic as it stood before the integer rewrite: every
product sums `Fraction` products entry by entry, the isometry check
compares the `Fraction` Gram matrix with eta, the determinant is
Gaussian elimination over `Fraction`s, and the loop direction and its
Householder alignment divide `Fraction`s entry by entry.
`product(*factors)`, `matvec(a, v)`, `loop_direction(t, xs)` and
`householder(dim, e)` take the same arguments as `poincare._product`,
`poincare._matvec`, `poincare._loop_direction` and
`poincare._householder`; patching them in gives the reference
`find_loop_transform`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from causalbox.poincare import Matrix, Vector, _eta, _identity, _transpose


def matmul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum((row[k] * v[k] for k in range(len(v))), Fraction(0)) for row in a)


def product(*factors: Matrix) -> Matrix:
    """The factors multiplied right to left, as the loop isometry was."""
    return reduce(lambda acc, f: matmul(f, acc), reversed(factors))


def preserves_interval(a: Matrix) -> bool:
    eta = _eta(len(a))
    return matmul(_transpose(a), matmul(eta, a)) == eta


def det(a: Matrix) -> Fraction:
    rows = [[Fraction(c) for c in r] for r in a]
    n = len(rows)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            result = -result
        result *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return result


def loop_direction(t: Fraction, xs: Vector) -> Vector:
    i = max(range(len(xs)), key=lambda j: abs(xs[j]))
    a = abs(xs[i]) + abs(t)
    r2 = sum((c * c for j, c in enumerate(xs) if j != i), Fraction(0))
    den = a * a + r2
    e = [2 * a * c / den for c in xs]
    e[i] = (a * a - r2) / den if xs[i] > 0 else (r2 - a * a) / den
    return tuple(e)


def householder(dim: int, e: Vector) -> Matrix:
    v = (e[0] - 1, *e[1:])
    vv = sum((c * c for c in v), Fraction(0))
    rows = [list(r) for r in _identity(dim + 1)]
    if vv:
        for i in range(dim):
            for j in range(dim):
                rows[i + 1][j + 1] -= 2 * v[i] * v[j] / vv
    return tuple(tuple(r) for r in rows)
