"""The Fraction matrix arithmetic of `causalbox.poincare`, kept by the
tests as a reference for the integer one.

It is the arithmetic as it stood before the integer rewrite: every
product sums `Fraction` products entry by entry, the isometry check
compares the `Fraction` Gram matrix with eta, and the determinant is
Gaussian elimination over `Fraction`s.  `product(*factors)` and
`matvec(a, v)` take the same arguments as `poincare._product` and
`poincare._matvec`; patching them in gives the reference
`find_loop_transform`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from causalbox.poincare import Matrix, Vector, _eta, _transpose


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
