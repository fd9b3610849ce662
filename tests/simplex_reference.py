"""The Fraction simplex core, kept by the tests as a reference for the
integer-row core in `causalbox.simplex`.

Each tableau row is a list of `Fraction`s, the rhs last.  `_pivot`
divides the pivot row by its pivot entry and subtracts multiples of it
from every other row on its support; `_run_simplex` runs Bland's rule
with a ratio test on `Fraction` quotients.  `solve_lp` is the two-phase
driver around them and returns the final basis with the result, so a
test can require the integer core to end on the same vertex.

`verify_lp_certificate` is the certificate check in `Fraction`s, cell
by cell, kept as the reference for the library's integer check: both
must give the same answer on every certificate, forged or not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from causalbox.simplex import InfeasibleError, LpResult, UnboundedError


def _pivot(
    T: list[list[Fraction]], basis: list[int], row: int, col: int
) -> list[tuple[int, Fraction]]:
    """Pivot on T[row][col] in place; only the columns of the returned
    support (j, T[row][j] != 0) of the new pivot row change elsewhere."""
    line = T[row]
    piv = line[col]
    support = [(j, w / piv) for j, w in enumerate(line) if w]
    for j, w in support:
        line[j] = w
    for r, other in enumerate(T):
        factor = other[col]
        if r != row and factor:
            for j, w in support:
                other[j] -= factor * w
    basis[row] = col
    return support


def _run_simplex(
    T: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    allowed: Sequence[bool],
) -> list[Fraction]:
    """Maximize cost.x on the tableau in place (Bland's rule) and return
    the final reduced-cost row: cost minus c_B B^-1 times every column,
    the rhs last."""
    m = len(basis)
    width = len(T[0])
    z = list(cost) + [Fraction(0)]
    for r in range(m):
        cb = z[basis[r]]
        if cb:
            for j, t in enumerate(T[r]):
                if t:
                    z[j] -= cb * t
    while True:
        enter = next((j for j in range(width - 1) if allowed[j] and z[j] > 0), -1)
        if enter < 0:
            return z
        leave, best = -1, None
        for r in range(m):
            a = T[r][enter]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best, leave = ratio, r
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        support = _pivot(T, basis, leave, enter)
        factor = z[enter]
        if factor:
            for j, w in support:
                z[j] -= factor * w


def solve_lp(
    A: Sequence[Sequence], b: Sequence, c: Sequence, *, maximize: bool = True
) -> tuple[LpResult, list[int]]:
    """The exact optimum of c.x over {A x = b, x >= 0} and the final basis."""
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    c = [Fraction(v) for v in c]
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    obj = c if maximize else [-v for v in c]
    signs = [-1 if v < 0 else 1 for v in b]
    for i in range(m):
        if signs[i] < 0:
            A[i], b[i] = [-v for v in A[i]], -b[i]

    # Tableau columns: n originals, m artificials, then the rhs.
    T = [A[i] + [Fraction(int(i == k)) for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    phase1 = [Fraction(0)] * n + [Fraction(-1)] * m
    _run_simplex(T, basis, phase1, [True] * (n + m))
    if any(T[r][-1] != 0 for r in range(m) if basis[r] >= n):
        raise InfeasibleError("constraints admit no nonnegative solution")
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), None)
            if col is not None:
                _pivot(T, basis, r, col)

    phase2 = obj + [Fraction(0)] * m
    z = _run_simplex(T, basis, phase2, [True] * n + [False] * m)

    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = T[r][-1]
    value = sum(obj[j] * x[j] for j in range(n))
    y = [-s * z[n + i] for i, s in enumerate(signs)]
    if not maximize:
        value = -value
        y = [-v for v in y]
    return LpResult(value, tuple(x), tuple(y)), basis


def verify_lp_certificate(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
    result: LpResult,
    *,
    maximize: bool = True,
) -> bool:
    m, n = len(A), len(c)
    x, y = result.x, result.y
    if len(x) != n or len(y) != m or len(b) != m:
        return False
    if any(len(row) != n for row in A) or any(v < 0 for v in x):
        return False
    aty = [Fraction(0)] * n
    for i, row in enumerate(A):
        if sum(a * x[j] for j, a in enumerate(row) if a and x[j]) != b[i]:
            return False
        if y[i]:
            for j, a in enumerate(row):
                if a:
                    aty[j] += a * y[i]
    for j in range(n):
        reduced = c[j] - aty[j]
        if maximize and reduced > 0:
            return False
        if not maximize and reduced < 0:
            return False
    primal = sum(c[j] * x[j] for j in range(n) if x[j])
    dual = sum(b[i] * y[i] for i in range(m) if y[i])
    return primal == dual == result.value
