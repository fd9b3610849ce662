"""Two-phase primal simplex over exact rationals, pivoting in integers.

Solves max/min of c.x subject to A x = b, x >= 0, where every entry of
A, b and c is an int or a Fraction.  Each tableau row, and the
reduced-cost row, is a list of integer numerators over one positive row
denominator.  A pivot divides its row by the pivot entry p, which leaves
numerators over |p|; every other row with a nonzero entry f in the pivot
column becomes (row*|p| - f*line) / (d*|p|), reduced by its gcd, and a
row the pivot column misses is left as it is.  The ratio test compares
rhs_r/a_r by cross-multiplication, since both share the row's
denominator.  Bland's smallest index rule keeps pivoting finite, and
every answer ships with the dual vector of the final basis so callers
can hand out zero-gap optimality certificates.  Fractions are built only
for the returned value, vertex and dual.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# A tableau row: integer numerators, the rhs last, over one positive
# denominator.
Row = tuple[list[int], int]
# A normalised pivot row: its column, its denominator (the row's entry in
# that column) and its nonzero (column, numerator) pairs.
Pivot = tuple[int, int, list[tuple[int, int]]]


class InfeasibleError(ValueError):
    pass


class UnboundedError(ValueError):
    pass


@dataclass(frozen=True)
class LpResult:
    value: Fraction
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """Rational values as integer numerators over their least common
    denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def verify_lp_certificate(
    A: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    c: Sequence[Fraction],
    result: LpResult,
    *,
    maximize: bool = True,
) -> bool:
    """Zero-gap check from raw data: primal feasible, dual feasible,
    objective values equal.  Every entry is an int or a Fraction.

    All comparisons are exact and run in integers: x, y, c, b and each
    row of A are scaled to integer numerators over their own least
    common denominator, and every equation and sign is compared with
    the denominators cross-multiplied."""
    m, n = len(A), len(c)
    if len(result.x) != n or len(result.y) != m or len(b) != m:
        return False
    if any(len(row) != n for row in A):
        return False
    xs, dx = _over_lcm(result.x)
    ys, dy = _over_lcm(result.y)
    if any(v < 0 for v in xs):
        return False
    rows = []
    for row, bi in zip(A, b):
        # Row i of A as its nonzero (j, numerator) over one denominator d;
        # A_i x = b_i holds iff the integer sum equals b_i * d * dx.
        cells = [(j, a) for j, a in enumerate(row) if a]
        d = math.lcm(*(a.denominator for _, a in cells))
        ints = [(j, a.numerator * (d // a.denominator)) for j, a in cells]
        if sum(a * xs[j] for j, a in ints) * bi.denominator != bi.numerator * d * dx:
            return False
        rows.append((ints, d))
    # aty[j] / (da * dy) is the j-th entry of Aᵀ y.
    da = math.lcm(*(d for _, d in rows))
    aty = [0] * n
    for (ints, d), yi in zip(rows, ys):
        if yi:
            w = yi * (da // d)
            for j, a in ints:
                aty[j] += a * w
    cs, dc = _over_lcm(c)
    scale = da * dy
    for cj, aj in zip(cs, aty):
        # c_j − (Aᵀy)_j has the sign of cj * da * dy − dc * aj
        reduced = cj * scale - dc * aj
        if (reduced > 0) if maximize else (reduced < 0):
            return False
    bs, db = _over_lcm(b)
    v = result.value
    primal = sum(cj * xj for cj, xj in zip(cs, xs) if xj)  # c.x * dc * dx
    dual = sum(bi * yi for bi, yi in zip(bs, ys))  # b.y * db * dy
    return (
        primal * v.denominator == v.numerator * dc * dx
        and dual * v.denominator == v.numerator * db * dy
    )


def _eliminate(row: list[int], d: int, pivot: Pivot) -> Row:
    """row/d minus row[col]/d times the normalised pivot row line/dp,
    whose entry in col is dp: (row*dp - row[col]*line) / (d*dp), reduced
    by the gcd of every numerator and the denominator.  Only the columns
    of the pivot row's support change beyond the scaling by dp."""
    col, dp, support = pivot
    f = row[col]
    new = row[:] if dp == 1 else [a * dp for a in row]
    for j, w in support:
        new[j] -= f * w
    nd = d * dp
    if nd > 1:
        g = math.gcd(nd, *new)
        if g > 1:
            return [a // g for a in new], nd // g
    return new, nd


def _pivot(T: list[Row], basis: list[int], row: int, col: int) -> Pivot:
    """Pivot on T[row] at col in place and return the pivot (col, dp,
    support) of the normalised pivot row; rows whose entry in col is
    zero keep their lists."""
    line = T[row][0]
    p = line[col]
    if p < 0:
        line, p = [-w for w in line], -p
    g = math.gcd(*line)
    if g > 1:
        line, p = [w // g for w in line], p // g
    T[row] = (line, p)
    pivot = (col, p, [(j, w) for j, w in enumerate(line) if w])
    for r, (other, d) in enumerate(T):
        if r != row and other[col]:
            T[r] = _eliminate(other, d, pivot)
    basis[row] = col
    return pivot


def _run_simplex(
    T: list[Row],
    basis: list[int],
    cost: Row,
    allowed: Sequence[bool],
) -> Row:
    """Maximize cost.x on the tableau in place (Bland's rule) and return
    the final reduced-cost row: cost minus c_B B^-1 times every column,
    the rhs last."""
    nums, dz = cost
    z = (nums + [0], dz)
    # Row r's entry in its basic column is 1, so its numerator there is
    # the row's denominator and it eliminates like a normalised pivot row.
    for r, (row, d) in enumerate(T):
        col = basis[r]
        if z[0][col]:
            z = _eliminate(*z, (col, d, [(j, w) for j, w in enumerate(row) if w]))
    while True:
        zn = z[0]
        enter = next((j for j in range(len(nums)) if allowed[j] and zn[j] > 0), -1)
        if enter < 0:
            return z
        # Both sides of a ratio share the row's denominator, so comparing
        # rhs_r/a_r by cross-multiplication needs no Fraction.
        leave = -1
        for r, (row, _) in enumerate(T):
            a = row[enter]
            if a > 0:
                rhs = row[-1]
                if leave < 0:
                    leave, a_best, rhs_best = r, a, rhs
                    continue
                lhs, other = rhs * a_best, rhs_best * a
                if lhs < other or (lhs == other and basis[r] < basis[leave]):
                    leave, a_best, rhs_best = r, a, rhs
        if leave < 0:
            raise UnboundedError("objective unbounded above")
        pivot = _pivot(T, basis, leave, enter)
        if zn[enter]:
            z = _eliminate(*z, pivot)


def _int_row(values: Sequence, sign: int) -> Row:
    """sign*values as integer numerators over their common denominator."""
    d = math.lcm(*(v.denominator for v in values))
    return [sign * v.numerator * (d // v.denominator) for v in values], d


def solve_lp(
    A: Sequence[Sequence],
    b: Sequence,
    c: Sequence,
    *,
    maximize: bool = True,
) -> LpResult:
    """Exact optimum of c.x over {A x = b, x >= 0}.

    Every entry of A, b and c must be an int or a Fraction (not a bool);
    anything else raises ValueError.  Returns the optimal value, a primal
    vertex, and the dual vector y of the final basis; the triple always
    passes verify_lp_certificate.
    """
    m, n = len(A), len(c)
    if any(len(row) != n for row in A) or len(b) != m:
        raise ValueError("inconsistent LP dimensions")
    for v in itertools.chain(c, b, *A):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise ValueError(f"LP entry {v!r} is not an int or a Fraction")
    signs = [-1 if v < 0 else 1 for v in b]

    # Tableau columns: n originals, m artificials, then the rhs.  Rows
    # with b_i < 0 are negated so the artificial basis starts feasible.
    T: list[Row] = []
    for i, s in enumerate(signs):
        nums, d = _int_row([*A[i], b[i]], s)
        unit = [0] * m
        unit[i] = d
        T.append((nums[:n] + unit + nums[n:], d))
    basis = [n + i for i in range(m)]
    _run_simplex(T, basis, ([0] * n + [-1] * m, 1), [True] * (n + m))
    if any(T[r][0][-1] for r in range(m) if basis[r] >= n):
        raise InfeasibleError("constraints admit no nonnegative solution")
    # Pivot leftover artificials out wherever an original column can take
    # over; rows that cannot are identically zero and stay inert.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][0][j]), None)
            if col is not None:
                _pivot(T, basis, r, col)

    sense = 1 if maximize else -1
    obj, dc = _int_row(c, sense)
    allowed = [True] * n + [False] * m
    zn, dz = _run_simplex(T, basis, (obj + [0] * m, dc), allowed)

    x = [Fraction(0)] * n
    for (row, d), j in zip(T, basis):
        if j < n:
            x[j] = Fraction(row[-1], d)
    # The rhs entry of z is -c_B B^-1 b, the objective value negated.  The
    # artificial columns started as I and now hold B^-1, and each has
    # phase-2 cost 0, so z there is -c_B B^-1: the dual, negated.
    value = Fraction(-sense * zn[-1], dz)
    y = [Fraction(-sense * s * zn[n + i], dz) for i, s in enumerate(signs)]
    return LpResult(value, tuple(x), tuple(y))
