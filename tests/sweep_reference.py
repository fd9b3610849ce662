"""The Fraction sweep for Minkowski(d), d >= 2, kept by the tests as a
reference for the integer one in `causalbox.separation`.

It is the sweep as it stood before the integer rewrite, with the same
tie sets at every depth down to a point, as the integer sweep has now:
every coefficient, tie line, Lagrange family and root is a `Fraction`
or a `QuadExt` over Fractions in the original units.
`sweep(gather, avoid, ties)` takes validated point events, as
`separation._sweep` does, and returns the same rational (tau, x) or
None; patching it in for `_sweep` gives the reference verdict, reason
and witness of `separated()`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, mul
from typing import Sequence

from causalbox.geometry import Event
from causalbox.rational import QuadExt

Vec = tuple[Fraction, ...]

Ev = tuple[Fraction, Vec, Fraction]  # (t, a, delta) on a cut


def _mink(u: Vec, v: Vec) -> Fraction:
    return u[0] * v[0] - sum(map(mul, u[1:], v[1:]))


def _solve(rows: list[list[Fraction]], n: int) -> tuple[Vec, list[Vec]] | None:
    """A point and a basis of directions of the solutions in n unknowns of
    the rows (coefficients, then right-hand side); None if inconsistent."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(col)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    point = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        point[col] = rows[r][n]
    dirs = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        dirs.append(tuple(v))
    return tuple(point), dirs


def _critical(
    form, lin, const, base: Vec, dirs: list[Vec], y: tuple, tau: tuple,
    latest: Fraction, tie: bool,
) -> list[QuadExt]:
    """Critical values of y on {q = 0}, where q(u) = form(u, u) +
    2 lin(u) + const and u runs over base + span(dirs).

    y and tau are affine in u, given as (constant, linear part).  If u
    runs over a line of tie equations' solutions (tie), its roots are
    the tie points, all critical; on a line of Lagrange points along
    which y moves, the roots are the critical points.  Roots are kept on
    the future sheets (tau >= latest).  A constant y is one critical
    value, attained or approached at infinity.  Otherwise the Lagrange
    points (A theta + b = mu * Y) form a smaller family, and the search
    repeats on it; a family as large as the space means q depends on y
    alone.
    """
    A = [[form(v, w) for w in dirs] for v in dirs]
    b = [form(v, base) + lin(v) for v in dirs]
    c = form(base, base) + 2 * lin(base) + const
    y0, ys = y[0] + y[1](base), [y[1](v) for v in dirs]
    t0, ts = tau[0] + tau[1](base), [tau[1](v) for v in dirs]
    p = len(dirs)
    if p == 1 and (tie or ys[0]):
        return [
            r * ys[0] + y0
            for r in _roots(A[0][0], 2 * b[0], c)
            if (r * ts[0] + t0).cmp(latest) >= 0
        ]
    if not any(ys):
        return [QuadExt.rational(y0)]
    sol = _solve([[*A[i], -ys[i], -b[i]] for i in range(p)], p + 1)
    if sol is None:
        return []
    point, family = sol
    if len(family) == p:
        i = next(i for i, k in enumerate(ys) if k)
        return [r + y0 for r in _roots(A[i][i] / ys[i] ** 2, 2 * b[i] / ys[i], c)]
    return _critical(
        lambda u, v: sum(u[i] * sum(map(mul, A[i], v)) for i in range(p)),
        lambda u: sum(map(mul, b, u)),
        c,
        point[:p],
        [v[:p] for v in family],
        (y0, lambda u: sum(map(mul, ys, u))),
        (t0, lambda u: sum(map(mul, ts, u))),
        latest,
        False,
    )


def _tie_extrema(tie: Sequence[Ev]) -> list[QuadExt]:
    """Critical values of y1 on the future tie set of the events."""
    (t0, a0, d0), rest = tie[0], tie[1:]
    rows = []
    for t, a, d in rest:
        diff = (t - t0, *(x - x0 for x, x0 in zip(a, a0)))
        rows.append([diff[0], *(-x for x in diff[1:]), (_mink(diff, diff) - d + d0) / 2])
    k = len(a0)
    sol = _solve(rows, k + 1)
    if sol is None or len(sol[1]) != k + 2 - len(tie):
        # Dependent equations: the tie set is a smaller set's, or empty.
        return []
    return _critical(
        _mink, lambda u: 0, -d0, *sol, (a0[0], itemgetter(1)), (t0, itemgetter(0)),
        max(e[0] for e in tie), True,
    )


def _roots(c2: Fraction, c1: Fraction, c0: Fraction) -> list[QuadExt]:
    """Real roots of c2*z^2 + c1*z + c0; none when it vanishes identically."""
    if c2 == 0:
        return [QuadExt.rational(-c0 / c1)] if c1 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    mid = -c1 / (2 * c2)
    if disc == 0:
        return [QuadExt.rational(mid)]
    # sqrt(n/d) = sqrt(n*d)/d: the radicand stays raw, nothing is factored.
    half = 1 / (2 * c2 * disc.denominator)
    rad = disc.numerator * disc.denominator
    return [QuadExt(mid, -half, rad), QuadExt(mid, half, rad)]


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with the smallest denominator strictly inside (lo, hi)."""
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -_simplest_between(-hi, -lo)
    whole = math.floor(lo)
    if whole + 1 < hi:
        return Fraction(whole + 1)
    if lo == whole:
        return whole + Fraction(1, math.floor(1 / (hi - whole)) + 1)
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _between(v: QuadExt, w: QuadExt) -> Fraction:
    """A simple rational strictly between v < w."""
    bits = 32
    while True:
        lo, hi = v.bounds(bits)[1], w.bounds(bits)[0]
        if lo < hi:
            return _simplest_between(lo, hi)
        bits *= 2


def _samples(values: list[QuadExt]) -> list[Fraction]:
    """A rational in each gap between the distinct values, then one beyond
    each end: every open interval whose ends are among the values, or
    infinite, contains one of them."""
    if not values:
        return [Fraction(0)]
    values = sorted(values)
    out = [_between(v, w) for v, w in zip(values, values[1:]) if v < w]
    out.append(Fraction(math.floor(values[0].bounds(32)[0]) - 1))
    out.append(Fraction(math.ceil(values[-1].bounds(32)[1]) + 1))
    return out


def _arrival(e: Ev) -> QuadExt:
    """t + sqrt(delta) of a fully cut event (t, (), delta), with a raw
    radicand."""
    t, _, d = e
    return QuadExt(t, Fraction(1, d.denominator), d.numerator * d.denominator)


def _plane_ev(e: Event) -> Ev:
    """The sweep's (t, a, 0) of a validated point event, int coordinates
    made Fractions so that every division in the sweep stays exact."""
    return Fraction(e.t), tuple(map(Fraction, e.x)), Fraction(0)  # type: ignore[arg-type]


def _cut(e: Ev, c: Fraction) -> Ev:
    t, a, d = e
    return t, a[1:], d + (c - a[0]) ** 2


def _critical_x1(gather: list[Ev], avoid: list[Ev]) -> list[QuadExt]:
    """The critical x1 values of a cut problem."""
    events = [*gather, *avoid]
    n, crit = len(gather), []
    for size in range(2, len(gather[0][1]) + 2):
        for tie in combinations(range(len(events)), size):
            if tie[0] < n <= tie[-1]:  # at least one gathered and one avoided
                crit += _tie_extrema([events[i] for i in tie])
    return crit


def _sweep(gather: list[Ev], avoid: list[Ev]) -> tuple[Fraction, Vec] | None:
    """A rational (tau, x) with x in W, or None when W is empty."""
    if not gather[0][1]:
        late = max(map(_arrival, gather))
        early = min(map(_arrival, avoid))
        if not late < early:
            return None
        lo, hi = late.bounds()
        return (lo if lo == hi else _between(late, early)), ()
    for x1 in _samples(_critical_x1(gather, avoid)):
        found = _sweep([_cut(e, x1) for e in gather], [_cut(e, x1) for e in avoid])
        if found is not None:
            return found[0], (x1, *found[1])
    return None


def sweep(
    gather: Sequence[Event], avoid: Sequence[Event], ties: dict | None = None
) -> tuple[Fraction, Vec] | None:
    """A rational (tau, x) with x in W, or None when W is empty.  ties
    stands in for the library's tie memo and is not read: the reference
    solves every tie afresh."""
    return _sweep([_plane_ev(g) for g in gather], [_plane_ev(p) for p in avoid])
