"""The plane engine's critical abscissae and the grid witness search as
they stood before the dimension-generic sweep, kept as references.

`plane_critical_x1` lists the plane sweep's critical x1 values in its
own order; the generic sweep must produce the same set on the plane.
`search_witness` looks for a rational witness on dyadic grids over
the gathered events' common slices; it never refutes, so a witness it
finds contradicts a NOT_SEPARATED verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from causalbox.geometry import Event, Minkowski
from causalbox.rational import QuadExt
from causalbox.separation import _roots, _vertical_tangents, verify_separation_witness

Vec = tuple[Fraction, ...]

SEARCH_STEPS = 8


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _norm2(a: Vec) -> Fraction:
    return _dot(a, a)


def _tangency_points(ci: Vec, ri: Fraction, ck: Vec, rk: Fraction) -> list[Vec]:
    e = _vsub(ck, ci)
    d2 = _norm2(e)
    pts: list[Vec] = []
    if d2 == (ri + rk) ** 2 and ri + rk > 0:
        lam = ri / (ri + rk)
        pts.append(tuple(a + lam * d for a, d in zip(ci, e)))
    if ri != rk and d2 == (ri - rk) ** 2 and d2 > 0:
        lam = ri / (ri - rk)
        pts.append(tuple(a + lam * d for a, d in zip(ci, e)))
    return pts


def _grid_candidates(
    order: Minkowski, gather: Sequence[Event], t: Fraction, levels: int
):
    radii = [t - q.t for q in gather]  # type: ignore[operator]
    if any(r < 0 for r in radii):
        return
    lo = [
        max(q.x[a] - r for q, r in zip(gather, radii))  # type: ignore[index]
        for a in range(order.dim)
    ]
    hi = [
        min(q.x[a] + r for q, r in zip(gather, radii))  # type: ignore[index]
        for a in range(order.dim)
    ]
    if any(l > h for l, h in zip(lo, hi)):
        return
    seen: set[Vec] = set()
    for level in range(levels + 1):
        n = 2**level
        axes = [
            [l + (h - l) * Fraction(i, n) for i in range(n + 1)]
            for l, h in zip(lo, hi)
        ]
        for combo in product(*axes):
            if combo in seen:
                continue
            seen.add(combo)
            yield Event(t=t, x=tuple(combo))


def search_witness(
    order: Minkowski,
    gather: Sequence[Event],
    avoid: Sequence[Event],
) -> Event | None:
    candidates: list[Event] = list(avoid)
    cf = order.common_future(gather)
    if cf is not None:
        candidates.append(cf)
    for p in avoid:
        assert p.t is not None
        radii = [p.t - q.t for q in gather]  # type: ignore[operator]
        if any(r < 0 for r in radii):
            continue
        for q in gather:
            candidates.append(Event(t=p.t, x=q.x))
        for (qi, ri), (qk, rk) in combinations(zip(gather, radii), 2):
            for pt in _tangency_points(qi.x, ri, qk.x, rk):  # type: ignore[arg-type]
                candidates.append(Event(t=p.t, x=pt))
    for cand in candidates:
        if verify_separation_witness(order, gather, avoid, cand):
            return cand
    times = [e.t for e in [*gather, *avoid]]
    tbase = max(times) + 1  # type: ignore[operator]
    levels = 5 if order.dim == 2 else 3
    for step in range(SEARCH_STEPS):
        t = tbase + 2**step - 1
        for cand in _grid_candidates(order, gather, t, levels):
            if verify_separation_witness(order, gather, avoid, cand):
                return cand
    return None


def _cross(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _pair_conic(g: Event, p: Event) -> tuple[Fraction, ...]:
    """Coefficients (al, b1, b0, g2, g1, g0) of the conic
    al*y^2 + (b1*x1 + b0)*y + g2*x1^2 + g1*x1 + g0 = 0 that holds on the
    curve t + |x - a| = s + |x - b| of gathered (t, a) and avoided (s, b).

    With c = t - s and L = |x - b|^2 - |x - a|^2, which is linear in x,
    the curve gives L - c^2 = 2c|x - a|; squaring yields the conic.
    """
    (a1, a2), (b1, b2) = g.x, p.x  # type: ignore[misc]
    c = g.t - p.t  # type: ignore[operator]
    l1, l2 = 2 * (a1 - b1), 2 * (a2 - b2)
    l0 = b1 * b1 + b2 * b2 - a1 * a1 - a2 * a2 - c * c
    k = 4 * c * c
    return (
        l2 * l2 - k,
        2 * l2 * l1,
        2 * l2 * l0 + 2 * k * a2,
        l1 * l1 - k,
        2 * l1 * l0 + 2 * k * a1,
        l0 * l0 - k * (a1 * a1 + a2 * a2),
    )


def _triple_abscissae(e0: Event, e1: Event, e2: Event) -> list[QuadExt]:
    """x1 of the points where the future light cones of three events meet.

    Subtracting the cone equations leaves two planes in (x1, y, tau);
    their common line meets the first cone at most twice.  Parallel
    planes mean collinear events: either no common point, or all three
    on one light ray, where two of one kind are causally related and the
    earlier gathered (later avoided) one never bounds W on its own.
    """
    (x0, y0), t0 = e0.x, e0.t  # type: ignore[misc]
    rows = [
        (
            (2 * (e.x[0] - x0), 2 * (e.x[1] - y0), -2 * (e.t - t0)),  # type: ignore
            _norm2(e.x) - x0 * x0 - y0 * y0 - e.t * e.t + t0 * t0,  # type: ignore
        )
        for e in (e1, e2)
    ]
    (n1, c1), (n2, c2) = rows
    d = _cross(n1, n2)
    dd = _dot(d, d)
    if dd == 0:
        return []
    base = tuple(
        (c1 * u + c2 * v) / dd for u, v in zip(_cross(n2, d), _cross(d, n1))
    )
    w = (base[0] - x0, base[1] - y0, base[2] - t0)

    def mink(u: Vec, v: Vec) -> Fraction:
        return u[2] * v[2] - u[0] * v[0] - u[1] * v[1]

    latest = max(e0.t, e1.t, e2.t)  # type: ignore[type-var]
    return [
        lam * d[0] + base[0]
        for lam in _roots(mink(d, d), 2 * mink(w, d), mink(w, w))
        if (lam * d[2] + base[2]).cmp(latest) >= 0  # future sheets only
    ]


def plane_critical_x1(gather: Sequence[Event], avoid: Sequence[Event]) -> list[QuadExt]:
    conics = [_pair_conic(g, p) for g in gather for p in avoid if g.x != p.x]
    events = [*gather, *avoid]
    crit = [QuadExt.rational(e.x[0]) for e in events]  # type: ignore[index]
    for conic in conics:
        crit += _vertical_tangents(conic)
    n = len(gather)
    for i, j, k in combinations(range(len(events)), 3):
        if i < n <= k:
            crit += _triple_abscissae(events[i], events[j], events[k])
    return crit
