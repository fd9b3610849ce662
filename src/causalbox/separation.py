"""Decide whether a family of events can be gathered at a single event
that stays outside the strict causal future of every member of a second
family.

Verdicts are exact for finite orders (exhaustive scan), for both 1+1
backends (a quadrant sweep in lightcone coordinates) and for the plane
(a rational sweep over the critical lines of the light-cone conics).
Only Minkowski(d) with d >= 3 falls back to a grid search for a
certificate and reports UNKNOWN, rather than guess, when it finds none.
Every SEPARATED result carries a rational witness event that re-verifies
against the raw causal relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .geometry import (
    CausalOrder,
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
    event_from_null,
    null_coords,
)
from .rational import QuadExt

Vec = tuple[Fraction, ...]

# Time steps of the grid witness search used beyond the plane.
SEARCH_STEPS = 8


class Verdict(Enum):
    SEPARATED = "separated"
    NOT_SEPARATED = "not_separated"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SeparationResult:
    verdict: Verdict
    witness: Event | None = None
    reason: str = ""
    detail: str = ""

    @property
    def is_separated(self) -> bool:
        return self.verdict is Verdict.SEPARATED

    @property
    def is_decided(self) -> bool:
        return self.verdict is not Verdict.UNKNOWN


def verify_separation_witness(
    order: CausalOrder,
    gather: Sequence[Event],
    avoid: Sequence[Event],
    q: Event,
) -> bool:
    """Check the defining property directly: every gathered event reaches
    q causally and no avoided event strictly precedes q."""
    try:
        order.validate_event(q)
    except GeometryError:
        return False
    if not all(order.causally_precedes(g, q) for g in gather):
        return False
    return not any(order.strictly_precedes(p, q) for p in avoid)


# ----------------------------------------------------------------------
# small exact vector helpers (spatial tuples of Fractions)


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))

def _dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))

def _norm2(a: Vec) -> Fraction:
    return _dot(a, a)


# ----------------------------------------------------------------------
# rational witness search beyond the plane (certificates only, never
# used for NOT verdicts; tests also run it on the plane as an oracle)


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


def _search_witness(
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


# ----------------------------------------------------------------------
# exact plane sweep
#
# Gathered events are (t_i, a_i), avoided ones (s_k, b_k).  Unless an
# avoided event is itself a witness, (tau, x) separates exactly when
# T(x) <= tau < S(x), with T(x) = max_i t_i + |x - a_i| and
# S(x) = min_k s_k + |x - b_k|.  So the question is whether the open set
# W = {x : T(x) < S(x)} is empty.  Its boundary lies on the curves
# t_i + |x - a_i| = s_k + |x - b_k|, whose squares are conics, and its
# corners, where the maximum or the minimum changes hands, project from
# points on three light cones.  Hence every component of W projects to
# an open x1-interval whose finite ends are event abscissae, vertical
# tangents or asymptotes of the conics, or triple-cone abscissae, all of
# the form a + b*sqrt(R).  A rational line in each gap between them
# meets every component, and on that line W is a union of gaps between
# the conics' roots in y, so testing one rational point per gap decides.


def _cross(u: Vec, v: Vec) -> Vec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
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


def _vertical_tangents(conic: tuple[Fraction, ...]) -> list[QuadExt]:
    """x1 where the conic, as a quadratic in y, has a double root or loses
    its y^2 term: vertical tangents and asymptotes.  A double line has a
    double root everywhere; then the roots of the y-free part give its
    x1 if it is vertical."""
    al, b1, b0, g2, g1, g0 = conic
    disc = (b1 * b1 - 4 * al * g2, 2 * b1 * b0 - 4 * al * g1, b0 * b0 - 4 * al * g0)
    return _roots(*disc) if any(disc) else _roots(g2, g1, g0)


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


def _arrival(e: Event, x: Vec) -> QuadExt:
    """e.t + |x - e.x| exactly, with a raw radicand."""
    dx, dy = x[0] - e.x[0], x[1] - e.x[1]  # type: ignore[index]
    r2 = dx * dx + dy * dy
    rad = r2.numerator * r2.denominator
    return QuadExt(e.t, Fraction(1, r2.denominator), rad)  # type: ignore[arg-type]


def _plane_sweep(gather: Sequence[Event], avoid: Sequence[Event]) -> Event | None:
    """A rational witness (tau, x) with x in W, or None when W is empty."""
    conics = [_pair_conic(g, p) for g in gather for p in avoid if g.x != p.x]
    events = [*gather, *avoid]
    crit = [QuadExt.rational(e.x[0]) for e in events]  # type: ignore[index]
    for conic in conics:
        crit += _vertical_tangents(conic)
    n = len(gather)
    for i, j, k in combinations(range(len(events)), 3):
        if i < n <= k:  # at least one gathered and one avoided event
            crit += _triple_abscissae(events[i], events[j], events[k])
    for x1 in _samples(crit):
        ys: list[QuadExt] = []
        for al, b1, b0, g2, g1, g0 in conics:
            ys += _roots(al, b1 * x1 + b0, (g2 * x1 + g1) * x1 + g0)
        for y in _samples(ys):
            x = (x1, y)
            late = max(_arrival(g, x) for g in gather)
            early = min(_arrival(p, x) for p in avoid)
            if late < early:
                lo, hi = late.bounds()
                tau = lo if lo == hi else _between(late, early)
                return Event(t=tau, x=x)
    return None


# ----------------------------------------------------------------------
# 1+1 engine in lightcone coordinates


def _quadrant_decide(
    order: CausalOrder, gather: Sequence[Event], avoid: Sequence[Event]
) -> SeparationResult:
    """Complete decision for Minkowski(1) and terminated diagrams.

    Causal precedence in 1+1 is the product order on lightcone
    coordinates, so gathering events form the upper quadrant of the
    componentwise maximum of the gathered family, intersected with the
    domain.  Escapes are swept over the finitely many quadrant columns
    where the set of blocking constraints changes.
    """
    terminated = isinstance(order, TerminatedDiagram)
    gu = [null_coords(q) for q in gather]
    ustar = max(u for u, _ in gu)
    vstar = max(v for _, v in gu)
    if terminated and order.phi(ustar, vstar) <= 0:
        return SeparationResult(
            Verdict.NOT_SEPARATED,
            reason="no_common_future",
            detail="the gathered family has no joint future inside the domain",
        )
    for p in avoid:
        up, vp = null_coords(p)
        if (
            up >= ustar
            and vp >= vstar
            and not any(order.strictly_precedes(pk, p) for pk in avoid)
        ):
            return SeparationResult(
                Verdict.SEPARATED, witness=p, reason="gather_at_avoid_point"
            )
    blockers = [null_coords(p) for p in avoid]
    for u in sorted({ustar} | {ub for ub, _ in blockers if ub > ustar}):
        if terminated and order.phi(u, vstar) <= 0:
            # The domain margin only shrinks further along the sweep.
            break
        active = [vb for ub, vb in blockers if ub <= u]
        if not active or vstar < min(active):
            return SeparationResult(
                Verdict.SEPARATED,
                witness=event_from_null(u, vstar),
                reason="quadrant_escape",
            )
    return SeparationResult(Verdict.NOT_SEPARATED, reason="quadrant_cover")


# ----------------------------------------------------------------------
# public entry point


def separated(
    order: CausalOrder,
    gather: Sequence[Event],
    avoid: Sequence[Event],
) -> SeparationResult:
    """Decide Separated(gather; avoid) over the given causal order.

    SEPARATED means some event q has every gather member causally before
    it while no avoid member strictly precedes it.  The avoided events
    themselves are legal gathering points, which is why only the strict
    relation is excluded.
    """
    if not gather:
        raise ValueError("gather family must be nonempty")
    gather = list(dict.fromkeys(gather))
    avoid = list(dict.fromkeys(avoid))
    for e in [*gather, *avoid]:
        order.validate_event(e)

    for p in avoid:
        for q in gather:
            if order.strictly_precedes(p, q):
                return SeparationResult(
                    Verdict.NOT_SEPARATED,
                    reason="blocked_by_strict_past",
                    detail=f"{p!r} strictly precedes gathered {q!r}",
                )
    if len(gather) == 1:
        # Nothing strictly precedes the single member, so it gathers itself.
        return SeparationResult(
            Verdict.SEPARATED, witness=gather[0], reason="single_gather"
        )

    if isinstance(order, FiniteOrder):
        for label in sorted(order.elements, key=repr):
            cand = Event.named(label)
            if verify_separation_witness(order, gather, avoid, cand):
                return SeparationResult(
                    Verdict.SEPARATED, witness=cand, reason="exhaustive"
                )
        return SeparationResult(Verdict.NOT_SEPARATED, reason="exhaustive")

    if isinstance(order, TerminatedDiagram) or (
        isinstance(order, Minkowski) and order.dim == 1
    ):
        return _quadrant_decide(order, gather, avoid)

    assert isinstance(order, Minkowski)
    if not avoid:
        return SeparationResult(
            Verdict.SEPARATED,
            witness=order.common_future(gather),
            reason="common_future",
        )

    if order.dim == 2:
        witness = next(
            (p for p in avoid if verify_separation_witness(order, gather, avoid, p)),
            None,
        ) or _plane_sweep(gather, avoid)
        if witness is None:
            return SeparationResult(
                Verdict.NOT_SEPARATED,
                reason="cone_closure",
                detail="every gathering event is strictly after an avoided event",
            )
        early = witness.t <= min(p.t for p in avoid)  # type: ignore[type-var]
        return SeparationResult(
            Verdict.SEPARATED,
            witness=witness,
            reason="gather_before_avoid" if early else "plane_sweep",
        )

    witness = _search_witness(order, gather, avoid)
    if witness is not None:
        return SeparationResult(
            Verdict.SEPARATED, witness=witness, reason="witness_search"
        )
    return SeparationResult(
        Verdict.UNKNOWN,
        reason="high_dimension_undecided",
        detail="no exact decision procedure beyond the plane; search found no witness",
    )
