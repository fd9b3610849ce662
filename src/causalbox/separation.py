"""Decide whether a family of events can be gathered at a single event
that stays outside the strict causal future of every member of a second
family.

Every verdict is exact: finite orders by an exhaustive scan, both 1+1
backends by a quadrant sweep in lightcone coordinates, and Minkowski(d)
with d >= 2 by a rational sweep that cuts at the critical values of x1
and recurses one dimension lower, down to lines of the plane.  No engine
returns UNKNOWN.  Every SEPARATED result carries a rational witness
event that re-verifies against the raw causal relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from operator import itemgetter, mul
from typing import Sequence

from .geometry import (
    CausalOrder,
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
    _cone_future,
    _scaled_null_coords,
    event_from_null,
)
from .rational import QuadExt

Vec = tuple[Fraction, ...]


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
    for e in (*gather, *avoid):
        order.validate_event(e)
    return _gathers(order._precedes, gather, avoid, q)


def _gathers(prec, gather: Sequence[Event], avoid: Sequence[Event], q: Event) -> bool:
    """The witness property for validated events, with prec the order's
    unchecked strict relation."""
    return all(g == q or prec(g, q) for g in gather) and not any(
        prec(p, q) for p in avoid
    )


# ----------------------------------------------------------------------
# exact sweep for Minkowski(d), d >= 2
#
# Gathered events are (t_i, a_i), avoided ones (s_k, b_k).  Unless an
# avoided event is itself a witness, (tau, x) separates exactly when
# T(x) <= tau < S(x), with T(x) = max_i t_i + |x - a_i| and
# S(x) = min_k s_k + |x - b_k|.  So the question is whether the open set
# W = {x : T(x) < S(x)} is empty.
#
# Cut at x1 = c.  An event (t, a) then arrives at a point y of the cut
# at t + sqrt(|y - a'|^2 + delta) with a' = (a2, ..., ad) and
# delta = (c - a1)^2: the same problem one dimension lower, for events
# that carry an offset delta >= 0 (one more cut adds to it).  Every
# component of W projects to an open x1-interval whose finite ends are
# critical values of x1: at the lower end the closure of the component
# reaches a point x* where T = S, and x* is a cone apex, or a point of
# the tie set {arrivals of J all equal} of some event set J with at
# least one gathered and one avoided event at which x1 is critical
# (Lagrange or singular), or x* escapes to infinity along such a tie
# set's asymptote.  A rational cut in each gap between the critical
# values, and one beyond each end, therefore meets every component, and
# W is empty exactly when it is empty on every cut.  The recursion runs
# down to the plane, whose cuts are lines: there W is a union of gaps
# between the roots in y of the gathered/avoided pair conics, so one
# rational point per gap decides.
#
# In (tau, y) with u = (tau, y) - (t0, a0), the tie set of J is
# <d_j, u> = (<d_j, d_j> - delta_j + delta_0)/2 for the differences d_j
# of the other events from the first, on the quadric <u, u> = delta_0
# (<,> the Minkowski form), future sheets only.  Its critical points
# solve linear equations and one quadratic, so every critical value is
# a + b*sqrt(R) and sorts exactly.  Cone apices are only at the top
# level: a cut never passes through a critical value, so deeper offsets
# are positive.  On the plane, pairs keep their conic's vertical
# tangents and asymptotes (the discriminant in y), which also gives one
# harmless extra abscissa where a double line meets y = 0.

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


def _pair_conic(g: Ev, p: Ev) -> tuple[Fraction, ...]:
    """Coefficients (al, b1, b0, g2, g1, g0) of the conic
    al*y^2 + (b1*x1 + b0)*y + g2*x1^2 + g1*x1 + g0 = 0 that holds on the
    curve t + |x - a|_g = s + |x - b|_p of gathered (t, a) and avoided
    (s, b) on a plane cut, where |x - a|_e^2 = |x - a|^2 + delta_e.

    With c = t - s and L = |x - b|_p^2 - |x - a|_g^2, which is linear in
    x, the curve gives L - c^2 = 2c|x - a|_g; squaring yields the conic.
    """
    (t, (a1, a2), da), (s, (b1, b2), db) = g, p
    c = t - s
    l1, l2 = 2 * (a1 - b1), 2 * (a2 - b2)
    l0 = b1 * b1 + b2 * b2 + db - a1 * a1 - a2 * a2 - da - c * c
    k = 4 * c * c
    return (
        l2 * l2 - k,
        2 * l2 * l1,
        2 * l2 * l0 + 2 * k * a2,
        l1 * l1 - k,
        2 * l1 * l0 + 2 * k * a1,
        l0 * l0 - k * (a1 * a1 + a2 * a2 + da),
    )


def _vertical_tangents(conic: tuple[Fraction, ...]) -> list[QuadExt]:
    """x1 where the conic, as a quadratic in y, has a double root or loses
    its y^2 term: vertical tangents and asymptotes.  A double line has a
    double root everywhere; then the roots of the y-free part give its
    x1 if it is vertical."""
    al, b1, b0, g2, g1, g0 = conic
    disc = (b1 * b1 - 4 * al * g2, 2 * b1 * b0 - 4 * al * g1, b0 * b0 - 4 * al * g0)
    return _roots(*disc) if any(disc) else _roots(g2, g1, g0)


def _arrival(e: Ev, x: Vec) -> QuadExt:
    """t + |x - a|_e exactly, with a raw radicand."""
    t, (a1, a2), d = e
    dx, dy = x[0] - a1, x[1] - a2
    r2 = dx * dx + dy * dy + d
    return QuadExt(t, Fraction(1, r2.denominator), r2.numerator * r2.denominator)


def _plane_ev(e: Event) -> Ev:
    """The sweep's (t, a, 0) of a validated point event, int coordinates
    made Fractions so that every division in the sweep stays exact."""
    return Fraction(e.t), tuple(map(Fraction, e.x)), Fraction(0)  # type: ignore[arg-type]


def _cut(e: Ev, c: Fraction) -> Ev:
    t, a, d = e
    return t, a[1:], d + (c - a[0]) ** 2


def _critical_x1(gather: list[Ev], avoid: list[Ev]) -> tuple[list[QuadExt], list]:
    """The critical x1 values of a cut problem, and on the plane the
    gathered/avoided pair conics."""
    k = len(gather[0][1])
    events = [*gather, *avoid]
    crit = [QuadExt.rational(a[0]) for _, a, d in events if not d]
    conics = []
    if k == 2:
        conics = [_pair_conic(g, p) for g in gather for p in avoid if g[1:] != p[1:]]
        for conic in conics:
            crit += _vertical_tangents(conic)
    n = len(gather)
    for size in range(3 if k == 2 else 2, k + 2):
        for tie in combinations(range(len(events)), size):
            if tie[0] < n <= tie[-1]:  # at least one gathered and one avoided
                crit += _tie_extrema([events[i] for i in tie])
    return crit, conics


def _sweep(gather: list[Ev], avoid: list[Ev]) -> tuple[Fraction, Vec] | None:
    """A rational (tau, x) with x in W, or None when W is empty."""
    crit, conics = _critical_x1(gather, avoid)
    k = len(gather[0][1])
    for x1 in _samples(crit):
        if k > 2:
            found = _sweep([_cut(e, x1) for e in gather], [_cut(e, x1) for e in avoid])
            if found is not None:
                return found[0], (x1, *found[1])
            continue
        ys: list[QuadExt] = []
        for al, b1, b0, g2, g1, g0 in conics:
            ys += _roots(al, b1 * x1 + b0, (g2 * x1 + g1) * x1 + g0)
        for y in _samples(ys):
            x = (x1, y)
            late = max(_arrival(g, x) for g in gather)
            early = min(_arrival(p, x) for p in avoid)
            if late < early:
                lo, hi = late.bounds()
                return (lo if lo == hi else _between(late, early)), x
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
    where the set of blocking constraints changes.  Coordinates are
    ints over one common denominator of the call's events.
    """
    terminated = isinstance(order, TerminatedDiagram)
    den, coords = _scaled_null_coords([*gather, *avoid])
    gu, blockers = coords[: len(gather)], coords[len(gather) :]
    ustar = max(u for u, _ in gu)
    vstar = max(v for _, v in gu)
    if terminated and not order._null_below(ustar, vstar, den):
        return SeparationResult(
            Verdict.NOT_SEPARATED,
            reason="no_common_future",
            detail="the gathered family has no joint future inside the domain",
        )
    for p, (up, vp) in zip(avoid, blockers):
        # The families are duplicate-free, so only p itself has p's
        # coordinates, and any other blocker below them strictly precedes p.
        if up >= ustar and vp >= vstar and not any(
            uk <= up and vk <= vp and (uk, vk) != (up, vp) for uk, vk in blockers
        ):
            return SeparationResult(
                Verdict.SEPARATED, witness=p, reason="gather_at_avoid_point"
            )
    for u in sorted({ustar} | {ub for ub, _ in blockers if ub > ustar}):
        if terminated and not order._null_below(u, vstar, den):
            # The domain margin only shrinks further along the sweep.
            break
        active = [vb for ub, vb in blockers if ub <= u]
        if not active or vstar < min(active):
            return SeparationResult(
                Verdict.SEPARATED,
                witness=event_from_null(Fraction(u, den), Fraction(vstar, den)),
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
    gathered, avoided = dict.fromkeys(gather), dict.fromkeys(avoid)
    # The merge reuses the stored hashes.
    for e in {**gathered, **avoided}:
        order.validate_event(e)
    return _separated(order, list(gathered), list(avoided))


def _separated(
    order: CausalOrder, gather: list[Event], avoid: list[Event]
) -> SeparationResult:
    """separated() on duplicate-free families, gather nonempty, of events
    the order has already validated."""
    prec = order._precedes
    for p in avoid:
        for q in gather:
            if prec(p, q):
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
        for label in order.elements:
            cand = Event.named(label)
            if _gathers(prec, gather, avoid, cand):
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
            witness=_cone_future(gather),
            reason="common_future",
        )

    witness = next((p for p in avoid if _gathers(prec, gather, avoid, p)), None)
    if witness is None:
        found = _sweep([_plane_ev(g) for g in gather], [_plane_ev(p) for p in avoid])
        if found is None:
            return SeparationResult(
                Verdict.NOT_SEPARATED,
                reason="cone_closure",
                detail="every gathering event is strictly after an avoided event",
            )
        witness = Event(t=found[0], x=found[1])
    early = witness.t <= min(p.t for p in avoid)  # type: ignore[type-var]
    return SeparationResult(
        Verdict.SEPARATED,
        witness=witness,
        reason="gather_before_avoid" if early else "plane_sweep",
    )
