"""Decide whether a family of events can be gathered at a single event
that stays outside the strict causal future of every member of a second
family.

Every verdict is exact: finite orders by an exhaustive scan, both 1+1
backends by a quadrant sweep in lightcone coordinates, and Minkowski(d)
with d >= 2 by a sweep that cuts at the critical values of x1 and
recurses one dimension lower, down to a point.  Both sweeps run on
integers over one common denominator per call; the Minkowski sweep
re-scales at each cut.  No engine returns UNKNOWN.  Every SEPARATED
result carries a rational witness event that re-verifies against the
raw causal relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
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
# reaches a point x* where T = S, and x* is a point of the tie set
# {arrivals of J all equal} of some event set J with at least one
# gathered and one avoided event at which x1 is critical (Lagrange or
# singular), or x* escapes to infinity along such a tie set's
# asymptote.  A rational cut in each gap between the critical values,
# and one beyond each end, therefore meets every component, and W is
# empty exactly when it is empty on every cut.  On a line the tie sets
# of pairs are points, each critical, and a cut leaves a point, where
# the later gathered arrival against the earliest avoided one decides.
#
# Cone apices need no cut of their own, because the sweep runs only
# after _separated's early exits.  Say x* is the apex of an event that
# is active there, so T(x*) = S(x*).
# - A gathered apex (t, a) has T(a) = t, so some avoided (s, b) has
#   s + |a - b| = t.  If that event strictly precedes the gathered one,
#   _separated has returned blocked_by_strict_past.  Otherwise it is the
#   gathered event itself, which gathers every gathered event and which
#   no avoided event strictly precedes, so the avoid-point scan has
#   returned it.
# - At an avoided apex (s, b) every gathered event reaches b by time s.
#   If no avoided event strictly precedes this one, the avoid-point scan
#   has returned it.  If one does, that event lies on this one's light
#   cone; its arrival is smooth at b and no larger than this one's
#   nearby, so the apex is not a corner of S.
# A cut only restricts the same arrival functions, so this holds at
# every depth, where offsets may be 0.
#
# In (tau, y) with u = (tau, y) - (t0, a0), the tie set of J is
# <d_j, u> = (<d_j, d_j> - delta_j + delta_0)/2 for the differences d_j
# of the other events from the first, on the quadric <u, u> = delta_0
# (<,> the Minkowski form), future sheets only.  Its critical points
# solve linear equations and one quadratic, so every critical value is
# a + b*sqrt(R) and sorts exactly.
#
# Arithmetic.  A call scales its events to one common denominator L and
# keeps each event (t, a, delta) as the ints (L t, L a, L^2 delta); a cut
# at x1 = n/q re-scales to lcm(L, q).  Quadric coefficients, tie lines
# and Lagrange families are ints, the last two solved by fraction-free
# Gauss-Jordan, which yields delta times the reduced row echelon form.
# A critical value is (P + Q sqrt(R))/M in ints, and R is the numerator
# times the denominator of the reduced discriminant that the same
# quadratic has over the rationals, in the original units and in the
# parametrisation fixed by the reduced echelon forms: R decides the
# rational bounds that a gap's sample is read from, so it is what makes
# the samples the simplest rationals of those bounds.

IntEv = tuple[int, tuple[int, ...], int]  # (L t, L a, L^2 delta) on a cut
# (key, P, Q, R, M): (P + Q sqrt(R))/M with M > 0, where
# key <= value * 2^64 < key + 2.
Value = tuple[int, int, int, int, int]
Sample = tuple[int, int]  # n/d with d > 0


def _mink(u: Sequence[int], v: Sequence[int]) -> int:
    return u[0] * v[0] - sum(map(mul, u[1:], v[1:]))


def _sign(a: int, b: int, r: int) -> int:
    """The sign of a + b*sqrt(r)."""
    sa, sb = (a > 0) - (a < 0), ((b > 0) - (b < 0)) if r else 0
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    gap = a * a - b * b * r
    return sa if gap > 0 else sb if gap < 0 else 0


def _sign3(a: int, b: int, r1: int, c: int, r2: int) -> int:
    """The sign of a + b*sqrt(r1) + c*sqrt(r2)."""
    if r1 == r2:
        return _sign(a, b + c, r1)
    s1, s2 = math.isqrt(r1), math.isqrt(r2)
    if s1 * s1 == r1:
        return _sign(a + b * s1, c, r2)
    if s2 * s2 == r2:
        return _sign(a + c * s2, b, r1)
    left, right = _sign(a, b, r1), (c > 0) - (c < 0)
    if left == right or not right:
        return left
    # |a + b sqrt(r1)| against |c| sqrt(r2), both sides squared.
    s = _sign(a * a + b * b * r1 - c * c * r2, 2 * a * b, r1)
    return 0 if s == 0 else left if s > 0 else right


def _value(p: int, q: int, r: int, m: int) -> Value:
    """(p + q sqrt(r))/m with its sort key."""
    if m < 0:
        p, q, m = -p, -q, -m
    key = (p << 64) // m
    if q and r:
        root = math.isqrt(q * q * r << 128) // m
        key += root if q > 0 else -root - 1
    return key, p, q, r, m


def _cmp(v: Value, w: Value) -> int:
    if v[0] + 2 <= w[0]:
        return -1
    if w[0] + 2 <= v[0]:
        return 1
    _, p1, q1, r1, m1 = v
    _, p2, q2, r2, m2 = w
    return _sign3(p1 * m2 - p2 * m1, q1 * m2, r1, -q2 * m1, r2)


def _solve(
    rows: list[list[int]], n: int
) -> tuple[int, list[int], list[list[int]]] | None:
    """(delta, point, directions) of the solutions in n unknowns of the
    integer rows (coefficients, then right-hand side), scaled by delta > 0:
    point/delta and directions/delta are the reduced echelon form's
    particular solution and null-space basis, one direction per free
    column, 1 there.  None if inconsistent.

    Fraction-free Gauss-Jordan: every division by the previous pivot is
    exact, and every pivot row ends with the last pivot on its pivot."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(n):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top, lead = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(lead * x - f * y) // prev for x, y in zip(row, top)]
        prev = lead
        pivots.append(col)
    if any(row[n] for row in rows[len(pivots):]):
        return None
    if prev < 0:
        rows, prev = [[-x for x in row] for row in rows], -prev
    point = [0] * n
    for r, col in enumerate(pivots):
        point[col] = rows[r][n]
    dirs = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = prev
        for r, col in enumerate(pivots):
            v[col] = -rows[r][free]
        dirs.append(v)
    return prev, point, dirs


def _roots(c2: int, c1: int, c0: int, e: int) -> list[tuple[int, int, int, int]]:
    """Real roots (p + q sqrt(R))/r of c2*z^2 + c1*z + c0, none when it
    vanishes identically.  The coefficients are a positive multiple of a
    rational quadratic whose discriminant is (c1^2 - 4 c2 c0)/e^2, e > 0;
    R is that discriminant's numerator times its denominator."""
    if c2 == 0:
        return [(-c0, 0, 0, c1)] if c1 else []
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return []
    if disc == 0:
        return [(-c1, 0, 0, 2 * c2)]
    g = math.gcd(disc, e * e)
    rad = disc // g * (e * e // g)
    # sqrt(disc) = g sqrt(rad)/e
    return [(-c1 * e, -g, rad, 2 * c2 * e), (-c1 * e, g, rad, 2 * c2 * e)]


def _line_roots(
    cx: tuple, base: list[int], v: list[int], w: int, rho: int, future: bool
) -> list[Value]:
    """Critical values of y1 where the quadric meets the line (base + s*v)/w
    of u = L*((tau, y) - (t0, a0)), kept on the future sheets if asked.
    Over the rationals the roots are taken along the direction v/rho,
    and their radicands follow that parametrisation."""
    L, d0, t0, y0, latest = cx
    if rho < 0:
        v, rho = [-x for x in v], -rho
    c2, c1, c0 = _mink(v, v), 2 * _mink(v, base), _mink(base, base) - w * w * d0
    out = []
    for p, q, r, m in _roots(c2, c1, c0, rho * w * L):
        lag = ((t0 - latest) * w + base[0]) * m
        if future and _sign(lag + v[0] * p, v[0] * q, r) * m < 0:
            continue
        out.append(_value((y0 * w + base[1]) * m + v[1] * p, v[1] * q, r, m * w * L))
    return out


def _critical(
    cx: tuple, base: list[int], dirs: list[list[int]], w: int, rho: int, tie: bool
) -> list[Value]:
    """Critical values of y1 on the quadric <u, u> = L^2 delta_0 (the
    Minkowski form) over u in (base + span(dirs))/w.  The dirs over rho
    are the rational directions of the reduced echelon forms.

    If u runs over a line of tie equations' solutions (tie), its roots
    are the tie points, all critical; on a line of Lagrange points along
    which y1 moves, the roots are the critical points.  Roots are kept on
    the future sheets (tau >= latest).  A constant y1 is one critical
    value, attained or approached at infinity.  Otherwise the Lagrange
    points (A theta + b = mu * Y) form a smaller family, and the search
    repeats on it; a family as large as the space means the quadric
    depends on y1 alone.
    """
    L, _, _, y0, _ = cx
    p = len(dirs)
    ys = [v[1] for v in dirs]
    if p == 1 and (tie or ys[0]):
        return _line_roots(cx, base, dirs[0], w, rho, True)
    if not any(ys):
        return [_value(y0 * w + base[1], 0, 0, w * L)]
    rows = [
        [*(_mink(v, u) for u in dirs), -rho * y, -_mink(v, base)]
        for v, y in zip(dirs, ys)
    ]
    sol = _solve(rows, p + 1)
    if sol is None:
        return []
    delta, point, family = sol
    if len(family) == p:
        i = next(i for i, y in enumerate(ys) if y)
        return _line_roots(cx, base, dirs[i], w, ys[i], False)
    span = range(len(base))
    return _critical(
        cx,
        [delta * base[j] + sum(c * v[j] for c, v in zip(point, dirs)) for j in span],
        [[sum(c * v[j] for c, v in zip(f, dirs)) for j in span] for f in family],
        w * delta,
        rho * delta,
        False,
    )


def _tie_extrema(L: int, tie: Sequence[IntEv]) -> list[Value]:
    """Critical values of y1 on the future tie set of the events."""
    (t0, a0, d0), rest = tie[0], tie[1:]
    rows = []
    for t, a, d in rest:
        diff = (t - t0, *(x - x0 for x, x0 in zip(a, a0)))
        rows.append([2 * diff[0], *(-2 * x for x in diff[1:]), _mink(diff, diff) - d + d0])
    k = len(a0)
    sol = _solve(rows, k + 1)
    if sol is None or len(sol[2]) != k + 2 - len(tie):
        # Dependent equations: the tie set is a smaller set's, or empty.
        return []
    delta, base, dirs = sol
    cx = (L, d0, t0, a0[0], max(e[0] for e in tie))
    return _critical(cx, base, dirs, delta, delta, True)


def _simplest_between(ln: int, ld: int, hn: int, hd: int) -> Sample:
    """The rational with the smallest denominator strictly inside
    (ln/ld, hn/hd), for ld, hd > 0."""
    if ln < 0 < hn:
        return 0, 1
    if hn <= 0:
        n, d = _simplest_between(-hn, hd, -ln, ld)
        return -n, d
    whole = ln // ld
    if (whole + 1) * hd < hn:
        return whole + 1, 1
    if ln == whole * ld:
        k = hd // (hn - whole * hd) + 1
        return whole * k + 1, k
    n, d = _simplest_between(hd, hn - whole * hd, ld, ln - whole * ld)
    return whole * n + d, n


def _bound(v: Value, bits: int, upper: bool) -> Sample:
    """A rational bound of v from sqrt(R) read to the given bits."""
    _, p, q, r, m = v
    if not q or not r:
        return p, m
    scaled = r << 2 * bits
    root = math.isqrt(scaled)
    if (q > 0) == upper and root * root != scaled:
        root += 1
    return (p << bits) + q * root, m << bits


def _between(v: Value, w: Value) -> Sample:
    """A simple rational strictly between v < w."""
    bits = 32
    while True:
        (ln, ld), (hn, hd) = _bound(v, bits, True), _bound(w, bits, False)
        if ln * hd < hn * ld:
            return _simplest_between(ln, ld, hn, hd)
        bits *= 2


def _samples(values: list[Value]) -> list[Sample]:
    """A rational in each gap between the distinct values, then one beyond
    each end: every open interval whose ends are among the values, or
    infinite, contains one of them."""
    if not values:
        return [(0, 1)]
    ordered = sorted(values, key=itemgetter(0))
    if any(v[0] + 2 > w[0] for v, w in zip(ordered, ordered[1:])):
        # Near keys: sort exactly, equal values kept in their first order.
        ordered = sorted(values, key=cmp_to_key(_cmp))
    out = [_between(v, w) for v, w in zip(ordered, ordered[1:]) if _cmp(v, w) < 0]
    n, d = _bound(ordered[0], 32, False)
    out.append((n // d - 1, 1))
    n, d = _bound(ordered[-1], 32, True)
    out.append((-(-n // d) + 1, 1))
    return out


def _critical_x1(L: int, gather: list[IntEv], avoid: list[IntEv]) -> list[Value]:
    """The critical x1 values of a cut problem."""
    events = [*gather, *avoid]
    n, crit = len(gather), []
    for size in range(2, len(gather[0][1]) + 2):
        for tie in combinations(range(len(events)), size):
            if tie[0] < n <= tie[-1]:  # at least one gathered and one avoided
                crit += _tie_extrema(L, [events[i] for i in tie])
    return crit


def _arrival_value(u: int, s: int, m: int) -> Value:
    """(u + sqrt(s))/m with the radicand of t + sqrt(r2) for r2 = s/m^2
    reduced: numerator times denominator."""
    g = math.gcd(s, m * m)
    den = m * m // g
    return _value(u * den, m, s // g * den, m * den)


def _gathers_at(L: int, gather: list[IntEv], avoid: list[IntEv]) -> Fraction | None:
    """The witness time on a fully cut problem, events (t, (), delta) that
    arrive at (t + sqrt(delta))/L, if every gathered event arrives before
    every avoided one, else None."""
    order = cmp_to_key(_cmp)
    late = max((_value(t, 1, d, 1) for t, _, d in gather), key=order)
    early = min((_value(t, 1, d, 1) for t, _, d in avoid), key=order)
    if _cmp(late, early) >= 0:
        return None
    u, s = late[1], late[3]
    root = math.isqrt(s)
    if root * root == s:
        return Fraction(u + root, L)
    return Fraction(*_between(_arrival_value(u, s, L), _arrival_value(early[1], early[3], L)))


def _cut(L: int, events: list[IntEv], x1: Sample) -> tuple[int, list[IntEv]]:
    """The events on the cut at x1, over the new common denominator."""
    n, q = x1
    L1 = math.lcm(L, q)
    k, c = L1 // L, n * (L1 // q)
    return L1, [
        (t * k, tuple(x * k for x in a[1:]), d * k * k + (c - a[0] * k) ** 2)
        for t, a, d in events
    ]


def _sweep_scaled(
    L: int, gather: list[IntEv], avoid: list[IntEv]
) -> tuple[Fraction, Vec] | None:
    """_sweep on events scaled to the common denominator L."""
    if not gather[0][1]:
        tau = _gathers_at(L, gather, avoid)
        return None if tau is None else (tau, ())
    for x1 in _samples(_critical_x1(L, gather, avoid)):
        L1, cut = _cut(L, [*gather, *avoid], x1)
        found = _sweep_scaled(L1, cut[: len(gather)], cut[len(gather):])
        if found is not None:
            return found[0], (Fraction(*x1), *found[1])
    return None


def _sweep(
    gather: Sequence[Event], avoid: Sequence[Event]
) -> tuple[Fraction, Vec] | None:
    """A rational (tau, x) with x in W, or None when W is empty, for
    validated point events."""
    events = [*gather, *avoid]
    L = math.lcm(*(c.denominator for e in events for c in (e.t, *e.x)))  # type: ignore

    def scaled(c) -> int:
        return c.numerator * (L // c.denominator)

    ints = [(scaled(e.t), tuple(map(scaled, e.x)), 0) for e in events]  # type: ignore
    return _sweep_scaled(L, ints[: len(gather)], ints[len(gather):])


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

    for p in avoid:
        if _gathers(prec, gather, avoid, p):
            return SeparationResult(
                Verdict.SEPARATED, witness=p, reason="gather_at_avoid_point"
            )
    found = _sweep(gather, avoid)
    if found is None:
        return SeparationResult(
            Verdict.NOT_SEPARATED,
            reason="cone_closure",
            detail="every gathering event is strictly after an avoided event",
        )
    return SeparationResult(
        Verdict.SEPARATED, witness=Event(t=found[0], x=found[1]), reason="sweep"
    )
