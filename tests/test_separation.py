import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from causalbox.geometry import (
    Event,
    FiniteOrder,
    Minkowski,
    TerminatedDiagram,
    event_from_null,
    null_coords,
)
from causalbox.rational import QuadExt
from causalbox.separation import (
    SeparationResult,
    Verdict,
    _critical_x1,
    _gathers_at,
    _tie_extrema,
    separated,
    verify_separation_witness,
)
from plane_reference import plane_critical_x1, search_witness
from quad_helpers import quad_sqrt


def ev(t, *xs):
    return Event.at(t, *xs)


# ----------------------------------------------------------------------
# independent oracle for 1+1 backends: the gathering region is an upper
# quadrant in lightcone coordinates, so candidate corners over the
# coordinate values of all participating events decide the question.


def brute_separated_1p1(order, gather, avoid):
    gu = [null_coords(q) for q in gather]
    ustar = max(u for u, _ in gu)
    vstar = max(v for _, v in gu)
    us = sorted({ustar, ustar + 7} | {null_coords(p)[0] for p in avoid})
    vs = sorted({vstar, vstar + 7} | {null_coords(p)[1] for p in avoid})
    cands = [event_from_null(u, v) for u, v in product(us, vs)]
    cands.extend(avoid)
    return any(verify_separation_witness(order, gather, avoid, c) for c in cands)


coord = st.fractions(min_value=-6, max_value=6, max_denominator=2)
event_1p1 = st.tuples(coord, coord).map(lambda p: ev(p[0], p[1]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(event_1p1, min_size=1, max_size=4),
    st.lists(event_1p1, min_size=0, max_size=4),
)
def test_flat_line_engine_matches_brute_force(gather, avoid):
    order = Minkowski(1)
    res = separated(order, gather, avoid)
    assert res.verdict is not Verdict.UNKNOWN
    assert res.is_separated == brute_separated_1p1(order, gather, avoid)
    if res.is_separated:
        assert res.witness is not None
        assert verify_separation_witness(order, gather, avoid, res.witness)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(event_1p1, min_size=1, max_size=3),
    st.lists(event_1p1, min_size=0, max_size=3),
)
def test_terminated_engine_matches_brute_force(gather, avoid):
    order = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
    keep = [e for e in gather if order.in_domain(e)]
    avoid = [e for e in avoid if order.in_domain(e)]
    if not keep:
        return
    res = separated(order, keep, avoid)
    assert res.verdict is not Verdict.UNKNOWN
    assert res.is_separated == brute_separated_1p1(order, keep, avoid)
    if res.is_separated:
        assert verify_separation_witness(order, keep, avoid, res.witness)


@settings(max_examples=200, deadline=None)
@given(event_1p1, st.lists(event_1p1, min_size=0, max_size=4))
def test_single_gather_reduces_to_direct_precedence(q, avoid):
    order = Minkowski(1)
    res = separated(order, [q], avoid)
    expected = not any(order.strictly_precedes(p, q) for p in avoid)
    assert res.is_separated == expected
    if expected:
        assert res.witness == q


@settings(max_examples=150, deadline=None)
@given(
    st.lists(event_1p1, min_size=1, max_size=3),
    st.lists(event_1p1, min_size=0, max_size=3),
    event_1p1,
)
def test_avoiding_fewer_events_is_easier(gather, avoid, extra):
    order = Minkowski(1)
    more = separated(order, gather, avoid + [extra])
    fewer = separated(order, gather, avoid)
    if more.is_separated:
        assert fewer.is_separated


@settings(max_examples=150, deadline=None)
@given(
    st.lists(event_1p1, min_size=1, max_size=3),
    st.lists(event_1p1, min_size=0, max_size=3),
    event_1p1,
)
def test_gathering_fewer_events_is_easier(gather, avoid, extra):
    order = Minkowski(1)
    more = separated(order, gather + [extra], avoid)
    fewer = separated(order, gather, avoid)
    if more.is_separated:
        assert fewer.is_separated


@settings(max_examples=150, deadline=None)
@given(
    st.lists(event_1p1, min_size=2, max_size=3),
    st.lists(event_1p1, min_size=1, max_size=2),
)
def test_plane_embedding_agrees_with_line(gather, avoid):
    """Lifting collinear data into the plane only adds escape room: a
    line witness lifts directly, and a plane refusal pushes back down."""
    line = Minkowski(1)
    plane = Minkowski(2)
    lift = lambda e: ev(e.t, e.x[0], 0)
    res1 = separated(line, gather, avoid)
    res2 = separated(plane, [lift(e) for e in gather], [lift(e) for e in avoid])
    if res1.is_separated:
        assert res2.is_separated
    if res2.verdict is Verdict.NOT_SEPARATED:
        assert res1.verdict is Verdict.NOT_SEPARATED
    if res2.is_separated and res2.witness is not None:
        assert verify_separation_witness(
            plane, [lift(e) for e in gather], [lift(e) for e in avoid], res2.witness
        )


def test_gather_family_must_be_nonempty():
    with pytest.raises(ValueError):
        separated(Minkowski(1), [], [ev(0, 0)])


class TestFiniteOrderSeparation:
    def test_exhaustive_decision(self):
        fo = FiniteOrder([("p", "q1"), ("p", "q2"), ("q1", "top"), ("q2", "top")])
        gather = [Event.named("q1"), Event.named("q2")]
        res = separated(fo, gather, [Event.named("p")])
        assert res.verdict is Verdict.NOT_SEPARATED
        res2 = separated(fo, gather, [])
        assert res2.is_separated and res2.witness == Event.named("top")

    def test_blocker_as_gathering_point(self):
        fo = FiniteOrder([("q1", "x"), ("q2", "x")])
        res = separated(fo, [Event.named("q1"), Event.named("q2")], [Event.named("x")])
        assert res.is_separated
        assert res.witness == Event.named("x")


class TestPlaneSingleAvoid:
    def test_slice_route(self):
        order = Minkowski(2)
        gather = [ev(0, -2, 0), ev(0, 2, 0)]
        p = ev(3, 0, 0)
        res = separated(order, gather, [p])
        assert res.is_separated
        assert res.reason == "gather_at_avoid_point"
        assert res.witness == p
        assert verify_separation_witness(order, gather, [p], res.witness)

    def test_blocked_when_avoid_sits_on_gather_midpoint(self):
        order = Minkowski(2)
        gather = [ev(0, -2, 0), ev(0, 2, 0)]
        p = ev(0, 0, 0)
        res = separated(order, gather, [p])
        assert res.verdict is Verdict.NOT_SEPARATED
        assert res.reason == "cone_closure"

    def test_escape_route(self):
        order = Minkowski(2)
        # gathered events around the origin, avoided event far off-axis a
        # bit later: the contact region outruns its lightcone sideways.
        gather = [ev(0, -1, 0), ev(0, 1, 0)]
        p = ev(Fraction(1, 2), 10, 0)
        res = separated(order, gather, [p])
        assert res.is_separated
        assert verify_separation_witness(order, gather, [p], res.witness)

    def test_colocated_avoid_and_gather(self):
        order = Minkowski(2)
        gather = [ev(0, 0, 0), ev(0, 4, 0)]
        p = ev(2, 2, 0)
        res = separated(order, gather, [p])
        assert res.is_separated
        # the avoided event itself is the only slice point
        assert res.witness == p


class TestPlaneKnownLayout:
    """Three receivers at mutual distance-ish with mid-edge avoid events,
    all simultaneous; verdicts were worked out by hand."""

    A = ev(0, 0, 0)
    B = ev(0, 4, 0)
    C = ev(0, 2, 3)
    Z = ev(0, 2, 0)
    Y = ev(0, 1, Fraction(3, 2))
    X = ev(0, 3, Fraction(3, 2))

    def test_pair_blocked_by_midpoint(self):
        res = separated(Minkowski(2), [self.A, self.B], [self.Z])
        assert res.verdict is Verdict.NOT_SEPARATED

    def test_pair_escapes_other_midpoints(self):
        order = Minkowski(2)
        for p in (self.X, self.Y):
            res = separated(order, [self.A, self.B], [p])
            assert res.is_separated
            assert verify_separation_witness(order, [self.A, self.B], [p], res.witness)

    def test_pair_escapes_both_far_midpoints_jointly(self):
        order = Minkowski(2)
        res = separated(order, [self.A, self.B], [self.X, self.Y])
        assert res.is_separated
        assert verify_separation_witness(
            order, [self.A, self.B], [self.X, self.Y], res.witness
        )

    def test_triple_blocked_by_every_midpoint(self):
        order = Minkowski(2)
        for p in (self.X, self.Y, self.Z):
            res = separated(order, [self.A, self.B, self.C], [p])
            assert res.verdict is Verdict.NOT_SEPARATED


class TestTerminatedKnownLayout:
    def order(self):
        return TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])

    def test_same_side_pair_separates_from_far_event(self):
        td = self.order()
        g = [ev(0, 4), ev(0, 8)]
        res = separated(td, g, [ev(0, -2)])
        assert res.is_separated
        assert verify_separation_witness(td, g, [ev(0, -2)], res.witness)

    def test_cross_side_pair_cannot_gather_at_all(self):
        td = self.order()
        res = separated(td, [ev(0, 4), ev(0, -2)], [])
        assert res.verdict is Verdict.NOT_SEPARATED
        assert res.reason == "no_common_future"


class TestIntCoordinates:
    """Int coordinates are exact too: every witness separated() returns on
    them, lightcone corners at half-integers included, is a valid event
    that verify_separation_witness accepts."""

    ORDERS = (
        (Minkowski(1), 1, {"quadrant_escape"}),
        (TerminatedDiagram([(-4, 3), (0, 1), (4, 3)]), 1,
         {"quadrant_escape", "no_common_future"}),
        (Minkowski(2), 2, {"sweep", "common_future"}),
    )

    def test_half_integer_corner(self):
        td = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        g = [Event(t=-2, x=(0,)), Event(t=-2, x=(1,))]
        res = separated(td, g, [])
        assert res.reason == "quadrant_escape"
        assert res.witness == ev(Fraction(-3, 2), Fraction(1, 2))
        assert verify_separation_witness(td, g, [], res.witness)
        assert td.common_future(g) == res.witness

    @pytest.mark.parametrize("case", range(3))
    def test_seeded_int_layouts(self, case):
        order, dim, wanted = self.ORDERS[case]
        rng = random.Random(8100 + case)

        def point():
            while True:
                t = rng.randint(-6, 0)
                e = Event(t=t, x=tuple(rng.randint(-5, 5) for _ in range(dim)))
                if not isinstance(order, TerminatedDiagram) or order.in_domain(e):
                    return e

        seen = set()
        for _ in range(150):
            gather = [point() for _ in range(rng.randint(2, 3))]
            avoid = [point() for _ in range(rng.randint(0, 2))]
            res = separated(order, gather, avoid)
            seen.add(res.reason)
            if res.is_separated:
                assert verify_separation_witness(order, gather, avoid, res.witness)
            future = order.common_future(gather)
            if future is not None:
                assert verify_separation_witness(order, gather, [], future)
        assert wanted <= seen


# ----------------------------------------------------------------------
# reference for one avoided event in the plane: the slice / escape /
# blocked trichotomy.  "slice": closed discs of the gathered reach at the
# avoided time share a point; "escape": the late-time threshold
# min_y max_j (t_j - w_j.y) lies below the avoided time; "blocked":
# neither, so every gathering event is in the avoided strict future.

def _vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def _norm2(a):
    return _dot(a, a)


def _vertex_in_disc(base, eperp, mu_sq, sign, center, r):
    """Membership of base + sign*sqrt(mu_sq)*eperp in the closed disc
    (center, r), decided exactly in the quadratic extension."""
    g = _vsub(base, center)
    const = _norm2(g) + mu_sq * _norm2(eperp) - r * r
    lin = 2 * sign * _dot(g, eperp)
    val = QuadExt.rational(const) + quad_sqrt(mu_sq) * Fraction(lin)
    return val.cmp(0) <= 0


def _triple_discs_nonempty(cs, rs):
    """Common point of up to three pairwise-intersecting closed discs: a
    nonempty intersection contains a disc center or a boundary crossing
    of two of the circles."""
    n = len(cs)
    for a in range(n):
        if all(_norm2(_vsub(cs[a], cs[b])) <= rs[b] * rs[b] for b in range(n)):
            return True
    for a in range(n):
        for b in range(a + 1, n):
            e = _vsub(cs[b], cs[a])
            d2 = _norm2(e)
            if d2 == 0:
                continue
            alpha = (d2 + rs[a] * rs[a] - rs[b] * rs[b]) / (2 * d2)
            h2 = rs[a] * rs[a] - alpha * alpha * d2
            if h2 < 0:
                continue
            base = tuple(ca + alpha * ei for ca, ei in zip(cs[a], e))
            eperp = (-e[1], e[0])
            for sign in (1, -1):
                if all(
                    _vertex_in_disc(base, eperp, h2 / d2, sign, cs[m], rs[m])
                    for m in range(n)
                ):
                    return True
    return False


def slice_gather_nonempty(centers, radii):
    """Whether the closed discs (centers[j], radii[j]) share a point
    (pairwise plus triple checks decide the family, by Helly)."""
    if any(r < 0 for r in radii):
        return False
    m = len(centers)
    for i, k in combinations(range(m), 2):
        if _norm2(_vsub(centers[i], centers[k])) > (radii[i] + radii[k]) ** 2:
            return False
    return all(
        _triple_discs_nonempty([centers[i] for i in ijk], [radii[i] for i in ijk])
        for ijk in combinations(range(m), 3)
    )


def escape_threshold(ws, ts):
    """min over unit directions y of max_j (ts[j] - ws[j].y), exactly: the
    minimum sits where one term is smallest or where two terms tie."""
    best_t = {}
    for w, t in zip(ws, ts):
        if w not in best_t or t > best_t[w]:
            best_t[w] = t
    items = sorted(best_t.items())
    ws = [w for w, _ in items]
    ts = [t for _, t in items]
    zero = tuple(Fraction(0) for _ in ws[0])
    if all(w == zero for w in ws):
        return QuadExt.rational(max(ts))
    values = []

    def evaluate(const_of, coeff_of, root):
        vals = [QuadExt.rational(c) + root * k for c, k in zip(const_of, coeff_of)]
        values.append(max(vals))

    for wj in ws:
        dj = _norm2(wj)
        if dj:
            evaluate(list(ts), [-_dot(wk, wj) / dj for wk in ws], quad_sqrt(dj))
    for i, k in combinations(range(len(ws)), 2):
        u = _vsub(ws[i], ws[k])
        if u == zero:
            continue
        c = ts[i] - ts[k]
        n2 = _norm2(u)
        disc = n2 - c * c
        if disc < 0:
            continue
        uperp = (-u[1], u[0])
        for sign in (1, -1):
            evaluate(
                [ts[m] - c * _dot(wm, u) / n2 for m, wm in enumerate(ws)],
                [Fraction(-sign) * _dot(wm, uperp) / n2 for wm in ws],
                quad_sqrt(disc),
            )
    return min(values)


def single_avoid_reference(gather, p):
    """Expected verdict for one avoided event p in the plane."""
    order = Minkowski(2)
    if any(order.strictly_precedes(p, q) for q in gather):
        return Verdict.NOT_SEPARATED
    if slice_gather_nonempty([q.x for q in gather], [p.t - q.t for q in gather]):
        return Verdict.SEPARATED
    ws = [_vsub(q.x, p.x) for q in gather]
    if escape_threshold(ws, [q.t for q in gather]).cmp(p.t) < 0:
        return Verdict.SEPARATED
    return Verdict.NOT_SEPARATED


def probe_witness(order, gather, avoid, step=Fraction(1, 4), pad=3, far=720):
    """Dense probe for a witness: the avoided events, a grid of the given
    step around the layout and far points in spread-out directions.
    Floats only propose a time inside the gathering window; the exact
    relation confirms."""
    for p in avoid:
        if verify_separation_witness(order, gather, avoid, p):
            return p
    dim = len(gather[0].x)
    pts = [e.x for e in [*gather, *avoid]]
    axes = [
        [lo + step * i for i in range(int((hi - lo) / step) + 1)]
        for lo, hi in (
            (min(p[a] for p in pts) - pad, max(p[a] for p in pts) + pad)
            for a in range(dim)
        )
    ]
    xs = list(product(*axes))
    for k in range(far):
        if dim == 2:
            v = (math.cos(k * math.pi / 360), math.sin(k * math.pi / 360))
        else:  # a spiral over the sphere, in the first three coordinates
            z = 1 - 2 * (k + 0.5) / far
            r = math.sqrt(1 - z * z)
            v = (r * math.cos(2.4 * k), r * math.sin(2.4 * k), z) + (0,) * (dim - 3)
        xs.append(tuple(Fraction(round(1000 * c)) for c in v))
    cones = [(float(e.t), [float(c) for c in e.x]) for e in gather]
    blocks = [(float(e.t), [float(c) for c in e.x]) for e in avoid]

    def reach(t, a, fx):
        return t + math.sqrt(sum((u - v) ** 2 for u, v in zip(fx, a)))

    for x in xs:
        fx = [float(c) for c in x]
        late = max(reach(t, a, fx) for t, a in cones)
        early = min(reach(t, a, fx) for t, a in blocks)
        if early - late > 1e-9:
            q = Event(t=Fraction((late + early) / 2), x=x)
            if verify_separation_witness(order, gather, avoid, q):
                return q
    return None


class TestExactPlaneHelpers:
    def test_slice_nonempty_tangent_pair(self):
        c = [(Fraction(0), Fraction(0)), (Fraction(4), Fraction(0))]
        r = [Fraction(2), Fraction(2)]
        assert slice_gather_nonempty(c, r)
        assert not slice_gather_nonempty(c, [Fraction(2), Fraction(3, 2)])

    def test_slice_three_discs_pairwise_but_no_common(self):
        # the first two discs touch only at (2, 0), which the third misses
        c = [
            (Fraction(0), Fraction(0)),
            (Fraction(4), Fraction(0)),
            (Fraction(2), Fraction(3)),
        ]
        assert not slice_gather_nonempty(c, [Fraction(2), Fraction(2), Fraction(2)])
        assert slice_gather_nonempty(c, [Fraction(2), Fraction(2), Fraction(3)])

    def test_escape_threshold_symmetric_pair(self):
        # two events at +-1 on the axis relative to the origin: the best
        # direction is perpendicular, so the threshold is -0 + ... = 0
        ws = [(Fraction(-1), Fraction(0)), (Fraction(1), Fraction(0))]
        ts = [Fraction(0), Fraction(0)]
        assert escape_threshold(ws, ts).cmp(0) == 0

    def test_escape_threshold_all_colocated(self):
        ws = [(Fraction(0), Fraction(0))] * 2
        ts = [Fraction(1), Fraction(3)]
        assert escape_threshold(ws, ts).cmp(3) == 0

    def test_escape_threshold_single_offset(self):
        # one event at distance 5, time 0: moving toward it the reach at
        # late time t is t - (0 - 5) ... threshold is 0 - 5 = -5
        ws = [(Fraction(5), Fraction(0)), (Fraction(0), Fraction(0))]
        ts = [Fraction(0), Fraction(0)]
        # second w pins the threshold at 0 via its constant term
        assert escape_threshold(ws, ts).cmp(0) == 0
        alone = escape_threshold([ws[0]], [Fraction(0)])
        assert alone.cmp(-5) == 0


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(coord, coord, coord), min_size=2, max_size=3),
    st.tuples(coord, coord, coord),
)
def test_plane_single_avoid_verdicts_are_witnessed_or_refuted(gather_pts, p_pt):
    order = Minkowski(2)
    gather = [ev(t, x, y) for t, x, y in gather_pts]
    p = ev(*p_pt)
    res = separated(order, gather, [p])
    assert res.verdict is not Verdict.UNKNOWN
    if res.is_separated and res.witness is not None:
        assert verify_separation_witness(order, gather, [p], res.witness)
    if res.verdict is Verdict.NOT_SEPARATED:
        # soundness probe: no grid point should beat the verdict
        for dt in (0, 1, 3):
            t = p.t + dt
            for gx in range(-8, 9, 2):
                for gy in range(-8, 9, 2):
                    q = ev(t, gx, gy)
                    assert not verify_separation_witness(order, gather, [p], q)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(coord, coord, coord), min_size=2, max_size=3),
    st.tuples(coord, coord, coord),
    st.fractions(min_value=-3, max_value=3, max_denominator=5),
)
def test_plane_verdict_invariant_under_rotation(gather_pts, p_pt, m):
    """Exact rational rotations preserve the causal order, so the decided
    verdict must not change."""
    from causalbox.poincare import PoincareMap

    order = Minkowski(2)
    rot = PoincareMap.rotation(2, m)
    gather = [ev(t, x, y) for t, x, y in gather_pts]
    p = ev(*p_pt)
    before = separated(order, gather, [p])
    after = separated(
        order, [rot.apply(e) for e in gather], [rot.apply(p)]
    )
    assert before.verdict == after.verdict


def plane_layouts(n, seed):
    """Seeded plane layouts: 2-4 gathered and 1-3 avoided events on a
    small grid, with avoided events often co-located with a gathered
    one or on its light cone (3-4-5 and axis null directions)."""
    rng = random.Random(seed)
    for _ in range(n):
        gather = [
            ev(rng.randint(0, 1), rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(2, 4))
        ]
        avoid = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.5:
                t, x, y = rng.randint(0, 1), rng.randint(-2, 2), rng.randint(-2, 2)
                avoid.append(ev(t, x, y))
                continue
            q = rng.choice(gather)
            if roll < 0.7:
                dt, dx, dy = rng.randint(0, 1), 0, 0
            else:
                k = Fraction(rng.randint(1, 2), 2)
                dx, dy = rng.choice(((3, 4), (-4, 3), (0, -5), (5, 0)))
                dt, dx, dy = 5 * k, dx * k, dy * k
            avoid.append(ev(q.t + dt, q.x[0] + dx, q.x[1] + dy))
        yield gather, avoid


def test_plane_engine_matches_references_on_seeded_layouts():
    order = Minkowski(2)
    counts = {Verdict.SEPARATED: 0, Verdict.NOT_SEPARATED: 0}
    for n, (gather, avoid) in enumerate(plane_layouts(240, seed=20240601)):
        res = separated(order, gather, avoid)
        counts[res.verdict] += 1
        if len(avoid) == 1:
            assert res.verdict is single_avoid_reference(gather, avoid[0])
        if res.is_separated:
            assert verify_separation_witness(order, gather, avoid, res.witness)
            continue
        assert res.verdict is Verdict.NOT_SEPARATED
        assert probe_witness(order, gather, avoid) is None
        # The grid search takes up to a second to give up, so it checks
        # every fourth layout that reached the sweep.
        if res.reason == "cone_closure" and n % 4 == 0:
            assert search_witness(order, gather, avoid) is None
    assert min(counts.values()) >= 80


def _cut_events(events):
    return [(e.t, e.x, Fraction(0)) for e in events]


def _scaled(events):
    """Cut events (t, a, delta) of Fractions as the sweep's ints over one
    common denominator L: (L t, L a, L^2 delta)."""
    L = math.lcm(*(c.denominator for t, a, d in events for c in (t, *a, d)))
    return L, [
        (int(t * L), tuple(int(x * L) for x in a), int(d * L * L)) for t, a, d in events
    ]


def _quad(value):
    """A sweep value (key, P, Q, R, M) as the QuadExt (P + Q sqrt(R))/M."""
    _, p, q, r, m = value
    return QuadExt(Fraction(p, m), Fraction(q, m), r)


def tie_extrema(tie):
    return [_quad(v) for v in _tie_extrema(*_scaled(tie))]


def critical_x1(gather, avoid):
    """The sweep's critical x1 values of cut events (t, a, delta)."""
    L, events = _scaled([*gather, *avoid])
    return _critical_x1(L, events[: len(gather)], events[len(gather) :], {})


def test_generic_critical_values_are_among_the_plane_engines():
    """On the plane every critical x1 value of the generic sweep is, by
    exact value, one of the plane engine's pair-conic tangents and triple
    abscissae: the generic pair ties keep only the tangents on future
    sheets."""
    equal = 0
    for gather, avoid in plane_layouts(240, seed=20240601):
        plane = plane_critical_x1(gather, avoid)
        generic = set(map(_quad, critical_x1(_cut_events(gather), _cut_events(avoid))))
        assert all(any(v == w for w in plane) for v in generic), (gather, avoid)
        equal += all(any(v == w for w in generic) for v in plane)
    assert equal == 35


class TestTieExtrema:
    """Critical x1 values of single tie sets, worked by hand."""

    Z = Fraction(0)

    def test_pair_hyperboloid_vertex(self):
        # t + |x| = 1 + |x - (4, 0, 0)|: the branch's vertex is at x1 = 5/2;
        # the squared equation's other branch (x1 = 3/2) is in the past.
        z = self.Z
        got = tie_extrema([(z, (z, z, z), z), (Fraction(1), (Fraction(4), z, z), z)])
        assert got == [Fraction(5, 2)]

    def test_equal_times_give_the_bisector(self):
        z = self.Z
        upright = tie_extrema([(z, (z, z, z), z), (z, (Fraction(4), z, z), z)])
        assert upright == [2]
        assert tie_extrema([(z, (z, z, z), z), (z, (Fraction(4), Fraction(1), z), z)]) == []

    def test_plane_triple_is_the_circumcentre(self):
        z = self.Z
        tie = [(z, (z, z), z), (z, (Fraction(4), z), z), (z, (z, Fraction(2)), z)]
        assert tie_extrema(tie) == [2]

    def test_offsets_shift_the_vertex(self):
        # sqrt(x^2 + 1) - sqrt((4 - x)^2 + 1) = 1 at x = 2 + sqrt(285)/30.
        z, one = self.Z, Fraction(1)
        (got,) = tie_extrema([(z, (z, z), one), (one, (Fraction(4), z), one)])
        assert got == QuadExt(Fraction(2), Fraction(1, 30), 285)

    def test_collinear_triple_has_no_points(self):
        z = self.Z
        tie = [(z, (z, z), z), (z, (Fraction(1), z), z), (z, (Fraction(2), z), z)]
        assert tie_extrema(tie) == []

    def test_line_pair_has_two_future_tie_points(self):
        # sqrt(y^2 + 9) = 1 + |y| at y = -4 and y = 4, both at tau = 5.
        z, one = self.Z, Fraction(1)
        crit = critical_x1([(z, (z,), Fraction(9))], [(one, (z,), z)])
        assert sorted(map(_quad, crit)) == [-4, 4]

    def test_line_pair_drops_the_past_sheet_root(self):
        # |y| = 1 + |y - 4| at y = 5/2.  The squared equations also meet
        # at y = 3/2, tau = -3/2, on the past sheet of the first cone.
        z, one = self.Z, Fraction(1)
        crit = critical_x1([(z, (z,), z)], [(one, (Fraction(4),), z)])
        assert list(map(_quad, crit)) == [Fraction(5, 2)]

    def test_fully_cut_events_give_the_rational_late_arrival(self):
        # Over L = 2, gathered arrivals 0 and 1 + sqrt(9) = 4 against the
        # avoided 2 + sqrt(16) = 6; a tie at 2 + sqrt(4) = 4 separates nothing.
        gather = [(0, (), 0), (2, (), 36)]
        assert _gathers_at(2, gather, [(4, (), 64)]) == 4
        assert _gathers_at(2, gather, [(4, (), 16)]) is None

    def test_fully_cut_events_give_a_time_between_arrivals(self):
        # Over L = 2, sqrt(2) against 3/2: the simplest rational strictly
        # between them is 10/7.
        assert _gathers_at(2, [(0, (), 8)], [(3, (), 0)]) == Fraction(10, 7)

    def test_apices_are_not_critical(self):
        # The early exits in _separated settle every component of W that
        # starts at a cone apex, so the sweep cuts at tie sets only.
        z, one = self.Z, Fraction(1)
        top = [(z, (one, z, z), z), (z, (-one, z, z), z)]
        crit = map(_quad, critical_x1(top[:1], top[1:]))
        assert not {one, -one} & set(crit)


def space_layouts(n, seed, dim=3):
    """Seeded small-integer layouts: 2-3 gathered and 1-2 avoided events,
    t in 0..3 and every spatial coordinate in -3..3."""
    rng = random.Random(seed)
    for _ in range(n):
        counts = rng.randint(2, 3), rng.randint(1, 2)
        gather, avoid = (
            [
                Event.at(*(rng.randint(-3, 3) if i else rng.randint(0, 3) for i in range(dim + 1)))
                for _ in range(k)
            ]
            for k in counts
        )
        yield gather, avoid


def test_space_engine_decides_seeded_layouts():
    """The grid search that served 3+1 before left 34 of these layouts
    UNKNOWN and found witnesses for 241; every layout is decided now."""
    order = Minkowski(3)
    reasons = {}
    for gather, avoid in space_layouts(300, seed=2025):
        res = separated(order, gather, avoid)
        reasons[res.reason] = reasons.get(res.reason, 0) + 1
        if res.is_separated:
            assert verify_separation_witness(order, gather, avoid, res.witness)
            continue
        assert res.verdict is Verdict.NOT_SEPARATED
        if res.reason == "cone_closure":
            assert probe_witness(order, gather, avoid, step=Fraction(1, 2)) is None
            assert search_witness(order, gather, avoid) is None
    assert reasons == {"sweep": 262, "blocked_by_strict_past": 25, "cone_closure": 13}


def test_space_lens_is_found_between_pair_ties():
    """W = {x : |x| < min |x -+ (10, 0, 0)| - 9} is a lens around the
    origin with x1 in (-1/2, 1/2), bounded by the pair ties' vertices at
    -+1/2.  The triple ties give only 0 and -+7/5, whose gaps are sampled
    at -+1 and -+3, so without the pair ties the sweep misses the lens."""
    order = Minkowski(3)
    gather = [ev(0, 0, 0, 0), ev(-1, 0, 0, 0)]
    avoid = [ev(-9, -10, 0, 0), ev(-9, 10, 0, 0)]
    res = separated(order, gather, avoid)
    assert (res.verdict, res.reason) == (Verdict.SEPARATED, "sweep")
    assert verify_separation_witness(order, gather, avoid, res.witness)


# A unit vector with rational coordinates: line layouts off the axes.
_SLANT = (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(event_1p1, min_size=2, max_size=3),
    st.lists(event_1p1, min_size=1, max_size=2),
)
def test_space_line_layouts_agree_with_plane_and_line(gather, avoid):
    """On one spatial line only the distance from the line matters, so
    3+1 decides as the plane does; against 1+1 it only adds room."""
    line, plane, space = Minkowski(1), Minkowski(2), Minkowski(3)
    flat = lambda e: ev(e.t, e.x[0], 0)
    slant = lambda e: ev(e.t, *(1 + e.x[0] * u for u in _SLANT))
    res1 = separated(line, gather, avoid)
    res2 = separated(plane, [flat(e) for e in gather], [flat(e) for e in avoid])
    lifted = [slant(e) for e in gather], [slant(e) for e in avoid]
    res3 = separated(space, *lifted)
    assert res3.verdict is res2.verdict
    if res1.is_separated:
        assert res3.is_separated
    if res3.is_separated:
        assert verify_separation_witness(space, *lifted, res3.witness)
    else:
        assert res1.verdict is Verdict.NOT_SEPARATED


def test_separated_plane_layouts_stay_separated_in_space():
    plane, space = Minkowski(2), Minkowski(3)
    lift = lambda e: ev(e.t, *e.x, 0)
    for n, (gather, avoid) in enumerate(plane_layouts(240, seed=20240601)):
        if n % 3 or not separated(plane, gather, avoid).is_separated:
            continue
        lifted = [lift(e) for e in gather], [lift(e) for e in avoid]
        res = separated(space, *lifted)
        assert res.is_separated
        assert verify_separation_witness(space, *lifted, res.witness)


def cayley_rotation(skew):
    """(I - K)(I + K)^-1 for a rational skew matrix K: a rational rotation."""
    n = len(skew)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows = [[eye[i][j] + skew[i][j] for j in range(n)] + eye[i] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    inverse = [row[n:] for row in rows]
    return [
        [sum(((eye[i][k] - skew[i][k]) * inverse[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def null_layouts(n, seed, dim=3):
    """Layouts with avoided events co-located with a gathered one or on
    its light cone, where tie sets degenerate."""
    rng = random.Random(seed)
    nulls = ((1, 1, 0, 0), (1, 0, -1, 0), (1, 0, 0, 1), (3, 1, 2, 2), (3, -2, 1, 2), (5, 3, 4, 0))
    for _ in range(n):
        point = lambda: ev(rng.randint(0, 1), *(rng.randint(-2, 2) for _ in range(dim)))
        gather = [point() for _ in range(rng.randint(2, 3))]
        avoid = []
        for _ in range(rng.randint(1, 3)):
            roll, q = rng.random(), rng.choice(gather)
            if roll < 0.5:
                avoid.append(point())
            elif roll < 0.65:
                avoid.append(Event(t=q.t + rng.randint(0, 1), x=q.x))
            else:
                v = rng.choice(nulls) + (0,) * dim
                avoid.append(Event(t=q.t + v[0], x=tuple(a + b for a, b in zip(q.x, v[1:]))))
        yield gather, avoid


def test_space_verdict_invariant_under_rotation_and_translation():
    order = Minkowski(3)
    rng = random.Random(3)
    for gather, avoid in null_layouts(40, seed=11):
        skew = [[Fraction(0)] * 3 for _ in range(3)]
        for i, j in combinations(range(3), 2):
            skew[i][j] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            skew[j][i] = -skew[i][j]
        rot = cayley_rotation(skew)
        shift = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]

        def move(e):
            x = [sum((r * c for r, c in zip(row, e.x)), Fraction(0)) for row in rot]
            return Event(t=e.t + shift[0], x=tuple(c + s for c, s in zip(x, shift[1:])))

        before = separated(order, gather, avoid)
        moved = [move(e) for e in gather], [move(e) for e in avoid]
        after = separated(order, *moved)
        assert after.verdict is before.verdict
        if after.is_separated:
            assert verify_separation_witness(order, *moved, after.witness)
        elif after.reason == "cone_closure":
            assert probe_witness(order, gather, avoid, step=Fraction(1, 2), pad=2) is None


def test_four_space_layouts_are_decided():
    order = Minkowski(4)
    verdicts = set()
    for gather, avoid in space_layouts(6, seed=4, dim=4):
        res = separated(order, gather, avoid)
        verdicts.add(res.verdict)
        if res.is_separated:
            assert verify_separation_witness(order, gather, avoid, res.witness)
        else:
            assert res.verdict is Verdict.NOT_SEPARATED
    assert Verdict.UNKNOWN not in verdicts


def _finite_order(rng):
    labels = [f"e{i}" for i in range(5)]
    pairs = [(a, b) for a, b in combinations(labels, 2) if rng.random() < 0.4]
    return FiniteOrder(pairs, labels)


@pytest.mark.parametrize("backend", ["line", "terminated", "finite", "plane"])
def test_every_separated_verdict_carries_a_witness(backend):
    rng = random.Random(backend)
    for _ in range(60):
        if backend == "finite":
            order = _finite_order(rng)
            pool = [Event.named(label) for label in sorted(order.elements)]
            gather = rng.sample(pool, rng.randint(1, 3))
            avoid = rng.sample(pool, rng.randint(0, 2))
        elif backend == "plane":
            order = Minkowski(2)
            gather, avoid = next(plane_layouts(1, rng.random()))
        else:
            order = (
                Minkowski(1)
                if backend == "line"
                else TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
            )
            pts = [
                ev(Fraction(rng.randint(-6, 4), 2), Fraction(rng.randint(-8, 8), 2))
                for _ in range(5)
            ]
            if backend == "terminated":
                pts = [e for e in pts if order.in_domain(e)] or [ev(-3, 0)]
            gather, avoid = pts[: rng.randint(1, 3)], pts[3:]
        res = separated(order, gather, avoid)
        assert res.verdict is not Verdict.UNKNOWN
        if res.is_separated:
            assert res.witness is not None
            assert verify_separation_witness(order, gather, avoid, res.witness)


def test_single_line_samples_find_the_window():
    # Only the lines through event abscissae and vertical tangents of
    # the pair's tie curve meet this gathering window.
    order = Minkowski(2)
    gather = [ev(0, Fraction(1, 2), 3), ev(Fraction(3, 2), Fraction(1, 2), 2)]
    p = ev(Fraction(3, 2), 3, Fraction(-3, 2))
    assert single_avoid_reference(gather, p) is Verdict.SEPARATED
    res = separated(order, gather, [p])
    assert res.is_separated
    assert verify_separation_witness(order, gather, [p], res.witness)


def test_large_radicands_are_not_factored():
    q = 1000000007
    gather = [ev(0, -1, Fraction(1, q)), ev(0, 1, Fraction(2, q))]
    avoid = [ev(Fraction(1, 2), 10, Fraction(3, q))]
    start = time.perf_counter()
    res = separated(Minkowski(2), gather, avoid)
    assert time.perf_counter() - start < 2
    assert res.is_separated
    assert verify_separation_witness(Minkowski(2), gather, avoid, res.witness)
