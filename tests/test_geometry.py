import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from causalbox.geometry import (
    CycleError,
    DomainError,
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
    event_from_null,
)
from causalbox.separation import separated
from quadrant_reference import null_coords

coord = st.fractions(min_value=-8, max_value=8, max_denominator=4)


def ev(t, *xs):
    return Event.at(t, *xs)


class TestMinkowski:
    def test_basic_precedence_includes_lightlike(self):
        m = Minkowski(1)
        assert m.strictly_precedes(ev(0, 0), ev(1, 0))
        assert m.strictly_precedes(ev(0, 0), ev(1, 1))  # boundary counts
        assert not m.strictly_precedes(ev(0, 0), ev(1, 2))
        assert not m.strictly_precedes(ev(1, 0), ev(0, 0))
        assert not m.strictly_precedes(ev(0, 0), ev(0, 0))

    def test_classify(self):
        m = Minkowski(2)
        assert m.classify(ev(0, 0, 0), ev(2, 1, 1)) == "precedes"
        assert m.classify(ev(2, 1, 1), ev(0, 0, 0)) == "succeeds"
        assert m.classify(ev(0, 0, 0), ev(0, 3, 0)) == "spacelike"
        assert m.classify(ev(0, 3, 0), ev(0, 3, 0)) == "equal"

    def test_dimension_validation(self):
        m = Minkowski(2)
        with pytest.raises(GeometryError):
            m.strictly_precedes(ev(0, 0), ev(1, 0))
        with pytest.raises(GeometryError):
            m.strictly_precedes(ev(0, 0, 0), ev(1, 0))
        with pytest.raises(GeometryError):
            m.strictly_precedes(Event.named("a"), ev(1, 0, 0))
        with pytest.raises(GeometryError):
            Minkowski(0)

    @given(st.tuples(coord, coord, coord), st.tuples(coord, coord, coord))
    def test_precedence_is_the_closed_cone(self, a, b):
        m = Minkowski(2)
        p, q = ev(*a), ev(*b)
        dt = q.t - p.t
        reach = (q.x[0] - p.x[0]) ** 2 + (q.x[1] - p.x[1]) ** 2
        assert m.strictly_precedes(p, q) == (p != q and dt >= 0 and dt * dt >= reach)

    @given(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=5))
    def test_common_future_dominates_everyone(self, pts):
        m = Minkowski(2)
        events = [ev(t, x, y) for t, x, y in pts]
        q = m.common_future(events)
        assert q is not None
        assert all(m.causally_precedes(e, q) for e in events)

    @given(
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.tuples(coord, coord),
    )
    def test_order_axioms(self, a, b, c):
        m = Minkowski(1)
        ea, eb, ec = (ev(t, x) for t, x in (a, b, c))
        assert not m.strictly_precedes(ea, ea)
        if m.strictly_precedes(ea, eb):
            assert not m.strictly_precedes(eb, ea)
        if m.strictly_precedes(ea, eb) and m.strictly_precedes(eb, ec):
            assert m.strictly_precedes(ea, ec)

    def test_null_coordinate_roundtrip(self):
        e = ev(Fraction(3, 2), Fraction(-1, 4))
        u, v = null_coords(e)
        assert event_from_null(u, v) == e
        # precedence is the componentwise order in (u, v)
        m = Minkowski(1)
        f = ev(2, 0)
        uf, vf = null_coords(f)
        assert m.causally_precedes(e, f) == (u <= uf and v <= vf)


class TestFiniteOrder:
    def test_transitive_closure(self):
        fo = FiniteOrder([("a", "b"), ("b", "c")])
        assert fo.strictly_precedes(Event.named("a"), Event.named("c"))
        assert not fo.strictly_precedes(Event.named("c"), Event.named("a"))

    def test_cycle_rejection(self):
        with pytest.raises(CycleError):
            FiniteOrder([("a", "b"), ("b", "a")])
        with pytest.raises(CycleError):
            FiniteOrder([("a", "a")])

    def test_isolated_elements(self):
        fo = FiniteOrder([("a", "b")], elements=["z"])
        assert Event.named("z").label in {e for e in fo.elements}
        assert fo.spacelike(Event.named("z"), Event.named("a"))

    def test_common_future_may_not_exist(self):
        fo = FiniteOrder([("a", "b"), ("a", "c")])
        assert fo.common_future([Event.named("b"), Event.named("c")]) is None
        top = fo.common_future([Event.named("a"), Event.named("b")])
        assert top == Event.named("b")

    def test_unknown_element_rejected(self):
        fo = FiniteOrder([("a", "b")])
        with pytest.raises(GeometryError):
            fo.strictly_precedes(Event.named("a"), Event.named("nope"))


def _reference_sigma(pts, x):
    """The boundary height by the Fraction formula, flat beyond the ends."""
    if x <= pts[0][0]:
        return pts[0][1]
    if x >= pts[-1][0]:
        return pts[-1][1]
    for (x0, s0), (x1, s1) in zip(pts, pts[1:]):
        if x0 <= x <= x1:
            return s0 + (s1 - s0) * (x - x0) / (x1 - x0)


class TestTerminatedDiagram:
    def vee(self):
        return TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])

    def test_sigma_piecewise_and_extension(self):
        td = self.vee()
        assert td.sigma(0) == 1
        assert td.sigma(2) == 2
        assert td.sigma(-2) == 2
        assert td.sigma(100) == 3
        assert td.sigma(-100) == 3

    def test_sigma_matches_linear_formula(self):
        vertices = [(-5, 2), (Fraction(-7, 2), Fraction(5, 2)), (1, Fraction(1, 3)), (6, 4)]
        td = TerminatedDiagram(vertices)
        pts = [(Fraction(x), Fraction(s)) for x, s in vertices]

        probes = [x for x, _ in pts]  # vertices
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            probes += [x0 + (x1 - x0) * Fraction(k, 7) for k in range(1, 7)]
        probes += [pts[0][0] - Fraction(1, 3), Fraction(-100), pts[-1][0] + Fraction(1, 5), Fraction(100)]
        for x in probes:
            assert td.sigma(x) == _reference_sigma(pts, x), x
        assert td.sigma("1") == Fraction(1, 3)
        assert td.sigma(0.5) == _reference_sigma(pts, Fraction(1, 2))

    def test_event_on_boundary_is_rejected_by_every_query(self):
        td = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        inside = ev(-2, 0)
        # At a vertex, inside a segment and on the flat extension.
        for on in (ev(1, 0), ev(2, 2), ev(3, -7)):
            assert not td.in_domain(on)
            with pytest.raises(DomainError):
                td.validate_event(on)
            with pytest.raises(DomainError):
                td.strictly_precedes(inside, on)
            with pytest.raises(DomainError):
                td.strictly_precedes(on, inside)
        just_below = ev(Fraction(7, 4) - Fraction(1, 1000), Fraction(3, 2))
        td.validate_event(just_below)
        with pytest.raises(GeometryError):
            td.strictly_precedes(inside, ev(0, 0, 0))
        with pytest.raises(GeometryError):
            td.strictly_precedes(Event.named("a"), inside)

    def test_domain_is_strictly_below_boundary(self):
        td = self.vee()
        assert td.in_domain(ev(0, 0))
        assert not td.in_domain(ev(1, 0))  # on the boundary
        assert not td.in_domain(ev(5, 0))
        with pytest.raises(DomainError):
            td.validate_event(ev(1, 0))

    def test_rejects_lightlike_or_unsorted_boundary(self):
        with pytest.raises(GeometryError):
            TerminatedDiagram([(0, 0), (1, 1)])  # slope 1
        with pytest.raises(GeometryError):
            TerminatedDiagram([(2, 0), (0, 0)])
        with pytest.raises(GeometryError):
            TerminatedDiagram([])

    def test_precedence_matches_ambient_on_domain(self):
        td = self.vee()
        m = Minkowski(1)
        a, b = ev(0, -1), ev(Fraction(1, 2), Fraction(-3, 4))
        assert td.strictly_precedes(a, b) == m.strictly_precedes(a, b)

    def test_phi_strictly_decreasing(self):
        # phi(u, v) = sigma(x) - t, the domain margin in lightcone
        # coordinates, is strictly decreasing, so the domain is a lower set
        # there; _null_below must agree with phi > 0.
        td = self.vee()

        def phi(u, v):
            return td.sigma(Fraction(v - u, 2)) - Fraction(u + v, 2)

        u0, v0 = Fraction(-1), Fraction(1, 2)
        base = phi(u0, v0)
        for du, dv in [(1, 0), (0, 1), (2, 3)]:
            assert phi(u0 + du, v0 + dv) < base
        for u in range(-6, 7):
            for v in range(-6, 7):
                # (u, v) and (u/3, v/2) as integers over a denominator.
                for nu, nv, den in [(u, v, 1), (2 * u, 3 * v, 6)]:
                    uv = (Fraction(nu, den), Fraction(nv, den))
                    assert td._null_below(nu, nv, den) == (phi(*uv) > 0), uv

    def test_common_future_is_corner_or_nothing(self):
        td = self.vee()
        inside = [ev(0, 4), ev(0, 8)]
        q = td.common_future(inside)
        assert q == ev(2, 6)
        # opposite sides of the dip cannot gather before the boundary
        assert td.common_future([ev(0, 4), ev(0, -2)]) is None


def test_derived_queries_validate_equal_events():
    td = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
    on = ev(1, 0)
    for query in (td.causally_precedes, td.spacelike, td.classify):
        with pytest.raises(DomainError):
            query(on, on)
    fo = FiniteOrder([("a", "b")])
    with pytest.raises(GeometryError):
        fo.causally_precedes(Event.named("z"), Event.named("z"))
    assert fo.classify(Event.named("a"), Event.named("a")) == "equal"


class TestCommonFutureBoundary:
    """common_future checks its family once, for every backend, before the
    backend's own search."""

    @pytest.mark.parametrize(
        "order",
        [Minkowski(1), FiniteOrder([("a", "b")]), TerminatedDiagram([(0, 5)])],
        ids=["minkowski", "finite", "terminated"],
    )
    def test_empty_family_rejected(self, order):
        with pytest.raises(GeometryError, match="empty family"):
            order.common_future([])

    def test_unknown_element_rejected(self):
        fo = FiniteOrder([("a", "b")])
        with pytest.raises(GeometryError, match="unknown element"):
            fo.common_future([Event.named("a"), Event.named("nope")])

    def test_event_outside_domain_rejected(self):
        td = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        with pytest.raises(DomainError):
            td.common_future([ev(0, 0), ev(1, 0)])

    def test_finite_members_validated_once(self, monkeypatch):
        fo = FiniteOrder([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        seen = []
        validate = fo.validate_event

        def counting(e):
            seen.append(e)
            validate(e)

        monkeypatch.setattr(fo, "validate_event", counting)
        family = [Event.named("b"), Event.named("c")]
        assert fo.common_future(family) == Event.named("d")
        assert seen == family


class TestExactCoordinates:
    """Coordinates must be ints or Fractions: a float, a string or a bool
    is rejected with GeometryError by every query, so floats never decide."""

    ORDERS = (
        (Minkowski(1), 1),
        (Minkowski(2), 2),
        (TerminatedDiagram([(-4, 3), (0, 1), (4, 3)]), 1),
    )

    @pytest.mark.parametrize("bad", [0.5, "1/2", True, False])
    @pytest.mark.parametrize("slot", ["t", "x"])
    def test_inexact_coordinate_rejected(self, bad, slot):
        for order, dim in self.ORDERS:
            good = Event(t=Fraction(-1), x=(Fraction(0),) * dim)
            if slot == "t":
                e = Event(t=bad, x=(Fraction(0),) * dim)
            else:
                e = Event(t=Fraction(-1, 2), x=(bad,) + (0,) * (dim - 1))
            with pytest.raises(GeometryError):
                order.validate_event(e)
            with pytest.raises(GeometryError):
                order.strictly_precedes(good, e)
            with pytest.raises(GeometryError):
                order.strictly_precedes(e, good)
            with pytest.raises(GeometryError):
                separated(order, [good], [e])

    def test_float_pair_no_longer_decides(self):
        m = Minkowski(1)
        p, q = Event(t=0.5, x=(0.1,)), Event(t=1, x=(0.6,))
        with pytest.raises(GeometryError):
            m.strictly_precedes(p, q)
        with pytest.raises(GeometryError):
            separated(m, [q], [p])
        # The same pair in exact coordinates is lightlike, hence causal.
        assert m.strictly_precedes(Event.at(0.5, 0.1), Event.at(1, 0.6))

    def test_ints_and_fractions_are_exact(self):
        for order, dim in self.ORDERS:
            p = Event(t=-2, x=(0,) * dim)
            q = Event(t=Fraction(-1, 2), x=(Fraction(1, 3),) + (0,) * (dim - 1))
            assert order.strictly_precedes(p, q)
            assert not order.strictly_precedes(q, p)


def _rand_rat(rng, lo, hi, dens=(1, 2, 3, 7, 12)):
    den = rng.choice(dens)
    return Fraction(rng.randint(lo * den, hi * den), den)


def _reference_precedes(p, q):
    dt = Fraction(q.t) - Fraction(p.t)
    reach = sum((Fraction(b) - Fraction(a)) ** 2 for a, b in zip(p.x, q.x))
    return dt > 0 and dt * dt >= reach


# Integer (n, |x|) with |x|^2 = n^2: light rays in d = 1, 2 and 3.
_NULL = {
    1: [(1, (1,))],
    2: [(5, (3, 4)), (5, (4, 3)), (13, (5, 12)), (1, (0, 1))],
    3: [(3, (1, 2, 2)), (7, (2, 3, 6)), (7, (6, 2, 3)), (1, (0, 0, 1))],
}


class TestIntegerRelation:
    """The integer cross-multiplication agrees with the Fraction formula
    dt > 0 and dt^2 >= |dx|^2, and in_domain with t < sigma(x), sigma
    taken from the Fraction formula of the boundary."""

    def _pairs(self, rng, dim):
        def point():
            return Event(
                t=_rand_rat(rng, -6, 6), x=tuple(_rand_rat(rng, -6, 6) for _ in range(dim))
            )

        for _ in range(150):
            p = point()
            yield p, point()
            yield p, p  # coincident
            yield p, Event(t=p.t, x=point().x)  # equal time
            yield p, Event(t=p.t, x=p.x)  # equal, not identical
            n, ray = rng.choice(_NULL[dim])
            scale = _rand_rat(rng, 1, 3)
            signs = [rng.choice((-1, 1)) for _ in ray]
            dt = n * scale
            dx = [s * r * scale for s, r in zip(signs, ray)]
            for nudge in (0, Fraction(1, 84), -Fraction(1, 84)):
                q = Event(t=p.t + dt + nudge, x=tuple(a + b for a, b in zip(p.x, dx)))
                yield p, q  # lightlike, just inside, just outside
                yield q, p
            # An int coordinate mixed with Fractions.
            yield Event(t=int(p.t.numerator), x=p.x), p

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cone_matches_fraction_formula(self, dim):
        from causalbox.geometry import _cone_precedes

        rng = random.Random(dim)
        kinds = {True: 0, False: 0}
        for p, q in self._pairs(rng, dim):
            want = _reference_precedes(p, q)
            assert _cone_precedes(p, q) is want, (p, q)
            kinds[want] += 1
        assert min(kinds.values()) > 100

    @staticmethod
    def _boundary(rng):
        x, s = _rand_rat(rng, -6, -2), _rand_rat(rng, -3, 3)
        vertices = [(x, s)]
        for _ in range(rng.randint(0, 4)):
            step = _rand_rat(rng, 1, 3, dens=(2, 3, 7, 12))
            slope = Fraction(rng.randint(-11, 11), 12)
            x, s = x + step, s + slope * step
            vertices.append((x, s))
        return vertices

    def test_in_domain_matches_the_boundary_formula(self):
        rng = random.Random(2718)
        eps, tiny = Fraction(1, 10**6), Fraction(1, 10**30)
        checked = {True: 0, False: 0}
        for _ in range(60):
            vertices = self._boundary(rng)
            td = TerminatedDiagram(vertices)
            xs = [x for x, _ in vertices]
            probes = list(xs)  # at the vertices
            for x0, x1 in zip(xs, xs[1:]):
                probes += [x0 + (x1 - x0) * Fraction(k, 5) for k in range(1, 5)]
            probes += [xs[0] - Fraction(1, 3), xs[0] - 50, xs[-1] + Fraction(2, 7), xs[-1] + 50]
            probes += [_rand_rat(rng, -10, 10) for _ in range(10)]
            # Within 10^-30 of a vertex, where a float would pick the
            # wrong piece.
            probes += [x + d for x in xs for d in (tiny, -tiny)]
            for x in probes:
                h = _reference_sigma(vertices, x)
                assert td.sigma(x) == h
                for t in (h, h - eps, h + eps, h - tiny**2, h - 5, _rand_rat(rng, -8, 8)):
                    e = Event(t=t, x=(x,))
                    want = t < h
                    assert td.in_domain(e) is want, (vertices, t, x)
                    checked[want] += 1
        assert min(checked.values()) > 1000
