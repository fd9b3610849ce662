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
    null_coords,
)

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

        def linear(x):
            if x <= pts[0][0]:
                return pts[0][1]
            if x >= pts[-1][0]:
                return pts[-1][1]
            for (x0, s0), (x1, s1) in zip(pts, pts[1:]):
                if x0 <= x <= x1:
                    return s0 + (s1 - s0) * (x - x0) / (x1 - x0)

        probes = [x for x, _ in pts]  # vertices
        for (x0, _), (x1, _) in zip(pts, pts[1:]):
            probes += [x0 + (x1 - x0) * Fraction(k, 7) for k in range(1, 7)]
        probes += [pts[0][0] - Fraction(1, 3), Fraction(-100), pts[-1][0] + Fraction(1, 5), Fraction(100)]
        for x in probes:
            assert td.sigma(x) == linear(x), x
        assert td.sigma("1") == Fraction(1, 3)
        assert td.sigma(0.5) == linear(Fraction(1, 2))

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
        td = self.vee()
        u0, v0 = Fraction(-1), Fraction(1, 2)
        base = td.phi(u0, v0)
        for du, dv in [(1, 0), (0, 1), (2, 3)]:
            assert td.phi(u0 + du, v0 + dv) < base

    def test_common_future_is_corner_or_nothing(self):
        td = self.vee()
        inside = [ev(0, 4), ev(0, 8)]
        q = td.common_future(inside)
        assert q == ev(2, 6)
        # opposite sides of the dip cannot gather before the boundary
        assert td.common_future([ev(0, 4), ev(0, -2)]) is None
