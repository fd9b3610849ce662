from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from causalbox.geometry import (
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
)
from causalbox.poincare import PoincareMap, find_loop_transform


def ev(t, *xs):
    return Event.at(t, *xs)


param = st.fractions(min_value=-4, max_value=4, max_denominator=6)
kpos = st.fractions(min_value=Fraction(1, 5), max_value=5, max_denominator=7)


def random_map(dim, boosts, rots, shift):
    m = PoincareMap.identity(dim)
    for k, axis in boosts:
        m = PoincareMap.boost(dim, k, axis % dim).compose(m)
    for r, (a, b) in rots:
        if dim >= 2:
            m = PoincareMap.rotation(dim, r, (a % dim, (a % dim + 1 + b % (dim - 1)) % dim)).compose(m)
    return PoincareMap.translation_map(shift[0], shift[1:dim + 1]).compose(m)


def test_boost_worked_example():
    b = PoincareMap.boost(1, 2)
    moved = b.apply(ev(0, 1))
    assert moved == ev(Fraction(-3, 4), Fraction(5, 4))
    assert b.is_orthochronous and b.is_proper


def test_rotation_half_angle_parametrisation():
    r = PoincareMap.rotation(2, 1)  # quarter turn
    assert r.apply(ev(5, 1, 0)) == ev(5, 0, 1)
    assert r.is_proper and r.is_orthochronous


def test_reflection_is_improper():
    x = PoincareMap.spatial_reflection(2, 0)
    assert not x.is_proper
    assert x.is_orthochronous
    assert x.apply(ev(1, 2, 3)) == ev(1, -2, 3)


def test_half_turn_flips_both_axes():
    h = PoincareMap.half_turn(2)
    assert h.apply(ev(1, 2, 3)) == ev(1, -2, -3)
    assert h.is_proper


def test_invalid_matrix_rejected():
    with pytest.raises(GeometryError):
        PoincareMap(
            ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))),
            (Fraction(0), Fraction(0)),
        )


def test_compose_and_inverse_cancel():
    m = PoincareMap.boost(2, Fraction(3, 2), 1).compose(
        PoincareMap.rotation(2, Fraction(1, 3))
    )
    m = PoincareMap.translation_map(1, [2, -3]).compose(m)
    ident = m.compose(m.inverse())
    assert ident.matrix == PoincareMap.identity(2).matrix
    assert all(c == 0 for c in ident.translation)


@settings(deadline=None)
@given(
    kpos,
    st.integers(0, 1),
    param,
    st.tuples(param, param, param),
    st.tuples(param, param, param),
    st.tuples(param, param, param),
)
def test_interval_preserved_exactly(k, axis, r, shift, e1, e2):
    order = Minkowski(2)
    m = PoincareMap.boost(2, k, axis)
    m = PoincareMap.rotation(2, r).compose(m)
    m = PoincareMap.translation_map(shift[0], shift[1:]).compose(m)
    a, b = ev(*e1), ev(*e2)
    assert order.interval_sq(m.apply(a), m.apply(b)) == order.interval_sq(a, b)
    assert order.strictly_precedes(m.apply(a), m.apply(b)) == order.strictly_precedes(a, b)


class TestLoopTransform:
    def check(self, order, p, q, result):
        assert result is not None
        assert order.strictly_precedes(q, result.apply(p))
        assert order.strictly_precedes(result.apply(q), p)

    def test_already_past_gives_identity(self):
        order = Minkowski(2)
        p, q = ev(5, 0, 0), ev(0, 1, 1)
        res = find_loop_transform(order, p, q)
        self.check(order, p, q, res)
        assert res.matrix == PoincareMap.identity(2).matrix

    def test_future_pair_is_impossible(self):
        order = Minkowski(2)
        assert find_loop_transform(order, ev(0, 0, 0), ev(3, 1, 0)) is None
        assert find_loop_transform(order, ev(0, 0, 0), ev(1, 1, 0)) is None  # lightlike
        assert find_loop_transform(order, ev(0, 0, 0), ev(0, 0, 0)) is None

    def test_spacelike_line_needs_reflection(self):
        order = Minkowski(1)
        p, q = ev(0, 0), ev(Fraction(1, 2), 3)
        assert find_loop_transform(order, p, q) is None
        res = find_loop_transform(order, p, q, allow_reflection=True)
        self.check(order, p, q, res)
        assert not res.is_proper
        assert res.is_orthochronous

    def test_spacelike_line_negative_direction(self):
        order = Minkowski(1)
        p, q = ev(0, 0), ev(Fraction(-1, 2), -4)
        res = find_loop_transform(order, p, q, allow_reflection=True)
        self.check(order, p, q, res)

    def test_spacelike_plane_proper_map(self):
        order = Minkowski(2)
        p, q = ev(0, 0, 0), ev(1, 3, 0)
        res = find_loop_transform(order, p, q)
        self.check(order, p, q, res)
        assert res.is_proper and res.is_orthochronous

    def test_spacelike_plane_awkward_directions(self):
        order = Minkowski(2)
        p = ev(0, 1, -1)
        for target in [ev(1, -4, -1), ev(0, 1, 4), ev(Fraction(1, 2), -3, -5)]:
            res = find_loop_transform(order, p, target)
            self.check(order, p, target, res)
            assert res.is_proper

    def test_spacelike_three_space(self):
        order = Minkowski(3)
        p, q = ev(0, 0, 0, 0), ev(1, 0, 0, 5)
        res = find_loop_transform(order, p, q)
        self.check(order, p, q, res)
        assert res.is_proper

    @pytest.mark.parametrize(
        "q, allow_reflection",
        [
            (ev(10**6, 10**6, Fraction(1, 10**6)), False),
            (ev(10**20, 10**20, Fraction(1, 10**20)), False),
            (ev(10**9, 10**9, Fraction(1, 10**9), Fraction(1, 10**9)), False),
            (ev(10**30, 10**30 + 1), True),
        ],
    )
    def test_near_null_pairs(self, q, allow_reflection):
        order = Minkowski(len(q.x))
        p = ev(*[0] * (order.dim + 1))
        res = find_loop_transform(order, p, q, allow_reflection)
        self.check(order, p, q, res)
        assert res.is_orthochronous
        assert res.is_proper == (order.dim >= 2)

    @pytest.mark.parametrize(
        "p, q",
        [
            (ev(0, 0), ev(Fraction(1, 2), 3)),
            (ev(0, 1, -1), ev(Fraction(1, 2), -3, -5)),
            (ev(0, 0, 0, 0), ev(1, 2, -1, 5)),
        ],
    )
    def test_spacelike_map_is_checked_once(self, monkeypatch, p, q):
        # The flip and boost factors are built raw, so the isometry check
        # runs on the returned map alone.
        checked = []
        post_init = PoincareMap.__post_init__

        def counting(m):
            checked.append(m)
            post_init(m)

        monkeypatch.setattr(PoincareMap, "__post_init__", counting)
        order = Minkowski(len(p.x))
        res = find_loop_transform(order, p, q, allow_reflection=order.dim == 1)
        assert res is not None and checked == [res]
        monkeypatch.undo()
        self.check(order, p, q, res)

    @pytest.mark.parametrize(
        "order, p, q",
        [
            (TerminatedDiagram([(-4, 3), (0, 1), (4, 3)]), ev(0, 2), ev(0, -2)),
            (FiniteOrder([], ["p", "q"]), Event.named("p"), Event.named("q")),
        ],
    )
    def test_other_orders_are_rejected(self, order, p, q):
        with pytest.raises(GeometryError, match="Minkowski"):
            find_loop_transform(order, p, q, allow_reflection=True)


NEAR = 10**12


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([1, 2, 3]),
    st.tuples(param, param, param, param),
    st.tuples(param, param, param, param),
    st.sampled_from([None, -1, 0, 1]),
    st.integers(min_value=-30, max_value=30),
)
def test_loop_transform_verifies_when_found(dim, p_pt, w_pt, near_null, exp):
    """Every spacelike pair gets a map, on d = 1 with a reflection; a
    near-null displacement puts t within 1/NEAR of +-|x| at unit scale
    before everything is scaled by 10**exp."""
    order = Minkowski(dim)
    t, xs = w_pt[0], w_pt[1 : dim + 1]
    if near_null is not None:
        norm = sum(c * c for c in xs)
        root = isqrt(NEAR * NEAR * norm.numerator // norm.denominator)
        t = (1 if t >= 0 else -1) * Fraction(root + near_null, NEAR)
    scale = Fraction(10) ** exp
    p = ev(*(c * scale for c in p_pt[: dim + 1]))
    q = ev(p.t + t * scale, *(a + b * scale for a, b in zip(p.x, xs)))
    res = find_loop_transform(order, p, q, allow_reflection=dim == 1)
    if p == q or order.strictly_precedes(p, q):
        assert res is None
    else:
        assert res is not None
        assert order.strictly_precedes(q, res.apply(p))
        assert order.strictly_precedes(res.apply(q), p)
        assert res.is_orthochronous
        if dim >= 2:
            assert res.is_proper
