"""Symmetric jammer configurations and their dual-route certification."""

import functools
import itertools
from fractions import Fraction

import pytest

from causalbox.geometry import DomainError, Event, Minkowski
from causalbox.intervals import Enclosure, IntervalSession
from causalbox.jamming import (
    NJamConfig,
    Unsupported,
    _above_cos,
    _limit_index,
    _oracle_verdict,
    boundary_functions,
    build_config,
    valid_h_range,
    verify_config,
)
from causalbox.poincare import PoincareMap
from causalbox.separation import Verdict, separated
from jam_grid import grid_lower_bounds, grid_verdict, oracle_grid, timeslice_max_radius
from test_acceptance import Budget

F = Fraction
M2 = Minkowski(2)


class TestValidHRange:
    def test_n3_exact_rational_endpoints(self):
        lower, upper = valid_h_range(3)
        assert lower.lo == lower.hi == F(-1, 2)
        assert upper.lo == upper.hi == F(1, 2)

    def test_n4_endpoints(self):
        lower, upper = valid_h_range(4)
        assert lower.lo == lower.hi == 0
        assert upper.lo**2 < F(1, 2) < upper.hi**2
        assert upper.width < F(1, 10**30)

    def test_n5_endpoints_bracket_known_values(self):
        lower, upper = valid_h_range(5)
        # cos(2pi/5) = (sqrt(5)-1)/4, cos(pi/5) = (sqrt(5)+1)/4
        assert (4 * lower.lo + 1) ** 2 < 5 < (4 * lower.hi + 1) ** 2
        assert (4 * upper.lo - 1) ** 2 < 5 < (4 * upper.hi - 1) ** 2

    def test_small_n_rejected(self):
        with pytest.raises(Unsupported):
            valid_h_range(2)
        with pytest.raises(ValueError):
            valid_h_range(1)


class TestBoundaryFunctions:
    def test_f_at_one_is_one(self):
        for n in (3, 5, 8):
            f, _ = boundary_functions(n, 1)
            assert 1 in f
            assert f.width < F(1, 10**12)

    def test_domain_error_below_one(self):
        with pytest.raises(DomainError):
            boundary_functions(3, F(1, 2))

    def test_f_strictly_decreasing_on_grid(self):
        grid = (1, 2, 4, 8, 16)
        for n in (3, 5, 7):
            values = [boundary_functions(n, t)[0] for t in grid]
            for a, b in zip(values, values[1:]):
                assert a.lo > b.hi

    def test_g_strictly_decreasing_on_grid(self):
        grid = (1, 2, 4, 8, 16)
        for n in (3, 5, 7):
            values = [boundary_functions(n, t)[1] for t in grid]
            for a, b in zip(values, values[1:]):
                assert a.lo > b.hi

    def test_f_stays_above_upper_endpoint(self):
        _, upper = valid_h_range(5)
        for t in oracle_grid():
            f, _ = boundary_functions(5, t)
            assert f.lo > upper.hi

    def test_g_limit_reaches_lower_endpoint(self):
        for n in (3, 5, 9):
            lower, _ = valid_h_range(n)
            _, g = boundary_functions(n, 10**6)
            assert abs(g.midpoint - lower.midpoint) < F(1, 10**4)


class TestBuildConfig:
    def test_in_range_cases(self):
        assert build_config(3, F(1, 2)).h_in_range is True
        assert build_config(3, F(1, 4)).h_in_range is True
        assert build_config(3, F(3, 4)).h_in_range is False
        assert build_config(5, F(4, 5)).h_in_range is True
        assert build_config(5, F(1, 4)).h_in_range is False

    def test_h_must_be_strictly_inside_unit_interval(self):
        for bad in (0, 1, F(3, 2), F(-1, 4)):
            with pytest.raises(ValueError):
                build_config(3, bad)

    def test_n2_unsupported(self):
        with pytest.raises(Unsupported):
            build_config(2, F(1, 4))

    def test_receiver_enclosures(self):
        cfg = build_config(4, F(7, 10))
        assert isinstance(cfg, NJamConfig)
        assert len(cfg.points) == 4
        exact = ((1, 0), (0, 1), (-1, 0), (0, -1))
        for (ex, ey), (px, py) in zip(exact, cfg.points):
            assert ex in px and ey in py
            assert px.width < F(1, 10**30)

    def test_string_heights_accepted(self):
        assert build_config(4, "7/10").h == F(7, 10)


class TestVerifyConfig:
    def test_in_window_bundle(self):
        bundle = verify_config(build_config(3, F(1, 2)))
        assert bundle.ok and bundle.agreement
        assert bundle.closed_form.full is Verdict.NOT_SEPARATED
        assert bundle.oracle.full is Verdict.NOT_SEPARATED
        assert all(v is Verdict.SEPARATED for v in bundle.closed_form.subtuples)
        assert all(v is Verdict.SEPARATED for v in bundle.oracle.subtuples)

    def test_above_window_bundle(self):
        bundle = verify_config(build_config(3, F(3, 4)))
        assert not bundle.ok
        assert bundle.agreement
        assert bundle.closed_form.full is Verdict.SEPARATED
        assert bundle.oracle.full is Verdict.SEPARATED

    def test_below_window_bundle(self):
        bundle = verify_config(build_config(5, F(1, 4)))
        assert not bundle.ok
        assert bundle.agreement
        assert bundle.closed_form.full is Verdict.NOT_SEPARATED
        assert all(
            v is Verdict.NOT_SEPARATED for v in bundle.oracle.subtuples
        )

    def test_full_subset_sweep(self):
        bundle = verify_config(
            build_config(4, F(7, 10)), full_subset_sweep=True
        )
        assert bundle.sweep is not None
        assert len(bundle.sweep) == 14
        assert all(v is Verdict.SEPARATED for _, v in bundle.sweep)

    def test_sweep_off_by_default(self):
        assert verify_config(build_config(3, F(1, 2))).sweep is None


class TestTimesliceOracle:
    def test_matches_closed_form_full_tuple(self):
        for n, t in ((3, F(5, 4)), (3, 2), (5, 16)):
            m = timeslice_max_radius(n, range(n), t)
            f, _ = boundary_functions(n, t)
            residual_lo = t - m.hi
            residual_hi = t - m.lo
            assert max(f.lo, residual_lo) <= min(f.hi, residual_hi)

    def test_matches_closed_form_subtuple(self):
        for n, t in ((3, 2), (5, F(5, 4)), (6, 4)):
            m = timeslice_max_radius(n, range(1, n), t)
            _, g = boundary_functions(n, t)
            residual_lo = t - m.hi
            residual_hi = t - m.lo
            assert max(g.lo, residual_lo) <= min(g.hi, residual_hi)

    def test_singleton_reaches_its_antipode(self):
        m = timeslice_max_radius(4, (2,), 3)
        assert 4 in m and m.width < F(1, 10**20)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            timeslice_max_radius(3, (), 2)
        with pytest.raises(ValueError):
            timeslice_max_radius(3, (3,), 2)
        with pytest.raises(DomainError):
            timeslice_max_radius(3, (0,), F(1, 2))


def square_events():
    qs = (
        Event.at(0, 1, 0),
        Event.at(0, 0, 1),
        Event.at(0, -1, 0),
        Event.at(0, 0, -1),
    )
    return qs


class TestEngineCrossValidation:
    # n = 4 receivers have rational coordinates, so the exact separation
    # engine can adjudicate the same questions independently.

    def test_full_tuple_and_subtuples_at_h_7_10(self):
        qs = square_events()
        p = Event.at(F(7, 10), 0, 0)
        assert separated(M2, qs, (p,)).verdict is Verdict.NOT_SEPARATED
        for drop in range(4):
            sub = tuple(q for j, q in enumerate(qs) if j != drop)
            assert separated(M2, sub, (p,)).verdict is Verdict.SEPARATED
        bundle = verify_config(build_config(4, F(7, 10)))
        assert bundle.ok

    def test_full_tuple_escapes_at_h_4_5(self):
        qs = square_events()
        p = Event.at(F(4, 5), 0, 0)
        assert separated(M2, qs, (p,)).verdict is Verdict.SEPARATED
        bundle = verify_config(build_config(4, F(4, 5)))
        assert bundle.agreement
        assert bundle.closed_form.full is Verdict.SEPARATED

    def test_rotated_and_translated_copy_agrees(self):
        rotation = PoincareMap(
            (
                (F(1), F(0), F(0)),
                (F(0), F(3, 5), F(-4, 5)),
                (F(0), F(4, 5), F(3, 5)),
            ),
            (F(0), F(2), F(-1)),
        )
        qs = tuple(rotation.apply(q) for q in square_events())
        p = rotation.apply(Event.at(F(7, 10), 0, 0))
        assert separated(M2, qs, (p,)).verdict is Verdict.NOT_SEPARATED
        for drop in range(4):
            sub = tuple(q for j, q in enumerate(qs) if j != drop)
            assert separated(M2, sub, (p,)).verdict is Verdict.SEPARATED


def _cos_table(session: IntervalSession, n: int) -> list[Enclosure]:
    return [session.enclosure(session.cos_pi_frac(m, n)) for m in range(2 * n)]


def _reference_limit(table, n: int, J) -> Enclosure:
    """The directional limit -max_k min_{j in J} cos((k - 2j)*pi/n) as
    a max-min over interval enclosures, with no integer reasoning."""
    best: Enclosure | None = None
    for k in range(2 * n):
        los, his = [], []
        for j in J:
            cell = table[(k - 2 * j) % (2 * n)]
            los.append(cell.lo)
            his.append(cell.hi)
        worst = Enclosure(min(los), min(his))
        if best is None:
            best = worst
        else:
            best = Enclosure(max(best.lo, worst.lo), max(best.hi, worst.hi))
    return Enclosure(-best.hi, -best.lo)


def _limit_cases():
    """Every J for n <= 8; for n = 9..12, every J of at most three or at
    least n - 2 receivers."""
    for n in range(3, 13):
        for size in range(1, n + 1):
            if n > 8 and 3 < size < n - 2:
                continue
            for J in itertools.combinations(range(n), size):
                yield n, J


GRID_HEIGHTS = tuple(F(k, 6) for k in range(-5, 6))


class TestDirectionalLimit:
    def test_rational_tie_is_decided(self):
        # J = (0, 3, 6) at n = 9 is a triangle: its limit is cos(pi/3) = 1/2.
        verdict, _, witness = _oracle_verdict(9, F(1, 2), (0, 3, 6))
        assert verdict is Verdict.NOT_SEPARATED and witness is None
        assert _limit_index(9, (0, 3, 6))[0] == 6
        assert not _above_cos(F(1, 2), 9 - 6, 9)
        assert _above_cos(F(1, 2) + F(1, 10**40), 9 - 6, 9)

    def test_integer_index_matches_interval_reference(self):
        session = IntervalSession(128)
        tables = {n: _cos_table(session, n) for n in range(3, 13)}
        decided = 0
        for n, J in _limit_cases():
            reference = _reference_limit(tables[n], n, J)
            m = n - _limit_index(n, J)[0]
            value = tables[n][m]
            assert max(value.lo, reference.lo) <= min(value.hi, reference.hi)
            near = F(float(reference.midpoint)).limit_denominator(10**12)
            heights = (near - F(1, 10**9), near + F(1, 10**9))
            if n <= 8:
                heights += GRID_HEIGHTS
            for h in heights:
                below = reference.lt(h)
                if below is None:
                    continue
                decided += 1
                assert _above_cos(h, m, n) is below, (n, J, h)
        assert decided > 8000


def _dihedral_representative(n: int, J) -> tuple[int, ...]:
    """The least image of J under the rotations and reflections of the ring."""
    return min(
        tuple(sorted((s * j + r) % n for j in J))
        for r in range(n)
        for s in (1, -1)
    )


def _near(session: IntervalSession, m: int, n: int) -> Fraction:
    """A rational within 1e-12 of cos(m*pi/n), exact when it is rational."""
    cos = session.enclosure(session.cos_pi_frac(m, n))
    return cos.lo if cos.width == 0 else F(float(cos.midpoint)).limit_denominator(10**12)


def _oracle_cases():
    """(n, J, h) for every J at n <= 8, h at (within 1e-12), just below and
    just above J's directional limit and both window ends."""
    session = IntervalSession(128)
    eps = F(1, 10**6)
    for n in range(3, 9):
        ends = (_near(session, 2, n), _near(session, 1, n))
        for size in range(1, n + 1):
            for J in itertools.combinations(range(n), size):
                m = _limit_index(n, J)[0]
                for base in (_near(session, n - m, n), *ends):
                    for h in (base - eps, base, base + eps):
                        yield n, J, h


@functools.lru_cache(maxsize=None)
def _verifier_ring(n: int, prec: int):
    """A session of the verifier's own and the receivers' enclosures in it."""
    session = IntervalSession(prec)
    ring = [(session.cos_pi_frac(2 * j, n), session.sin_pi_frac(2 * j, n)) for j in range(n)]
    return session, ring


def reverify_witness(n: int, h: Fraction, J, witness, prec: int = 256) -> None:
    """Check a witness (t, x, y) against the raw geometry, independently of
    the oracle: inside every receiver's future, outside the jammer's."""
    t, x, y = witness
    session, ring = _verifier_ring(n, prec)
    assert t >= 0
    for j in J:
        dx = session.rational(x) - ring[j][0]
        dy = session.rational(y) - ring[j][1]
        assert session.enclosure(dx * dx + dy * dy).hi <= t * t, (n, J, j, witness)
    assert t < h or (t - h) ** 2 < x * x + y * y, (n, h, J, witness)


class TestOracle:
    def test_matches_grid_reference_and_witnesses_reverify(self):
        # The ring is invariant under its dihedral group, so the grid's
        # slice bounds are computed once per orbit of J; the oracle itself
        # runs on every J.
        bounds: dict = {}
        separated_count = 0
        for n, J, h in _oracle_cases():
            rep = _dihedral_representative(n, J)
            if (n, rep) not in bounds:
                bounds[n, rep] = grid_lower_bounds(n, rep)
            verdict, _, witness = _oracle_verdict(n, h, J)
            assert verdict is grid_verdict(n, h, rep, bounds[n, rep]), (n, J, h)
            if verdict is Verdict.SEPARATED:
                separated_count += 1
                reverify_witness(n, h, J, witness)
            else:
                assert witness is None
        assert separated_count > 1000

    def test_bundle_verdicts_carry_witnesses(self):
        for n, h in ((3, F(3, 4)), (5, F(3, 5)), (8, F(19, 20))):
            bundle = verify_config(build_config(n, h), full_subset_sweep=True)
            rows = [(tuple(range(n)), bundle.oracle.full)]
            rows += [
                (tuple(j for j in range(n) if j != drop), v)
                for drop, v in enumerate(bundle.oracle.subtuples)
            ]
            for J, verdict in rows + list(bundle.sweep):
                again, _, witness = _oracle_verdict(n, h, J)
                assert again is verdict
                if verdict is Verdict.SEPARATED:
                    reverify_witness(n, h, J, witness)

    def test_witness_just_above_a_limit(self):
        h = F(1, 2) + F(1, 10**30)
        verdict, note, witness = _oracle_verdict(9, h, (0, 3, 6))
        assert verdict is Verdict.SEPARATED
        assert note.startswith("escape witnessed at (t, x, y) = (")
        reverify_witness(9, h, (0, 3, 6), witness, prec=512)

    def test_witness_is_not_on_the_jammer_cone(self):
        # At rho = 1 the walk meets (1/8, 1, 0), exactly on the cone of a
        # jammer at h = -7/8; only the next point is a witness.
        verdict, _, witness = _oracle_verdict(3, F(-7, 8), (0,))
        assert verdict is Verdict.SEPARATED
        assert witness == (F(17, 16), 2, 0)
        reverify_witness(3, F(-7, 8), (0,), witness)

    def test_nine_receiver_sweep_is_fast_and_matches_closed_form(self):
        # At h = 1/2 = cos(3pi/9) a subset escapes iff its largest cyclic
        # gap spans more than three receiver steps.
        with Budget(5):
            bundle = verify_config(build_config(9, "1/2"), full_subset_sweep=True)
        assert len(bundle.sweep) == 510
        for J, verdict in bundle.sweep:
            gap = max((b - a) % 9 for a, b in zip(J, J[1:] + J[:1])) or 9
            expected = Verdict.SEPARATED if gap > 3 else Verdict.NOT_SEPARATED
            assert verdict is expected, J
