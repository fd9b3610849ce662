"""Certified enclosure primitives."""

from fractions import Fraction

import pytest

from causalbox.intervals import Enclosure, IntervalSession, refine
from jam_grid import le, lt, rational, sqrt_clamped

F = Fraction


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(ArithmeticError):
            Enclosure(F(1), F(0))

    def test_midpoint(self):
        assert Enclosure(F(3, 7), F(3, 7)).midpoint == F(3, 7)
        assert Enclosure(F(1, 4), F(3, 4)).midpoint == F(1, 2)

    def test_certainty_trits(self):
        e = Enclosure(F(1, 4), F(3, 4))
        assert lt(e, 1) is True
        assert lt(e, F(1, 8)) is False
        assert lt(e, F(1, 2)) is None
        assert le(e, F(3, 4)) is True
        assert le(e, F(1, 8)) is False
        assert le(e, F(1, 2)) is None
        # Closed endpoints: lo >= value makes "not less" certain.
        assert lt(e, F(1, 4)) is False


class TestSession:
    def test_rational_enclosure_is_tight(self):
        s = IntervalSession(64)
        e = s.enclosure(rational(s, F(1, 3)))
        assert e.lo < F(1, 3) < e.hi
        assert e.hi - e.lo < F(1, 10**15)

    def test_dyadic_rational_is_exact(self):
        s = IntervalSession(64)
        e = s.enclosure(rational(s, F(5, 8)))
        assert e.lo == e.hi == F(5, 8)

    def test_trig_special_values(self):
        s = IntervalSession(128)
        cos = s.enclosure(s.cos_pi_frac(1, 3))
        sin = s.enclosure(s.sin_pi_frac(1, 6))
        for e in (cos, sin):
            assert e.lo <= F(1, 2) <= e.hi and e.hi - e.lo < F(1, 10**30)

    def test_sqrt_clamps_rounding_noise(self):
        s = IntervalSession(64)
        # cos^2 + sin^2 - 1 is a zero-straddling sliver.
        c = s.cos_pi_frac(2, 7)
        z = c * c + s.sin_pi_frac(2, 7) * s.sin_pi_frac(2, 7) - rational(s, 1)
        root = s.enclosure(sqrt_clamped(s, z))
        assert root.lo == 0
        assert root.hi < F(1, 10**8)

    def test_sqrt_rejects_certainly_negative(self):
        s = IntervalSession(64)
        with pytest.raises(ArithmeticError):
            sqrt_clamped(s, rational(s, -4))

    def test_endpoints_are_fractions(self):
        s = IntervalSession(64)
        e = s.enclosure(s.ctx.sqrt(rational(s, 2)))
        assert isinstance(e.lo, Fraction) and isinstance(e.hi, Fraction)
        assert e.lo**2 < 2 < e.hi**2


class TestRefine:
    def test_returns_first_decision(self):
        seen = []

        def decide(session):
            seen.append(session.prec)
            return ("decided",)

        assert refine(decide) == ("decided",)
        assert seen == [64]

    def test_escalates_until_enough_bits(self):
        def decide(session):
            return (session.prec,) if session.prec >= 256 else None

        assert refine(decide) == (256,)

    def test_calls_at_one_rung_share_the_session(self):
        seen = []

        def decide(session):
            seen.append(session)
            return True

        refine(decide)
        refine(decide)
        assert seen[0] is seen[1]
        assert seen[0].prec == 64

    def test_exhaustion_carries_hint(self, monkeypatch):
        # Where a 128-bit cap once gave up and suggested 256 bits, refine
        # ignores the variable and climbs on to the rung that decides.
        monkeypatch.setenv("CAUSALBOX_PRECISION", "128")
        seen = []

        def decide(session):
            seen.append(session.prec)
            return (session.prec,) if session.prec >= 256 else None

        assert refine(decide) == (256,)
        assert seen == [64, 128, 256]


def _rungs(answer_at):
    """The precisions refine tries for a decide that answers at answer_at."""
    seen = []

    def decide(session):
        seen.append(session.prec)
        return True if session.prec >= answer_at else None

    assert refine(decide) is True
    return tuple(seen)


class TestLadder:
    def test_default_ladder(self, monkeypatch):
        monkeypatch.delenv("CAUSALBOX_PRECISION", raising=False)
        assert _rungs(512) == (64, 128, 256, 512)

    def test_env_override_extends(self, monkeypatch):
        # The ladder climbs past the old 512-bit cap with or without the
        # variable that once extended it.
        monkeypatch.setenv("CAUSALBOX_PRECISION", "2048")
        assert _rungs(2048) == (64, 128, 256, 512, 1024, 2048)
        monkeypatch.delenv("CAUSALBOX_PRECISION")
        assert _rungs(2048) == (64, 128, 256, 512, 1024, 2048)

    def test_env_override_below_first_step(self, monkeypatch):
        # A value below the first rung no longer shortens the ladder.
        monkeypatch.setenv("CAUSALBOX_PRECISION", "48")
        assert _rungs(0) == (64,)
        assert _rungs(1024) == (64, 128, 256, 512, 1024)
