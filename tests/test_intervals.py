"""Certified enclosure primitives."""

from fractions import Fraction

import pytest

from causalbox.intervals import (
    Enclosure,
    IntervalSession,
    PrecisionExhausted,
    precision_ladder,
    refine,
)

F = Fraction


class TestEnclosure:
    def test_ordering_enforced(self):
        with pytest.raises(ArithmeticError):
            Enclosure(F(1), F(0))

    def test_point_and_width(self):
        e = Enclosure.point(F(3, 7))
        assert e.width == 0
        assert e.midpoint == F(3, 7)
        assert F(3, 7) in e

    def test_containment(self):
        e = Enclosure(F(1, 4), F(3, 4))
        assert F(1, 2) in e
        assert F(1, 4) in e
        assert F(7, 8) not in e

    def test_certainty_trits(self):
        e = Enclosure(F(1, 4), F(3, 4))
        assert e.lt(1) is True
        assert e.lt(F(1, 8)) is False
        assert e.lt(F(1, 2)) is None
        assert e.le(F(3, 4)) is True
        assert e.gt(F(1, 8)) is True
        assert e.gt(F(7, 8)) is False
        assert e.ge(F(1, 2)) is None
        # Closed endpoints: lo >= value makes "not less" certain.
        assert e.lt(F(1, 4)) is False


class TestLadder:
    def test_default_ladder(self, monkeypatch):
        monkeypatch.delenv("CAUSALBOX_PRECISION", raising=False)
        assert precision_ladder() == (64, 128, 256, 512)

    def test_env_override_extends(self, monkeypatch):
        monkeypatch.setenv("CAUSALBOX_PRECISION", "2048")
        assert precision_ladder() == (64, 128, 256, 512, 1024, 2048)

    def test_env_override_below_first_step(self, monkeypatch):
        monkeypatch.setenv("CAUSALBOX_PRECISION", "48")
        assert precision_ladder() == (48,)


class TestSession:
    def test_rational_enclosure_is_tight(self):
        s = IntervalSession(64)
        e = s.enclosure(s.rational(F(1, 3)))
        assert e.lo < F(1, 3) < e.hi
        assert e.width < F(1, 10**15)

    def test_dyadic_rational_is_exact(self):
        s = IntervalSession(64)
        e = s.enclosure(s.rational(F(5, 8)))
        assert e.lo == e.hi == F(5, 8)

    def test_trig_special_values(self):
        s = IntervalSession(128)
        cos = s.enclosure(s.cos_pi_frac(1, 3))
        sin = s.enclosure(s.sin_pi_frac(1, 6))
        assert F(1, 2) in cos and cos.width < F(1, 10**30)
        assert F(1, 2) in sin and sin.width < F(1, 10**30)

    def test_sqrt_clamps_rounding_noise(self):
        s = IntervalSession(64)
        # cos^2 + sin^2 - 1 is a zero-straddling sliver.
        c = s.cos_pi_frac(2, 7)
        z = c * c + s.sin_pi_frac(2, 7) * s.sin_pi_frac(2, 7) - s.rational(1)
        root = s.enclosure(s.sqrt_clamped(z))
        assert root.lo == 0
        assert root.hi < F(1, 10**8)

    def test_sqrt_rejects_certainly_negative(self):
        s = IntervalSession(64)
        with pytest.raises(ArithmeticError):
            s.sqrt_clamped(s.rational(-4))

    def test_endpoints_are_fractions(self):
        s = IntervalSession(64)
        e = s.enclosure(s.ctx.sqrt(s.rational(2)))
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

    def test_escalates_until_enough_bits(self, monkeypatch):
        monkeypatch.delenv("CAUSALBOX_PRECISION", raising=False)

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
        monkeypatch.setenv("CAUSALBOX_PRECISION", "128")
        with pytest.raises(PrecisionExhausted) as err:
            refine(lambda session: None)
        assert err.value.suggested_bits == 256
