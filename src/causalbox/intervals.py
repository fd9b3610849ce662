"""Certified interval arithmetic with exact rational endpoints.

Evaluation happens inside an mpmath directed-rounding context; results
come back as Enclosure values whose endpoints are exact dyadic
Fractions, so every downstream comparison is an exact Fraction
comparison rather than a float one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Enclosure",
    "IntervalSession",
    "refine",
]


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError("non-finite interval endpoint")
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


@dataclass(frozen=True)
class Enclosure:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ArithmeticError("enclosure endpoints out of order")

    @staticmethod
    def point(value: Fraction | int) -> "Enclosure":
        q = Fraction(value)
        return Enclosure(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, value) -> bool:
        q = Fraction(value)
        return self.lo <= q <= self.hi

    # Three-way certainty tests against an exact rational.  True and
    # False are certified; None means the enclosure straddles the value.
    def lt(self, value) -> bool | None:
        q = Fraction(value)
        if self.hi < q:
            return True
        if self.lo >= q:
            return False
        return None

    def le(self, value) -> bool | None:
        q = Fraction(value)
        if self.hi <= q:
            return True
        if self.lo > q:
            return False
        return None

    def gt(self, value) -> bool | None:
        flip = self.le(value)
        return None if flip is None else not flip

    def ge(self, value) -> bool | None:
        flip = self.lt(value)
        return None if flip is None else not flip


class IntervalSession:
    """One directed-rounding context at a fixed working precision."""

    def __init__(self, prec: int):
        from mpmath.ctx_iv import MPIntervalContext

        ctx = MPIntervalContext()
        ctx.prec = prec
        self.ctx = ctx
        self.prec = prec

    def rational(self, value: Fraction | int):
        q = Fraction(value)
        return self.ctx.mpf(q.numerator) / self.ctx.mpf(q.denominator)

    def cos_pi_frac(self, k: int, n: int):
        """Enclosure of cos(k*pi/n)."""
        return self.ctx.cos(self.ctx.pi * self.ctx.mpf(k) / self.ctx.mpf(n))

    def sin_pi_frac(self, k: int, n: int):
        return self.ctx.sin(self.ctx.pi * self.ctx.mpf(k) / self.ctx.mpf(n))

    def sqrt_clamped(self, x):
        """Square root after intersecting the radicand with [0, inf).

        The caller vouches that the exact radicand is nonnegative; only
        rounding noise may push the lower endpoint below zero.  A
        radicand that is entirely negative is a logic error.
        """
        enc = self.enclosure(x)
        if enc.hi < 0:
            raise ArithmeticError("radicand certainly negative")
        if enc.lo < 0:
            x = self.ctx.mpf([0, x.b])
        return self.ctx.sqrt(x)

    def enclosure(self, x) -> Enclosure:
        lo_raw, hi_raw = x._mpi_
        return Enclosure(_raw_to_fraction(lo_raw), _raw_to_fraction(hi_raw))


@lru_cache(maxsize=None)
def _session(bits: int) -> IntervalSession:
    # A session holds nothing but its context, which is slow to build,
    # so every caller at one precision shares it.
    return IntervalSession(bits)


def refine(decide):
    """Run decide(session) at 64, 128, 256, ... bits until it returns
    something other than None, and return that.

    There is no cap: the caller must know that decide answers at some
    finite precision, for example because the quantity it compares is
    already known to differ from its bound, or refine never returns.
    """
    bits = 64
    while (outcome := decide(_session(bits))) is None:
        bits *= 2
    return outcome
