"""Exact scalar arithmetic: rational parsing, integer square roots, and
quadratic extension numbers of the form a + b*sqrt(d).

Everything here is exact.  Callers that need numeric enclosures instead
should go through :mod:`causalbox.intervals`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, str, Fraction]


def _plain_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_rational(value: RationalLike | float) -> Fraction:
    """Convert user-facing input to an exact Fraction.

    Strings accept the forms ``"3"``, ``"-3/4"``, ``"1.25"``.  Floats are
    interpreted through their shortest decimal repr, so ``0.1`` becomes
    1/10 rather than the binary float it rounds to.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return Fraction(repr(value))
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise TypeError(f"cannot parse rational from {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Render a Fraction as ``"num/den"``, or just ``"num"`` for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def isqrt_exact(n: int) -> int | None:
    """Integer square root of ``n`` if ``n`` is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def sqrt_bounds(q: Fraction, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around sqrt(q) with hi - lo <= 2**-bits * scale.

    Uses sqrt(n/d) = sqrt(n*d)/d and a scaled integer square root, so both
    endpoints are exact rationals and lo**2 <= q <= hi**2.
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return Fraction(0), Fraction(0)
    n, d = q.numerator, q.denominator
    m = n * d  # sqrt(q) = sqrt(m) / d
    scaled = m << (2 * bits)
    root = math.isqrt(scaled)
    lo = Fraction(root, d << bits)
    if root * root == scaled:
        return lo, lo
    hi = Fraction(root + 1, d << bits)
    return lo, hi


def _sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


@dataclass(frozen=True)
class QuadExt:
    """Exact number a + b*sqrt(d) with a, b rational and d a nonnegative
    integer (d == 0 or b == 0 encodes a plain rational).

    Signs and comparisons are exact for any radicand, squarefree or not,
    so the constructor may take d = n*m for sqrt(n/m) = sqrt(n*m)/m
    without factoring.  d is kept as given, so ring operations need equal
    radicands (or one rational side), and ``is_rational`` and hashing read
    the stored fields: a perfect-square d with b != 0 counts as irrational.
    """

    a: Fraction
    b: Fraction
    d: int

    # -- construction -------------------------------------------------

    @staticmethod
    def rational(q: Fraction | int) -> "QuadExt":
        return QuadExt(Fraction(q), Fraction(0), 0)

    def is_rational(self) -> bool:
        return self.b == 0 or self.d == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.a

    # -- ring operations (same radicand, or one side rational) --------

    def _coerce(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        if isinstance(other, QuadExt):
            return other
        return QuadExt.rational(Fraction(other))

    def _join_d(self, other: "QuadExt") -> int:
        if self.is_rational():
            return other.d if not other.is_rational() else 0
        if other.is_rational():
            return self.d
        if self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")
        return self.d

    def __add__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        o = self._coerce(other)
        d = self._join_d(o)
        return QuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "QuadExt | Fraction | int") -> "QuadExt":
        o = self._coerce(other)
        d = self._join_d(o)
        # (a + b sqrt(d))(a' + b' sqrt(d)); with d joined, a missing radical
        # just means the corresponding b is zero.
        return QuadExt(
            self.a * o.a + self.b * o.b * d,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    # -- exact ordering ------------------------------------------------

    def sign(self) -> int:
        if self.b == 0 or self.d == 0:
            return _sign(self.a)
        if self.a == 0:
            return _sign(self.b)
        sa, sb = _sign(self.a), _sign(self.b)
        if sa == sb:
            return sa
        # Opposite signs: |a| vs |b| sqrt(d) decided by a^2 vs b^2 d.
        lhs = self.a * self.a
        rhs = self.b * self.b * self.d
        if lhs == rhs:
            return 0
        return sa if lhs > rhs else sb

    def _floor64(self) -> int:
        """An integer n with n <= value * 2**64 < n + 2."""
        a, b = self.a, self.b
        n = (a.numerator << 64) // a.denominator
        if b and self.d:
            root = math.isqrt(b.numerator**2 * self.d << 128) // b.denominator
            n += root if b > 0 else -root - 1
        return n

    def cmp(self, other: "QuadExt | Fraction | int") -> int:
        o = self._coerce(other)
        # Integer enclosures settle all but near ties without Fractions.
        n, m = self._floor64(), o._floor64()
        if n + 2 <= m:
            return -1
        if m + 2 <= n:
            return 1
        if self.is_rational() or o.is_rational() or self.d == o.d:
            return (self - o).sign()
        return sign3(self.a - o.a, self.b, self.d, -o.b, o.d)

    def __lt__(self, other):  # type: ignore[override]
        return self.cmp(other) < 0

    def __le__(self, other):  # type: ignore[override]
        return self.cmp(other) <= 0

    def __gt__(self, other):  # type: ignore[override]
        return self.cmp(other) > 0

    def __ge__(self, other):  # type: ignore[override]
        return self.cmp(other) >= 0

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (QuadExt, Fraction, int)):
            return self.cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- rational enclosure -------------------------------------------

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """Exact rational bracket around the value."""
        if self.is_rational():
            return self.a, self.a
        lo, hi = sqrt_bounds(Fraction(self.d), bits)
        if self.b >= 0:
            return self.a + self.b * lo, self.a + self.b * hi
        return self.a + self.b * hi, self.a + self.b * lo

    def __float__(self) -> float:
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)

    def __repr__(self) -> str:
        if self.is_rational():
            return f"QuadExt({format_rational(self.a)})"
        return (
            f"QuadExt({format_rational(self.a)} + "
            f"{format_rational(self.b)}*sqrt({self.d}))"
        )


def sign3(A: Fraction, B: Fraction, d1: int, C: Fraction, d2: int) -> int:
    """Exact sign of A + B*sqrt(d1) + C*sqrt(d2) for rational A, B, C and
    nonnegative integer radicands.

    Perfect-square radicands fold into A and equal radicands merge; two
    radical terms left pulling in opposite directions are compared by
    (A + B*sqrt(d1))^2 against C^2 d2.  Nothing is factored, so radicands
    of any size cost only a few multiplications.
    """
    A = Fraction(A)
    if d1 < 0 or d2 < 0:
        raise ValueError("negative radicand")
    terms: dict[int, Fraction] = {}
    for coef, d in ((Fraction(B), d1), (Fraction(C), d2)):
        root = isqrt_exact(d)
        if root is not None:
            A += coef * root
        elif coef:
            terms[d] = terms.get(d, Fraction(0)) + coef
    radicals = [(d, coef) for d, coef in terms.items() if coef]
    if len(radicals) < 2:
        d, b = radicals[0] if radicals else (0, Fraction(0))
        return QuadExt(A, b, d).sign()
    (d1, B), (d2, C) = radicals
    # A + B*sqrt(d1) is nonzero: sqrt(d1) is irrational.
    sl, sr = QuadExt(A, B, d1).sign(), _sign(C)
    if sl == sr:
        return sl
    s = QuadExt(A * A + B * B * d1 - C * C * d2, 2 * A * B, d1).sign()
    if s == 0:
        return 0
    return sl if s > 0 else sr
