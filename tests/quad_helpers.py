"""Squarefree normal forms for QuadExt, used by the tests only.

``quad`` and ``quad_sqrt`` build a + b*sqrt(d) with d reduced to its
squarefree part by trial division, so equal values get equal fields;
the library builds raw radicands and never needs the factoring.
"""

from fractions import Fraction

from causalbox.rational import QuadExt


def square_free_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*f`` with f squarefree; returns ``(s, f)``.

    Trial division; intended for the modest radicands produced by squared
    coordinate norms, not for cryptographic-size inputs.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n == 0:
        return 0, 1
    s, f = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
        p += 1 if p == 2 else 2
    f *= n
    return s, f


def quad(a: Fraction | int, b: Fraction | int, d: int) -> QuadExt:
    """Normalised a + b*sqrt(d): extracts square factors from d and collapses
    to a rational when the radical vanishes."""
    a, b = Fraction(a), Fraction(b)
    if d < 0:
        raise ValueError("negative radicand")
    if b == 0 or d == 0:
        return QuadExt(a, Fraction(0), 0)
    s, f = square_free_split(d)
    if f == 1:
        return QuadExt(a + b * s, Fraction(0), 0)
    return QuadExt(a, b * s, f)


def quad_sqrt(q: Fraction | int) -> QuadExt:
    """Exact sqrt(q) for rational q >= 0 as a QuadExt."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("sqrt of negative rational")
    if q == 0:
        return QuadExt.rational(0)
    n, d = q.numerator, q.denominator
    s, f = square_free_split(n * d)  # sqrt(q) = sqrt(n d)/d = (s/d) sqrt(f)
    if f == 1:
        return QuadExt.rational(Fraction(s, d))
    return QuadExt(Fraction(0), Fraction(s, d), f)
