"""The timeslice grid, kept by the tests as a reference for the jamming
oracle.

At slice t the receivers' reach discs have radius t; the largest radial
coordinate r(t) of their intersection is attained at a disc's far point
or at a pairwise boundary crossing, so bounding the radial coordinate
over those candidates encloses it.  A slice escapes for height h when
r(t) > t - h is certified.  `grid_verdict` is the oracle as it was built
on this grid: probe 1 + 2^i for i = -2..20, then compare h with the
directional limit, and report UNKNOWN where the two disagree.

The interval helpers the grid is built from live here too: a rational
and a clamped square root in a session's context, and three-way
comparisons of an enclosure with an exact rational.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from causalbox.geometry import DomainError
from causalbox.intervals import Enclosure, IntervalSession
from causalbox.jamming import (
    DEFAULT_PREC,
    _above_cos,
    _limit_index,
    _require_n,
)
from causalbox.rational import parse_rational, sqrt_bounds
from causalbox.separation import Verdict


def rational(session: IntervalSession, value):
    """The interval of session's context around the rational value."""
    q = Fraction(value)
    return session.ctx.mpf(q.numerator) / session.ctx.mpf(q.denominator)


def sqrt_clamped(session: IntervalSession, x):
    """Square root after intersecting the radicand with [0, inf).

    The caller vouches that the exact radicand is nonnegative; only
    rounding noise may push the lower endpoint below zero.  A radicand
    that is entirely negative is a logic error.
    """
    enc = session.enclosure(x)
    if enc.hi < 0:
        raise ArithmeticError("radicand certainly negative")
    if enc.lo < 0:
        x = session.ctx.mpf([0, x.b])
    return session.ctx.sqrt(x)


# Three-way certainty tests of an enclosure against an exact rational.
# True and False are certified; None means the enclosure straddles it.
def lt(enc: Enclosure, value) -> bool | None:
    q = Fraction(value)
    if enc.hi < q:
        return True
    if enc.lo >= q:
        return False
    return None


def le(enc: Enclosure, value) -> bool | None:
    q = Fraction(value)
    if enc.hi <= q:
        return True
    if enc.lo > q:
        return False
    return None


def _receivers(session: IntervalSession, n: int):
    return [
        (session.cos_pi_frac(2 * j, n), session.sin_pi_frac(2 * j, n))
        for j in range(n)
    ]


def oracle_grid() -> tuple[Fraction, ...]:
    """Timeslices probed by the grid: 1 + 2^i for i = -2..20."""
    return tuple(1 + Fraction(2) ** i for i in range(-2, 21))


def _candidates(session: IntervalSession, cs, J, t: Fraction):
    """Extremal points of the radial coordinate over the disc intersection.

    Yields (x, y, skip) where skip lists the discs the candidate sits on
    by construction; membership there is exact and must not be re-tested
    through rounded arithmetic.
    """
    tv = rational(session, t)
    t2 = tv * tv
    far_scale = rational(session, 1 + t)
    for j in J:
        yield far_scale * cs[j][0], far_scale * cs[j][1], frozenset((j,))
    for i, j in itertools.combinations(J, 2):
        wx = cs[i][0] - cs[j][0]
        wy = cs[i][1] - cs[j][1]
        norm_sq = wx * wx + wy * wy
        norm = sqrt_clamped(session, norm_sq)
        mx = (cs[i][0] + cs[j][0]) / 2
        my = (cs[i][1] + cs[j][1]) / 2
        span = sqrt_clamped(session, t2 - norm_sq / 4)
        ux = -wy / norm
        uy = wx / norm
        for sgn in (1, -1):
            yield mx + sgn * ux * span, my + sgn * uy * span, frozenset((i, j))


def max_radial_sq_bounds(
    session: IntervalSession, cs, J, t: Fraction
) -> tuple[Fraction | None, Fraction]:
    """Bounds on the squared max radial coordinate of the intersection.

    The upper bound ranges over every candidate not certainly outside
    some disc; the lower bound over candidates certainly inside all of
    them, None if no candidate certifies.
    """
    t_sq = t * t
    lower: Fraction | None = None
    upper: Fraction | None = None
    for vx, vy, skip in _candidates(session, cs, J, t):
        certainly_out = False
        certainly_in = True
        for k in J:
            if k in skip:
                continue
            dx = vx - cs[k][0]
            dy = vy - cs[k][1]
            dist_sq = session.enclosure(dx * dx + dy * dy)
            verdict = le(dist_sq, t_sq)
            if verdict is False:
                certainly_out = True
                break
            if verdict is None:
                certainly_in = False
        if certainly_out:
            continue
        radial_sq = session.enclosure(vx * vx + vy * vy)
        upper = radial_sq.hi if upper is None else max(upper, radial_sq.hi)
        if certainly_in:
            lower = radial_sq.lo if lower is None else max(lower, radial_sq.lo)
    if upper is None:
        raise RuntimeError("disc intersection lost every extremal candidate")
    return lower, upper


def timeslice_max_radius(
    n: int, J, t, *, prec: int = DEFAULT_PREC
) -> Enclosure:
    """Certified enclosure of the max radial coordinate at slice t."""
    _require_n(n)
    t = parse_rational(t)
    if t < 1:
        raise DomainError("timeslice oracle runs on t >= 1")
    J = tuple(sorted(set(J)))
    if not J or any(not 0 <= j < n for j in J):
        raise ValueError("J must be a nonempty subset of range(n)")
    session = IntervalSession(prec)
    lower, upper = max_radial_sq_bounds(session, _receivers(session, n), J, t)
    lo = Fraction(0) if lower is None else sqrt_bounds(lower, bits=prec)[0]
    return Enclosure(max(Fraction(0), lo), sqrt_bounds(upper, bits=prec)[1])


def grid_lower_bounds(n: int, J, *, prec: int = DEFAULT_PREC):
    """(t, certified lower bound on r(t)^2 or None) for every grid slice."""
    session = IntervalSession(prec)
    cs = _receivers(session, n)
    return [
        (t, max_radial_sq_bounds(session, cs, J, t)[0]) for t in oracle_grid()
    ]


def grid_verdict(n: int, h: Fraction, J, bounds) -> Verdict:
    """The grid-plus-limit verdict, with bounds = grid_lower_bounds(n, J)
    shared across heights."""
    escapes = any(
        lower is not None and lower > (t - h) ** 2 for t, lower in bounds
    )
    tail_escape = _above_cos(h, n - _limit_index(n, J)[0], n)
    if escapes and not tail_escape:
        return Verdict.UNKNOWN
    return Verdict.SEPARATED if tail_escape else Verdict.NOT_SEPARATED
