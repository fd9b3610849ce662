"""Symmetric jammer configurations in two space dimensions.

A jammer sits at p = (h, 0, 0) above n receivers spread evenly on the
unit circle of the t = 0 slice.  For h in a certified window the full
receiver tuple cannot be gathered outside the jammer's future, while
every proper subtuple can.  Two independent routes certify this: a
closed-form comparison of h against the boundary-function limits, and a
timeslice oracle that bounds the largest radial coordinate of the
disc-intersection directly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .geometry import DomainError
from .intervals import (
    Enclosure,
    IntervalSession,
    PrecisionExhausted,
    refine,
)
from .rational import parse_rational, sqrt_bounds
from .separation import Verdict

__all__ = [
    "NJamConfig",
    "RouteVerdicts",
    "Unsupported",
    "VerdictBundle",
    "boundary_functions",
    "build_config",
    "oracle_grid",
    "timeslice_max_radius",
    "valid_h_range",
    "verify_config",
]

DEFAULT_PREC = 128


class Unsupported(ValueError):
    """Configuration family outside the certified construction."""


def _require_n(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer with n >= 2")
    if n == 2:
        raise Unsupported(
            "n = 2 has no certified window: the admissible heights"
            " degenerate below h = 0"
        )


# -- the one cosine comparison -------------------------------------------

# cos(f*pi) for the reduced f in [0, 1] whose cosine is rational; by
# Niven's theorem there are no others.
_RATIONAL_COS = {
    Fraction(0): Fraction(1),
    Fraction(1, 3): Fraction(1, 2),
    Fraction(1, 2): Fraction(0),
    Fraction(2, 3): Fraction(-1, 2),
    Fraction(1): Fraction(-1),
}


def _fold(m: int, n: int) -> int:
    """The f in [0, n] with cos(f*pi/n) == cos(m*pi/n)."""
    m %= 2 * n
    return 2 * n - m if m > n else m


def _rational_cos(m: int, n: int) -> Fraction | None:
    """cos(m*pi/n) if it is rational, else None."""
    return _RATIONAL_COS.get(Fraction(_fold(m, n), n))


def _cos_enclosure(session: IntervalSession, m: int, n: int) -> Enclosure:
    """Enclosure of cos(m*pi/n); a point when the cosine is rational."""
    exact = _rational_cos(m, n)
    if exact is not None:
        return Enclosure.point(exact)
    return session.enclosure(session.cos_pi_frac(m, n))


def _above_cos(h: Fraction, m: int, n: int) -> bool:
    """Whether h > cos(m*pi/n), decided exactly.

    A rational cosine is compared directly.  An irrational one never
    equals h, so refining a single enclosure always separates them,
    unless the precision cap runs out first (PrecisionExhausted).
    """
    exact = _rational_cos(m, n)
    if exact is not None:
        return h > exact

    def decide(session: IntervalSession):
        cos = session.enclosure(session.cos_pi_frac(m, n))
        return None if h in cos else (cos.hi < h,)

    return refine(decide)[0]


# -- range endpoints and boundary functions ----------------------------


def valid_h_range(n: int, *, prec: int = DEFAULT_PREC) -> tuple[Enclosure, Enclosure]:
    """Endpoints of the admissible jammer height window.

    Returns (lower, upper) enclosures of cos(2*pi/n) and cos(pi/n); the
    window is open at the lower endpoint and closed at the upper one.
    Rational endpoints come back as exact point enclosures.
    """
    _require_n(n)
    session = IntervalSession(prec)
    return _cos_enclosure(session, 2, n), _cos_enclosure(session, 1, n)


def boundary_functions(
    n: int, t, *, prec: int = DEFAULT_PREC
) -> tuple[Enclosure, Enclosure]:
    """Enclosures of the full-tuple and subtuple escape margins at slice t.

    The first value is t minus the largest radial coordinate reachable
    by all n discs jointly; the second is the same quantity with one
    receiver dropped.  Both are certified enclosures; t must be >= 1.
    """
    _require_n(n)
    t = parse_rational(t)
    if t < 1:
        raise DomainError("boundary functions are defined for t >= 1")
    session = IntervalSession(prec)
    tv = session.rational(t)
    t2 = tv * tv
    c1 = session.cos_pi_frac(1, n)
    c2 = session.cos_pi_frac(2, n)
    s1 = session.sin_pi_frac(1, n)
    s2 = session.sin_pi_frac(2, n)
    inner = session.sqrt_clamped(t2 - s1 * s1)
    f = tv - session.sqrt_clamped(t2 + c2 - 2 * c1 * inner)
    g = tv + c2 - session.sqrt_clamped(t2 - s2 * s2)
    return session.enclosure(f), session.enclosure(g)


# -- configurations -----------------------------------------------------


@dataclass(frozen=True)
class NJamConfig:
    """Jammer at (h, 0, 0) over n receivers on the unit circle at t = 0.

    h_in_range is None when the certified comparison against the window
    endpoints ran out of precision; detail then carries the hint.
    """

    n: int
    h: Fraction
    prec: int
    points: tuple[tuple[Enclosure, Enclosure], ...]
    h_in_range: bool | None
    detail: str = ""


def build_config(n: int, h, *, prec: int = DEFAULT_PREC) -> NJamConfig:
    """Assemble the configuration and certify whether h is admissible."""
    _require_n(n)
    h = parse_rational(h)
    if not 0 < h < 1:
        raise ValueError("jammer height h must satisfy 0 < h < 1")
    detail = ""
    try:
        # The window (cos(2pi/n), cos(pi/n)] is open below, closed above.
        in_range = _above_cos(h, 2, n) and not _above_cos(h, 1, n)
    except PrecisionExhausted as exc:
        in_range = None
        detail = str(exc)
    session = IntervalSession(prec)
    points = tuple(
        (session.enclosure(x), session.enclosure(y))
        for x, y in _receivers(session, n)
    )
    return NJamConfig(
        n=n, h=h, prec=prec, points=points, h_in_range=in_range, detail=detail
    )


# -- timeslice oracle ----------------------------------------------------


def oracle_grid() -> tuple[Fraction, ...]:
    """Timeslices probed by the oracle: 1 + 2^i for i = -2..20."""
    return tuple(1 + Fraction(2) ** i for i in range(-2, 21))


def _receivers(session: IntervalSession, n: int):
    return [
        (session.cos_pi_frac(2 * j, n), session.sin_pi_frac(2 * j, n))
        for j in range(n)
    ]


def _candidates(session: IntervalSession, cs, J, t: Fraction):
    """Extremal points of the radial coordinate over the disc intersection.

    Yields (x, y, skip) where skip lists the discs the candidate sits on
    by construction; membership there is exact and must not be re-tested
    through rounded arithmetic.
    """
    tv = session.rational(t)
    t2 = tv * tv
    far_scale = session.rational(1 + t)
    for j in J:
        yield far_scale * cs[j][0], far_scale * cs[j][1], frozenset((j,))
    for i, j in itertools.combinations(J, 2):
        wx = cs[i][0] - cs[j][0]
        wy = cs[i][1] - cs[j][1]
        norm_sq = wx * wx + wy * wy
        norm = session.sqrt_clamped(norm_sq)
        mx = (cs[i][0] + cs[j][0]) / 2
        my = (cs[i][1] + cs[j][1]) / 2
        span = session.sqrt_clamped(t2 - norm_sq / 4)
        ux = -wy / norm
        uy = wx / norm
        for sgn in (1, -1):
            yield mx + sgn * ux * span, my + sgn * uy * span, frozenset((i, j))


def _max_radial_sq_bounds(
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
            verdict = dist_sq.le(t_sq)
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
    lower, upper = _max_radial_sq_bounds(session, _receivers(session, n), J, t)
    lo = Fraction(0) if lower is None else sqrt_bounds(lower, bits=prec)[0]
    return Enclosure(max(Fraction(0), lo), sqrt_bounds(upper, bits=prec)[1])


def _limit_index(n: int, J) -> int:
    """m* = min_k max_{j in J} fold(k - 2j).

    cos(f*pi/n) decreases in f on [0, n], so the directional limit
    -max_k min_{j in J} cos((k - 2j)*pi/n) equals cos((n - m*)*pi/n).
    """
    return min(max(_fold(k - 2 * j, n) for j in J) for k in range(2 * n))


def _oracle_verdict(
    n: int, h: Fraction, J, *, prec: int = DEFAULT_PREC
) -> tuple[Verdict, str]:
    session = IntervalSession(prec)
    cs = _receivers(session, n)
    escape_at: Fraction | None = None
    for t in oracle_grid():
        threshold_sq = (t - h) ** 2
        lower, _ = _max_radial_sq_bounds(session, cs, J, t)
        if lower is not None and lower > threshold_sq:
            escape_at = t
            break
    try:
        # late slices certainly leak iff h is above the directional limit
        tail_escape = _above_cos(h, n - _limit_index(n, J), n)
    except PrecisionExhausted as exc:
        return Verdict.UNKNOWN, str(exc)
    if escape_at is not None:
        if not tail_escape:
            return (
                Verdict.UNKNOWN,
                f"grid slice t={escape_at} escapes but the directional"
                " limit disagrees",
            )
        return Verdict.SEPARATED, f"escape certified at slice t={escape_at}"
    if tail_escape:
        return Verdict.SEPARATED, "escape certified by the directional limit"
    return Verdict.NOT_SEPARATED, "height certainly below the directional limit"


# -- verdict bundle ------------------------------------------------------


@dataclass(frozen=True)
class RouteVerdicts:
    """One route's answers: the full tuple, then subtuples dropping j."""

    full: Verdict
    subtuples: tuple[Verdict, ...]


@dataclass(frozen=True)
class VerdictBundle:
    config: NJamConfig
    closed_form: RouteVerdicts
    oracle: RouteVerdicts
    agreement: bool
    ok: bool
    detail: str = ""
    sweep: tuple[tuple[tuple[int, ...], Verdict], ...] | None = None


def verify_config(
    config: NJamConfig, *, full_subset_sweep: bool = False
) -> VerdictBundle:
    """Check the jamming pattern along both certification routes.

    ok means: routes agree, the full tuple is NotSeparated, and every
    subtuple dropping one receiver is Separated.  Disagreements and
    Unknowns are reported, never papered over.
    """
    n, h = config.n, config.h
    notes: list[str] = []

    try:
        # The full tuple escapes iff h > cos(pi/n), a subtuple iff
        # h > cos(2pi/n): the window is closed on top, open at the bottom.
        closed_full, closed_sub = (
            Verdict.SEPARATED if _above_cos(h, m, n) else Verdict.NOT_SEPARATED
            for m in (1, 2)
        )
    except PrecisionExhausted as exc:
        closed_full = closed_sub = Verdict.UNKNOWN
        notes.append(f"closed form: {exc}")
    closed = RouteVerdicts(full=closed_full, subtuples=(closed_sub,) * n)

    full_verdict, note = _oracle_verdict(n, h, tuple(range(n)), prec=config.prec)
    notes.append(f"oracle full: {note}")
    subs = []
    for drop in range(n):
        J = tuple(j for j in range(n) if j != drop)
        verdict, note = _oracle_verdict(n, h, J, prec=config.prec)
        subs.append(verdict)
        notes.append(f"oracle drop {drop}: {note}")
    oracle = RouteVerdicts(full=full_verdict, subtuples=tuple(subs))

    agreement = closed.full is oracle.full and all(
        a is b for a, b in zip(closed.subtuples, oracle.subtuples)
    )
    if not agreement:
        notes.append("routes disagree")
    decided = Verdict.UNKNOWN not in (
        closed.full,
        oracle.full,
        *closed.subtuples,
        *oracle.subtuples,
    )
    ok = (
        agreement
        and decided
        and closed.full is Verdict.NOT_SEPARATED
        and all(v is Verdict.SEPARATED for v in closed.subtuples)
    )

    sweep = None
    if full_subset_sweep:
        rows = []
        for size in range(1, n):
            for J in itertools.combinations(range(n), size):
                verdict, _ = _oracle_verdict(n, h, J, prec=config.prec)
                rows.append((J, verdict))
        sweep = tuple(rows)

    return VerdictBundle(
        config=config,
        closed_form=closed,
        oracle=oracle,
        agreement=agreement,
        ok=ok,
        detail="; ".join(notes),
        sweep=sweep,
    )
