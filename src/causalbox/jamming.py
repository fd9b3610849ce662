"""Symmetric jammer configurations in two space dimensions.

A jammer sits at p = (h, 0, 0) above n receivers spread evenly on the
unit circle of the t = 0 slice.  For h in a certified window the full
receiver tuple cannot be gathered outside the jammer's future, while
every proper subtuple can.  Two independent routes certify this: a
closed-form comparison of h against the window ends cos(2pi/n) and
cos(pi/n), and an oracle that treats each receiver subset J on its own.

The oracle compares h with J's directional limit: the value that t minus
the largest radial coordinate of the receivers' radius-t disc
intersection decreases to, so no timeslice escapes unless h is above it.
Not above the limit, the verdict is NOT_SEPARATED with the integer limit
index as certificate; above it, SEPARATED with a rational witness event.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .intervals import Enclosure, IntervalSession, _session, refine
from .rational import format_rational, parse_rational
from .separation import Verdict

__all__ = [
    "NJamConfig",
    "RouteVerdicts",
    "Unsupported",
    "VerdictBundle",
    "build_config",
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


@lru_cache(maxsize=None)
def _ring(prec: int, n: int) -> tuple[tuple[Enclosure, Enclosure], ...]:
    """Enclosures (cos, sin) of m*pi/n at prec bits, for m in range(2n).

    Every ring cosine and sine is read from here, so each is evaluated
    once per precision; receiver j sits at entry 2j.
    """
    iv = _session(prec)
    return tuple(
        (iv.enclosure(iv.cos_pi_frac(m, n)), iv.enclosure(iv.sin_pi_frac(m, n)))
        for m in range(2 * n)
    )


def _above_cos(h: Fraction, m: int, n: int) -> bool:
    """Whether h > cos(m*pi/n), decided exactly in integers.

    A rational cosine is compared directly.  Otherwise f = fold(m, n)
    lies in 1..n-1 and cos(f*pi/n) is a root of U_{n-1}.  The Chebyshev
    polynomials U_0 .. U_{n-1} form a Sturm chain (Szego, Orthogonal
    Polynomials, 3.3), so the sign changes of U_k(h), zeros skipped,
    count the roots cos(j*pi/n) above h; h lies above the f-th root
    exactly when fewer than f do.  The count cannot tell h from the
    root itself, but an irrational root never equals h.  For h = p/q,
    V_k = q^k U_k(h) keeps the signs and obeys V_0 = 1, V_1 = 2p,
    V_{k+1} = 2p V_k - q^2 V_{k-1}.
    """
    exact = _rational_cos(m, n)
    if exact is not None:
        return h > exact
    f = _fold(m, n)
    two_p, q_sq = 2 * h.numerator, h.denominator**2
    prev, cur = 0, 1
    positive, changes = True, 0
    for _ in range(n - 1):
        prev, cur = cur, two_p * cur - q_sq * prev
        if cur and (cur > 0) != positive:
            positive, changes = not positive, changes + 1
    return changes < f


# -- configurations -----------------------------------------------------


@dataclass(frozen=True)
class NJamConfig:
    """Jammer at (h, 0, 0) over n receivers on the unit circle at t = 0.

    points holds enclosures of the receivers at prec = DEFAULT_PREC bits;
    h_in_range says whether h lies in the window (cos(2pi/n), cos(pi/n)],
    decided exactly.
    """

    n: int
    h: Fraction
    prec: int
    points: tuple[tuple[Enclosure, Enclosure], ...]
    h_in_range: bool


def build_config(n: int, h) -> NJamConfig:
    """Assemble the configuration and certify whether h is admissible."""
    _require_n(n)
    h = parse_rational(h)
    if not 0 < h < 1:
        raise ValueError("jammer height h must satisfy 0 < h < 1")
    # The window (cos(2pi/n), cos(pi/n)] is open below, closed above.
    in_range = _above_cos(h, 2, n) and not _above_cos(h, 1, n)
    points = _ring(DEFAULT_PREC, n)[::2]
    return NJamConfig(n=n, h=h, prec=DEFAULT_PREC, points=points, h_in_range=in_range)


# -- directional-limit oracle ---------------------------------------------

# (t, x, y): an event in every receiver's future, outside the jammer's
Witness = tuple[Fraction, Fraction, Fraction]


def _limit_index(n: int, J) -> tuple[int, int]:
    """(m*, k) with m* = min_k max_{j in J} fold(k - 2j), k the least
    angle index attaining it, for sorted nonempty J.

    The farthest receiver from angle k is n less the distance from the
    opposite angle k + n to the nearest receiver.  That distance peaks,
    at g, only in the middle 2a + g of a largest cyclic gap of J, from a
    to a + g; so m* = n - g, attained at k = 2a + g + n (mod 2n).

    cos(f*pi/n) decreases in f on [0, n], so the directional limit
    -max_k min_{j in J} cos((k - 2j)*pi/n) equals cos((n - m*)*pi/n),
    and it is approached going outward along the angle k*pi/n.
    """
    gaps = [(b - a, a) for a, b in zip(J, (*J[1:], J[0] + n))]
    g = max(gaps)[0]
    return n - g, min((2 * a + g + n) % (2 * n) for d, a in gaps if d == g)


@lru_cache(maxsize=None)
def _unit_bounds(prec: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Integers (cos_lo, cos_hi, sin_lo, sin_hi) bracketing 2^prec times
    cos(m*pi/n) and sin(m*pi/n), for m in range(2n)."""
    scale = 1 << prec

    def bracket(enc: Enclosure) -> tuple[int, int]:
        return math.floor(enc.lo * scale), math.ceil(enc.hi * scale)

    return tuple(bracket(c) + bracket(s) for c, s in _ring(prec, n))


def _escape_witness(n: int, h: Fraction, J, k: int) -> Witness:
    """A witness event far out along the angle k*pi/n; h must lie strictly
    above the directional limit of J, which is attained along that angle.
    That is what makes the uncapped refine end, so callers decide it
    first with _above_cos.

    At radius rho = 2^i, (x, y) is the integer point nearest to rho times
    the direction, and t bounds its distance to every receiver from above
    on the grid 2^-(i+4).  Rounding costs O(1/rho) of the escape margin,
    which tends to h minus the limit, so doubling rho ends once rho is
    large against the gap; each precision rung stops while its enclosures
    stay finer than the grid.
    """

    def decide(session: IntervalSession):
        bits = session.prec
        units = _unit_bounds(bits, n)
        c_lo, c_hi, s_lo, s_hi = units[k]
        for i in range(bits - 8):
            x = round(Fraction((c_lo + c_hi) << i, 2 << bits))
            y = round(Fraction((s_lo + s_hi) << i, 2 << bits))
            # |(x, y) - c|^2 = x^2 + y^2 + 1 - 2 (x, y).c for c on the unit
            # circle; reach bounds 2^bits min_j (x, y).c_j from below.
            reach = min(
                x * (cl if x >= 0 else ch) + y * (sl if y >= 0 else sh)
                for cl, ch, sl, sh in (units[2 * j] for j in J)
            )
            dist_sq = ((x * x + y * y + 1) << bits) - 2 * reach
            grid = i + 4
            t = Fraction(math.isqrt((dist_sq << 2 * grid) >> bits) + 2, 1 << grid)
            if t < h or (t - h) ** 2 < x * x + y * y:
                return t, Fraction(x), Fraction(y)
        return None

    return refine(decide)


def _oracle_verdict(n: int, h: Fraction, J) -> tuple[Verdict, str, Witness | None]:
    """NOT_SEPARATED iff h is not above the directional limit of J, with
    the limit index as certificate; otherwise SEPARATED with a witness."""
    m, k = _limit_index(n, J)
    if not _above_cos(h, n - m, n):
        note = f"height not above the directional limit cos({n - m}*pi/{n})"
        return Verdict.NOT_SEPARATED, note, None
    t, x, y = witness = _escape_witness(n, h, J, k)
    note = f"escape witnessed at (t, x, y) = ({format_rational(t)}, {x}, {y})"
    return Verdict.SEPARATED, note, witness


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

    Both routes decide every verdict exactly; agreement means they give
    the same verdict on the full tuple and on every subtuple.  ok means:
    the routes agree, the full tuple is NotSeparated, and every subtuple
    dropping one receiver is Separated.  A disagreement is reported,
    never papered over.
    """
    n, h = config.n, config.h
    notes: list[str] = []

    # The full tuple escapes iff h > cos(pi/n), a subtuple iff
    # h > cos(2pi/n): the window is closed on top, open at the bottom.
    closed_full, closed_sub = (
        Verdict.SEPARATED if _above_cos(h, m, n) else Verdict.NOT_SEPARATED
        for m in (1, 2)
    )
    closed = RouteVerdicts(full=closed_full, subtuples=(closed_sub,) * n)

    full_verdict, note, _ = _oracle_verdict(n, h, tuple(range(n)))
    notes.append(f"oracle full: {note}")
    subs = []
    for drop in range(n):
        J = tuple(j for j in range(n) if j != drop)
        verdict, note, _ = _oracle_verdict(n, h, J)
        subs.append(verdict)
        notes.append(f"oracle drop {drop}: {note}")
    oracle = RouteVerdicts(full=full_verdict, subtuples=tuple(subs))

    agreement = closed == oracle
    if not agreement:
        notes.append("routes disagree")
    ok = (
        agreement
        and closed.full is Verdict.NOT_SEPARATED
        and all(v is Verdict.SEPARATED for v in closed.subtuples)
    )

    sweep = None
    if full_subset_sweep:
        sweep = tuple(
            (J, _oracle_verdict(n, h, J)[0])
            for size in range(1, n)
            for J in itertools.combinations(range(n), size)
        )

    return VerdictBundle(
        config=config,
        closed_form=closed,
        oracle=oracle,
        agreement=agreement,
        ok=ok,
        detail="; ".join(notes),
        sweep=sweep,
    )
