"""Causal orderings that the rest of the package is generic over.

Three backends share one interface: flat spacetime of any spatial
dimension, an explicit finite partial order, and a 1+1 diagram cut off
by a terminal spacelike boundary.  Coordinates are ints or Fractions,
and every comparison is an exact integer cross-multiplication of their
numerators and denominators, so causal verdicts never depend on
floating-point rounding.

Each backend validates an event in ``validate_event``; the public
queries validate their arguments, while ``separated()`` and constraint
enumeration validate each event once, where it enters, and then use the
unchecked relation ``_precedes``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Hashable, Iterable, Sequence

from .rational import parse_rational


class GeometryError(ValueError):
    """Malformed events, orders, or boundary data."""


class CycleError(GeometryError):
    """A finite order whose closure relates some element to itself."""


class DomainError(GeometryError):
    """An event outside the region a backend describes."""


@dataclass(frozen=True)
class Event:
    """A single localised occurrence.

    Point events carry exact coordinates ``(t, x)``; elements of a finite
    order carry only a ``label``.  Exactly one of the two styles is set.
    """

    t: Fraction | None = None
    x: tuple[Fraction, ...] | None = None
    label: Hashable | None = None

    @staticmethod
    def at(t, *coords) -> "Event":
        """Point event at time t with the given spatial coordinates."""
        return Event(
            t=parse_rational(t),
            x=tuple(parse_rational(c) for c in coords),
        )

    @staticmethod
    def named(label: Hashable) -> "Event":
        return Event(label=label)

    def is_point(self) -> bool:
        return self.t is not None

    def __repr__(self) -> str:
        if self.is_point():
            coords = ", ".join(str(c) for c in self.x or ())
            return f"Event(t={self.t}, x=({coords}))"
        return f"Event({self.label!r})"


class CausalOrder:
    """Interface shared by every backend.

    ``strictly_precedes`` is the irreflexive relation; ``causally_precedes``
    adds equality.  ``common_future`` returns one event that every input
    precedes-or-equals, or None when the backend contains no such event.
    """

    def validate_event(self, e: Event) -> None:
        raise NotImplementedError

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        raise NotImplementedError

    def _precedes(self, p: Event, q: Event) -> bool:
        """strictly_precedes on events already validated, unchecked."""
        raise NotImplementedError

    # The derived queries ask strictly_precedes before comparing p and q,
    # so p == q is validated too.

    def causally_precedes(self, p: Event, q: Event) -> bool:
        return self.strictly_precedes(p, q) or p == q

    def spacelike(self, p: Event, q: Event) -> bool:
        return (
            not self.strictly_precedes(p, q)
            and not self.strictly_precedes(q, p)
            and p != q
        )

    def classify(self, p: Event, q: Event) -> str:
        if self.strictly_precedes(p, q):
            return "precedes"
        if self.strictly_precedes(q, p):
            return "succeeds"
        return "equal" if p == q else "spacelike"

    def common_future(self, events: Sequence[Event]) -> Event | None:
        if not events:
            raise GeometryError("common_future of an empty family")
        for e in events:
            self.validate_event(e)
        return self._common_future(events)

    def _common_future(self, events: Sequence[Event]) -> Event | None:
        """common_future on a nonempty family of validated events."""
        raise NotImplementedError


def _check_point(e: Event, dim: int) -> None:
    """Raise GeometryError unless e is a point event with dim spatial
    coordinates, each of them (and t) an int or a Fraction."""
    if not e.is_point():
        raise GeometryError(f"{e!r} is not a point event")
    n = len(e.x or ())
    if n != dim:
        raise GeometryError(f"event has {n} spatial coordinates, expected {dim}")
    for c in (e.t, *e.x):  # type: ignore[misc]
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise GeometryError(
                f"coordinate {c!r} of {e!r} is not an int or a Fraction"
            )


def _cone_precedes(p: Event, q: Event) -> bool:
    """Strict precedence of two validated point events of equal dimension:
    dt > 0 and dt^2 >= |dx|^2, decided on numerators and denominators.

    dt = 0 never qualifies: it would need dx = 0, that is p == q.
    """
    pt, qt = p.t, q.t
    pd, qd = pt.denominator, qt.denominator  # type: ignore[union-attr]
    dt = qt.numerator * pd - pt.numerator * qd  # type: ignore[union-attr]
    if dt <= 0:
        return False
    # |dx|^2 = reach / den, over a common denominator grown coordinate by
    # coordinate; dt itself is over pd * qd.
    reach, den = 0, 1
    for a, b in zip(p.x, q.x):  # type: ignore[arg-type]
        ad, bd = a.denominator, b.denominator
        d = b.numerator * ad - a.numerator * bd
        w = ad * bd
        w *= w
        reach = reach * w + d * d * den
        den *= w
    span = pd * qd
    return dt * dt * den >= reach * span * span


def _cone_future(events: Sequence[Event]) -> Event:
    """An event every validated point event of the family causally
    precedes: the 1-norm dominates the 2-norm, so this time is late enough
    for every member while staying rational."""
    base = events[0].x
    t = max(
        e.t + sum(abs(b - a) for a, b in zip(e.x, base))  # type: ignore[arg-type]
        for e in events
    )
    return Event(t=t, x=base)


class Minkowski(CausalOrder):
    """Flat spacetime with ``dim`` spatial dimensions.

    p strictly precedes q when q lies in the closed future cone of p and
    differs from it; boundary (lightlike) separation counts as causal.
    """

    def __init__(self, dim: int):
        if not isinstance(dim, int) or dim < 1:
            raise GeometryError("spatial dimension must be a positive integer")
        self.dim = dim

    def validate_event(self, e: Event) -> None:
        _check_point(e, self.dim)

    def interval_sq(self, p: Event, q: Event) -> Fraction:
        """Signed squared interval dt^2 - |dx|^2; >= 0 means causal contact."""
        self.validate_event(p)
        self.validate_event(q)
        dt = q.t - p.t  # type: ignore[operator]
        dx = [b - a for a, b in zip(p.x, q.x)]  # type: ignore[arg-type]
        return dt * dt - sum(c * c for c in dx)

    _precedes = staticmethod(_cone_precedes)

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return _cone_precedes(p, q)

    _common_future = staticmethod(_cone_future)


class FiniteOrder(CausalOrder):
    """An explicit strict partial order on labelled elements.

    Built from generating pairs ``(a, b)`` read as "a strictly precedes b";
    the constructor takes the transitive closure and rejects any relation
    that would make some element precede itself.  ``elements`` lists every
    element once, sorted by ``repr``: the order in which searches over
    the elements try them.
    """

    def __init__(
        self,
        relations: Iterable[tuple[Hashable, Hashable]],
        elements: Iterable[Hashable] = (),
    ):
        pairs = [(a, b) for a, b in relations]
        universe: set[Hashable] = set(elements)
        for a, b in pairs:
            universe.add(a)
            universe.add(b)
        succ: dict[Hashable, set[Hashable]] = {e: set() for e in universe}
        for a, b in pairs:
            if a == b:
                raise CycleError(f"reflexive pair {a!r} < {a!r}")
            succ[a].add(b)
        closed: dict[Hashable, set[Hashable]] = {}
        for start in universe:
            seen: set[Hashable] = set()
            stack = list(succ[start])
            while stack:
                cur = stack.pop()
                if cur in seen:
                    continue
                seen.add(cur)
                stack.extend(succ[cur])
            if start in seen:
                raise CycleError(f"cycle through {start!r}")
            closed[start] = seen
        self._after = closed
        self.elements: tuple[Hashable, ...] = tuple(sorted(universe, key=repr))

    def validate_event(self, e: Event) -> None:
        if e.is_point():
            raise GeometryError(f"{e!r} is not an element of a finite order")
        if e.label not in self._after:
            raise GeometryError(f"unknown element {e.label!r}")

    def _precedes(self, p: Event, q: Event) -> bool:
        return q.label in self._after[p.label]

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return self._precedes(p, q)

    def _common_future(self, events: Sequence[Event]) -> Event | None:
        for cand in self.elements:
            c = Event.named(cand)
            if all(e == c or self._precedes(e, c) for e in events):
                return c
        return None


def null_coords(e: Event) -> tuple[Fraction, Fraction]:
    """Lightcone coordinates (u, v) = (t - x, t + x) of a 1+1 point event."""
    assert e.t is not None and e.x is not None and len(e.x) == 1
    return e.t - e.x[0], e.t + e.x[0]


def _scaled_null_coords(events: Sequence[Event]) -> tuple[int, list[tuple[int, int]]]:
    """One common denominator D of the coordinates of validated 1+1 point
    events, and the lightcone coordinates (u, v) of each event times D,
    as ints."""
    den = lcm(*(c.denominator for e in events for c in (e.t, *e.x)))  # type: ignore[union-attr]
    coords = []
    for e in events:
        t = e.t.numerator * (den // e.t.denominator)  # type: ignore[union-attr]
        x = e.x[0].numerator * (den // e.x[0].denominator)  # type: ignore[index]
        coords.append((t - x, t + x))
    return den, coords


def event_from_null(u, v, den: int = 1) -> Event:
    """The 1+1 event with lightcone coordinates (u/den, v/den), den > 0.
    For ints u, v and den, t and x are each built as one Fraction over
    2*den, with no Fraction arithmetic."""
    return Event(t=Fraction(u + v, 2 * den), x=(Fraction(v - u, 2 * den),))


class TerminatedDiagram(CausalOrder):
    """1+1 flat causal order restricted to the strict past of a terminal
    spacelike boundary.

    The boundary is a piecewise-linear graph ``t = sigma(x)`` over vertices
    with strictly increasing x and every segment slope strictly between -1
    and 1, extended at constant height beyond the first and last vertex.
    The region described is everything strictly below the boundary, which
    is closed under causal pasts, so the restricted order agrees with the
    ambient one on its domain.
    """

    def __init__(self, vertices: Sequence[tuple]):
        pts = [(parse_rational(x), parse_rational(s)) for x, s in vertices]
        if not pts:
            raise GeometryError("boundary needs at least one vertex")
        for (x0, s0), (x1, s1) in zip(pts, pts[1:]):
            if x1 <= x0:
                raise GeometryError("boundary vertices must have increasing x")
            if abs(s1 - s0) >= x1 - x0:
                raise GeometryError(
                    f"boundary segment from x={x0} to x={x1} is not spacelike"
                )
        self.vertices = pts
        # Scaled by the common denominator D of the vertices, piece i of
        # the boundary (the flat ends included) is the line
        # D*b*t - D*a*x = c for one integer triple (D*a, D*b, c) with
        # b > 0, the domain lying below it.  Piece i covers the x with i
        # vertex keys D*x_k <= D*x.
        D = lcm(*(c.denominator for pt in pts for c in pt))
        scaled = [(int(x * D), int(s * D)) for x, s in pts]
        pieces = [(0, D, scaled[0][1])]
        for (x0, s0), (x1, s1) in zip(scaled, scaled[1:]):
            a, b = s1 - s0, x1 - x0
            pieces.append((D * a, D * b, s0 * b - a * x0))
        pieces.append((0, D, scaled[-1][1]))
        self._D = D
        self._keys = [x for x, _ in scaled]
        self._pieces = pieces

    def _piece(self, x: int, den: int) -> tuple[int, int, int]:
        """The piece over x/den, for ints x and den > 0."""
        # An integer key k has k <= D*x/den exactly when k <= its floor.
        return self._pieces[bisect_right(self._keys, self._D * x // den)]

    def sigma(self, x) -> Fraction:
        """Boundary height above spatial position x."""
        x = parse_rational(x)
        da, db, c = self._piece(x.numerator, x.denominator)
        return (c + da * x) / db

    def _below(self, t: int, x: int, den: int) -> bool:
        """t/den < sigma(x/den) for ints t, x and den > 0, in integers."""
        da, db, c = self._piece(x, den)
        return db * t - da * x < c * den

    def in_domain(self, e: Event) -> bool:
        _check_point(e, 1)
        t, x = e.t, e.x[0]  # type: ignore[index]
        td, xd = t.denominator, x.denominator  # type: ignore[union-attr]
        return self._below(t.numerator * xd, x.numerator * td, td * xd)  # type: ignore[union-attr]

    def validate_event(self, e: Event) -> None:
        if not self.in_domain(e):
            raise DomainError(f"{e!r} is not below the terminal boundary")

    _precedes = staticmethod(_cone_precedes)

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return _cone_precedes(p, q)

    def _null_below(self, u: int, v: int, den: int) -> bool:
        """Whether the point with lightcone coordinates (u/den, v/den), for
        ints u, v and den > 0, lies in the domain.  The domain is a lower
        set in (u, v) because the boundary slopes stay below light speed."""
        return self._below(u + v, v - u, 2 * den)

    def _common_future(self, events: Sequence[Event]) -> Event | None:
        den, coords = _scaled_null_coords(events)
        u = max(u for u, _ in coords)
        v = max(v for _, v in coords)
        # (u, v) is the minimum of all ambient upper bounds, and the domain
        # is a lower set in lightcone coordinates, so either this corner is
        # in the region or nothing above every member is.
        if self._null_below(u, v, den):
            return event_from_null(u, v, den)
        return None
