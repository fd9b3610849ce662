"""Causal orderings that the rest of the package is generic over.

Three backends share one interface: flat spacetime of any spatial
dimension, an explicit finite partial order, and a 1+1 diagram cut off
by a terminal spacelike boundary.  All coordinate comparisons are exact
(Fractions), so causal verdicts never depend on floating-point rounding.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
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

    def causally_precedes(self, p: Event, q: Event) -> bool:
        return p == q or self.strictly_precedes(p, q)

    def spacelike(self, p: Event, q: Event) -> bool:
        return (
            p != q
            and not self.strictly_precedes(p, q)
            and not self.strictly_precedes(q, p)
        )

    def classify(self, p: Event, q: Event) -> str:
        if p == q:
            return "equal"
        if self.strictly_precedes(p, q):
            return "precedes"
        if self.strictly_precedes(q, p):
            return "succeeds"
        return "spacelike"

    def common_future(self, events: Sequence[Event]) -> Event | None:
        raise NotImplementedError


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
        if not e.is_point():
            raise GeometryError(f"{e!r} is not a point event")
        assert e.x is not None
        if len(e.x) != self.dim:
            raise GeometryError(
                f"event has {len(e.x)} spatial coordinates, expected {self.dim}"
            )

    def delta(self, p: Event, q: Event) -> tuple[Fraction, tuple[Fraction, ...]]:
        self.validate_event(p)
        self.validate_event(q)
        assert p.x is not None and q.x is not None and p.t is not None and q.t is not None
        dt = q.t - p.t
        dx = tuple(b - a for a, b in zip(p.x, q.x))
        return dt, dx

    def interval_sq(self, p: Event, q: Event) -> Fraction:
        """Signed squared interval dt^2 - |dx|^2; >= 0 means causal contact."""
        dt, dx = self.delta(p, q)
        return dt * dt - sum(c * c for c in dx)

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return _cone_precedes(p, q)

    def common_future(self, events: Sequence[Event]) -> Event | None:
        if not events:
            raise GeometryError("common_future of an empty family")
        for e in events:
            self.validate_event(e)
        base = events[0].x
        assert base is not None
        # The 1-norm dominates the 2-norm, so this time is causally late
        # enough for every member while staying rational.
        t = max(
            e.t + sum(abs(b - a) for a, b in zip(e.x, base))  # type: ignore[arg-type]
            for e in events
        )
        return Event(t=t, x=base)


def _cone_precedes(p: Event, q: Event) -> bool:
    """Strict precedence of two validated point events of equal dimension.

    dt = 0 never qualifies: it would need dx = 0, that is p == q.
    """
    dt = q.t - p.t  # type: ignore[operator]
    if dt <= 0:
        return False
    reach = 0
    for a, b in zip(p.x, q.x):  # type: ignore[arg-type]
        d = b - a
        reach += d * d
    return dt * dt >= reach


class FiniteOrder(CausalOrder):
    """An explicit strict partial order on labelled elements.

    Built from generating pairs ``(a, b)`` read as "a strictly precedes b";
    the constructor takes the transitive closure and rejects any relation
    that would make some element precede itself.
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
        self.elements: frozenset[Hashable] = frozenset(universe)

    def validate_event(self, e: Event) -> None:
        if e.is_point():
            raise GeometryError(f"{e!r} is not an element of a finite order")
        if e.label not in self.elements:
            raise GeometryError(f"unknown element {e.label!r}")

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return q.label in self._after[p.label]

    def common_future(self, events: Sequence[Event]) -> Event | None:
        if not events:
            raise GeometryError("common_future of an empty family")
        for e in events:
            self.validate_event(e)
        for cand in sorted(self.elements, key=repr):
            c = Event.named(cand)
            if all(self.causally_precedes(e, c) for e in events):
                return c
        return None


def null_coords(e: Event) -> tuple[Fraction, Fraction]:
    """Lightcone coordinates (u, v) = (t - x, t + x) of a 1+1 point event."""
    assert e.t is not None and e.x is not None and len(e.x) == 1
    return e.t - e.x[0], e.t + e.x[0]


def event_from_null(u: Fraction, v: Fraction) -> Event:
    return Event(t=(u + v) / 2, x=((v - u) / 2,))


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
        self._xs = [x for x, _ in pts]
        self._slopes = [
            (s1 - s0) / (x1 - x0) for (x0, s0), (x1, s1) in zip(pts, pts[1:])
        ]
        self._ambient = Minkowski(1)

    def sigma(self, x) -> Fraction:
        """Boundary height above spatial position x."""
        x = parse_rational(x)
        pts = self.vertices
        i = bisect_right(self._xs, x)
        if i == 0:
            return pts[0][1]
        if i == len(pts):
            return pts[-1][1]
        x0, s0 = pts[i - 1]
        return s0 + self._slopes[i - 1] * (x - x0)

    def in_domain(self, e: Event) -> bool:
        self._ambient.validate_event(e)
        assert e.t is not None and e.x is not None
        return e.t < self.sigma(e.x[0])

    def validate_event(self, e: Event) -> None:
        if not self.in_domain(e):
            raise DomainError(f"{e!r} is not below the terminal boundary")

    def strictly_precedes(self, p: Event, q: Event) -> bool:
        self.validate_event(p)
        self.validate_event(q)
        return _cone_precedes(p, q)

    def phi(self, u: Fraction, v: Fraction) -> Fraction:
        """Margin sigma(x) - t of the point with lightcone coordinates
        (u, v); positive exactly on the domain.  Strictly decreasing in
        both arguments because the boundary slopes stay below light speed.
        """
        e = event_from_null(u, v)
        assert e.t is not None and e.x is not None
        return self.sigma(e.x[0]) - e.t

    def common_future(self, events: Sequence[Event]) -> Event | None:
        if not events:
            raise GeometryError("common_future of an empty family")
        for e in events:
            self.validate_event(e)
        u = max(null_coords(e)[0] for e in events)
        v = max(null_coords(e)[1] for e in events)
        # (u, v) is the minimum of all ambient upper bounds, and the domain
        # is a lower set in lightcone coordinates, so either this corner is
        # in the region or nothing above every member is.
        if self.phi(u, v) > 0:
            return event_from_null(u, v)
        return None
