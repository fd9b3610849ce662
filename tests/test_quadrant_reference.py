"""The integer 1+1 quadrant engine against the Fraction reference.

Seeded families on `Minkowski(1)` and on a terminated diagram with
mixed vertex denominators go through `_quadrant_decide` and through
`quadrant_reference.quadrant_decide`; verdict, reason, detail and
witness must agree exactly.  Events are drawn in lightcone coordinates
from small pools with denominators 1, 2, 3 and 5, so many families tie
on u or on v, and every call mixes denominators.
"""

import math
import random
from fractions import Fraction

import quadrant_reference as ref
from causalbox.geometry import Minkowski, TerminatedDiagram, event_from_null
from causalbox.separation import _quadrant_decide

# A dip between two shelves: pairs on opposite sides cannot gather.
TERMINATED = TerminatedDiagram(
    [(-8, "7/2"), (-3, "5/2"), ("1/2", "4/3"), ("9/2", "13/5"), (9, "17/5")]
)
POOL = sorted(
    {Fraction(k, d) for d in (1, 2, 3, 5) for k in range(-6 * d, 6 * d + 1, d)}
    | {Fraction(k, d) for d in (2, 3, 5) for k in (-7, -4, -1, 1, 2, 4, 7)}
)


def _events(rng, order, k):
    """k distinct events of the order's domain whose (u, v) come from a
    few pool values, so that coordinates repeat."""
    while True:
        us, vs = rng.sample(POOL, 4), rng.sample(POOL, 4)
        grid = [event_from_null(u, v) for u in us for v in vs]
        inside = [e for e in grid if isinstance(order, Minkowski) or order.in_domain(e)]
        if len(inside) >= k:
            return rng.sample(inside, k)


def test_integer_engine_matches_reference():
    reasons, ties, mixed = set(), 0, 0
    for order in (Minkowski(1), TERMINATED):
        for seed in range(300):
            rng = random.Random(f"quadrant:{type(order).__name__}:{seed}")
            n_gather, n_avoid = rng.randint(1, 3), rng.randint(0, 3)
            events = _events(rng, order, n_gather + n_avoid)
            gather, avoid = events[:n_gather], events[n_gather:]
            got = _quadrant_decide(order, gather, avoid)
            want = ref.quadrant_decide(order, gather, avoid)
            assert got == want, (seed, gather, avoid)
            assert repr(got.witness) == repr(want.witness)
            if got.reason == "gather_at_avoid_point":
                assert got.witness in avoid
            reasons.add((type(order).__name__, got.reason))
            coords = [ref.null_coords(e) for e in events]
            ties += any(
                a != b and (a[0] == b[0] or a[1] == b[1])
                for i, a in enumerate(coords)
                for b in coords[i + 1 :]
            )
            dens = {c.denominator for e in events for c in (e.t, *e.x)}
            mixed += len(dens) > 1 and math.lcm(*dens) > max(dens)
    # Every exit on both backends, with ties and mixed denominators.
    assert reasons == {
        (name, reason)
        for name in ("Minkowski", "TerminatedDiagram")
        for reason in ("gather_at_avoid_point", "quadrant_escape", "quadrant_cover")
    } | {("TerminatedDiagram", "no_common_future")}
    assert ties > 200 and mixed > 100
