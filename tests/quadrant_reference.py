"""The Fraction 1+1 quadrant engine, kept by the tests as a reference for
the integer one in `causalbox.separation`.

`quadrant_decide` works on the lightcone coordinates (u, v) of each
event as Fractions: it asks the order's relation whether one avoided
event strictly precedes another, and tests the terminated domain at a
corner (u, v) through `in_domain` of the point with those lightcone
coordinates.  It takes duplicate-free families of validated events, as
`_quadrant_decide` does, and checks nothing else.
"""

from __future__ import annotations

from causalbox.geometry import TerminatedDiagram, event_from_null, null_coords
from causalbox.separation import SeparationResult, Verdict


def quadrant_decide(order, gather, avoid) -> SeparationResult:
    terminated = isinstance(order, TerminatedDiagram)

    def null_below(u, v):
        return order.in_domain(event_from_null(u, v))

    prec = order._precedes
    gu = [null_coords(q) for q in gather]
    ustar = max(u for u, _ in gu)
    vstar = max(v for _, v in gu)
    if terminated and not null_below(ustar, vstar):
        return SeparationResult(
            Verdict.NOT_SEPARATED,
            reason="no_common_future",
            detail="the gathered family has no joint future inside the domain",
        )
    for p in avoid:
        up, vp = null_coords(p)
        if up >= ustar and vp >= vstar and not any(prec(pk, p) for pk in avoid):
            return SeparationResult(
                Verdict.SEPARATED, witness=p, reason="gather_at_avoid_point"
            )
    blockers = [null_coords(p) for p in avoid]
    for u in sorted({ustar} | {ub for ub, _ in blockers if ub > ustar}):
        if terminated and not null_below(u, vstar):
            break
        active = [vb for ub, vb in blockers if ub <= u]
        if not active or vstar < min(active):
            return SeparationResult(
                Verdict.SEPARATED,
                witness=event_from_null(u, vstar),
                reason="quadrant_escape",
            )
    return SeparationResult(Verdict.NOT_SEPARATED, reason="quadrant_cover")
