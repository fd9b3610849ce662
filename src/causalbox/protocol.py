"""Turn a violated constraint into an operational signalling protocol.

The hybrid walk pins the violation to a single input coordinate, which
yields a sender, a frozen context, and two receiver distributions that
differ.  The geometric certificate supplies a gathering point outside
the sender's strict future, so the receiver statistics are available
before any subluminal message could arrive.  A finite-sample test makes
the effect operational, and in flat spacetime an isometry can mirror
the channel into a closed causal loop.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Mapping, Sequence

from .boxes import CorrelationBox, _marginal_vector, marginalize
from .geometry import CausalOrder, Event, Minkowski
from .ons import ConstraintInstance, ViolationReport, _violations
from .poincare import PoincareMap, find_loop_transform
from .rational import _plain_int
from .separation import verify_separation_witness


class PreconditionViolated(ValueError):
    """The requested construction needs a violation that is not there."""


@dataclass(frozen=True)
class SignallingProtocol:
    """Everything needed to run the one-coordinate signalling scheme.

    The sender toggles input `sender` between its values in setting_a
    and setting_b while every other input stays frozen; the receivers'
    joint outputs G are read off at gathering_point.
    """

    sender: int
    setting_a: tuple[str, ...]
    setting_b: tuple[str, ...]
    G: tuple[int, ...]
    gathering_point: Event
    dist_a: Mapping[tuple[str, ...], Fraction]
    dist_b: Mapping[tuple[str, ...], Fraction]

    @property
    def sender_values(self) -> tuple[str, str]:
        return self.setting_a[self.sender], self.setting_b[self.sender]

    @property
    def total_variation(self) -> Fraction:
        keys = set(self.dist_a) | set(self.dist_b)
        diff = sum(
            abs(
                self.dist_a.get(k, Fraction(0)) - self.dist_b.get(k, Fraction(0))
            )
            for k in keys
        )
        return Fraction(diff, 2)


def hybrid_localize(
    box: CorrelationBox, violation: ViolationReport
) -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """Walk from x to x' flipping one F coordinate at a time and return
    (k, h_{k-1}, h_k) for the first step whose G-marginals differ.

    The endpoint marginals differ, so some step must; k is 1-based in
    the listed order of F.
    """
    inst = violation.instance
    settings = [inst.x]
    current = list(inst.x)
    for f in inst.F:
        current[f] = inst.x_prime[f]
        settings.append(tuple(current))
    previous = _marginal_vector(box, inst.G, settings[0])
    for k in range(1, len(settings)):
        here = _marginal_vector(box, inst.G, settings[k])
        if here != previous:
            return k, settings[k - 1], settings[k]
        previous = here
    raise PreconditionViolated(
        "the two endpoint marginals agree; nothing to localize"
    )


def _gathering_point_avoiding(
    order: CausalOrder,
    box: CorrelationBox,
    inst: ConstraintInstance,
    sender: int,
) -> Event:
    gather = [box.outputs[g].location for g in inst.G]
    avoid = [box.inputs[sender].location]
    witness = inst.certificate.witness
    if witness is None or not verify_separation_witness(
        order, gather, avoid, witness
    ):
        raise PreconditionViolated(
            "instance certificate does not cover the localized sender"
        )
    return witness


def build_protocol(
    order: CausalOrder,
    box: CorrelationBox,
    violation: ViolationReport,
) -> SignallingProtocol:
    """Assemble and re-verify the protocol extracted from a violation.
    The instance's witness is the gathering point, checked to lie in
    every receiver's causal future and outside the sender's strict one."""
    if not violation.recompute(box):
        raise PreconditionViolated("violation report does not match the box")
    inst = violation.instance
    k, x_a, x_b = hybrid_localize(box, violation)
    sender = inst.F[k - 1]
    dist_a = marginalize(box, inst.G, x_a)
    dist_b = marginalize(box, inst.G, x_b)
    return SignallingProtocol(
        sender=sender,
        setting_a=x_a,
        setting_b=x_b,
        G=inst.G,
        gathering_point=_gathering_point_avoiding(order, box, inst, sender),
        dist_a=dist_a,
        dist_b=dist_b,
    )


def exhaustive_protocol_search(
    order: CausalOrder,
    box: CorrelationBox,
    instances: Sequence[ConstraintInstance],
) -> SignallingProtocol | None:
    """The protocol of the first instance, in the given order, whose two
    marginals differ.  It runs check_instances' scan and stops at its
    first report, so a caller holding those reports can pass the first
    one to build_protocol instead.

    Returns None only when no instance exhibits differing marginals, so
    a box that satisfies every constraint admits no protocol at all.
    """
    first = next(_violations(box, instances), None)
    return None if first is None else build_protocol(order, box, first)


# ----------------------------------------------------------------------
# finite-sample simulation


@dataclass(frozen=True)
class SimulationResult:
    trials: int
    seed: int
    counts_a: Mapping[tuple[str, ...], int]
    counts_b: Mapping[tuple[str, ...], int]
    empirical_tv: Fraction
    statistic: float
    p_value: float
    alpha: Fraction
    reject: bool
    method: str


def _stream(seed: int, label: str) -> random.Random:
    """The Mersenne Twister stream for one part of a simulate call: arm
    "a", arm "b" or the Monte-Carlo rounds "mc".  The string key is
    hashed into the generator's state, so the streams are unrelated."""
    return random.Random(f"simulate:{seed}:{label}")


# Draws per bulk call on a stream: 64 KiB of raw bytes, whatever `trials`
# or `mc_rounds` is.  Chunks of 2**14 were no faster and left the process
# about 0.3 MB larger.
_CHUNK = 2**13
# The guide byte of a draw that its top byte alone does not place.
_SPLIT = 255


class _Sampler:
    """Inverse-CDF sampling with exact integer cut points, drawn in bulk.

    A 53-bit draw r stands for u = r / 2**53, and u lies below a running
    total c of the probabilities exactly when r < ceil(c * 2**53).  So
    the first cell whose cut exceeds r, bisect_right(cuts, r), is the
    exact inverse-CDF cell, for every rational distribution.

    getrandbits(64 * m) returns, in order, the 32-bit words that m calls
    of getrandbits(53) take two at a time, and leaves the stream where
    those calls would.  Read as little-endian 64-bit words c, the i-th
    draw is r = c & 0xFFFFFFFF | c >> 43 << 32, and its top byte r >> 45
    is byte 8 * i + 7 of the raw bytes.

    The guide is a 256-byte translation table: byte j is the cell of
    every r in [j * 2**45, (j + 1) * 2**45), or _SPLIT where a cut lies
    strictly inside that range or the cell's index does not fit below
    _SPLIT.  A chunk's cells are its top bytes translated through the
    guide, and only a draw whose top byte maps to _SPLIT is rebuilt from
    its eight bytes and bisected, so any number of cells takes one path.
    """

    def __init__(self, dist: Mapping[tuple[str, ...], Fraction]):
        self.outcomes = list(dist)
        cum = Fraction(0)
        self.cuts: list[int] = []
        for a in self.outcomes:
            cum += dist[a]
            self.cuts.append(math.ceil(cum * 2**53))
        guide = bytearray()
        lo = 0
        for i, c in enumerate(self.cuts):
            # Cell i holds the draws in [lo, c).  A previous cut lo off a
            # range boundary splits its range; the ranges after that one
            # and wholly below c belong to cell i.
            if len(guide) < -(-lo >> 45):
                guide.append(_SPLIT)
            guide.extend([min(i, _SPLIT)] * ((c >> 45) - len(guide)))
            lo = c
        self.guide = bytes(guide)

    def _chunks(self, rng: random.Random, n: int):
        """The raw bytes and the guide bytes of n draws from rng, in
        chunks of at most _CHUNK draws."""
        while n > 0:
            m = min(n, _CHUNK)
            raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
            yield raw, raw[7::8].translate(self.guide)
            n -= m

    def _bisect(self, raw: bytes, p: int) -> int:
        """The cell of the chunk's p-th draw, rebuilt from its bytes."""
        c = int.from_bytes(raw[8 * p : 8 * p + 8], "little")
        return bisect_right(self.cuts, c & 0xFFFFFFFF | c >> 43 << 32)

    def tally(self, rng: random.Random, trials: int) -> list[int]:
        """Cell counts of `trials` draws from rng, in outcome order."""
        counts = [0] * len(self.cuts)
        named = set(self.guide) - {_SPLIT}
        for raw, cells in self._chunks(rng, trials):
            for i in named:
                counts[i] += cells.count(i)
            p = cells.find(_SPLIT)
            while p >= 0:
                counts[self._bisect(raw, p)] += 1
                p = cells.find(_SPLIT, p + 1)
        return counts

    def sequence(self, rng: random.Random, n: int):
        """The cells of n draws from rng, in draw order, one list per
        chunk."""
        for raw, cells in self._chunks(rng, n):
            out = list(cells)
            p = cells.find(_SPLIT)
            while p >= 0:
                out[p] = self._bisect(raw, p)
                p = cells.find(_SPLIT, p + 1)
            yield out


class _GTerms(dict):
    """The G-statistic terms 2 o log(o / e) of one cell with expected
    count e, keyed by the count o and each computed on first use, so the
    memo holds only the counts that actually occur."""

    __slots__ = ("expected",)

    def __init__(self, expected: float):
        super().__init__()
        self.expected = expected

    def __missing__(self, o: int) -> float:
        t = self[o] = 2.0 * o * math.log(o / self.expected)
        return t


def simulate(
    protocol: SignallingProtocol,
    trials: int,
    seed: int,
    *,
    alpha: Fraction = Fraction(1, 100),
    mc_rounds: int = 2000,
) -> SimulationResult:
    """Run both arms of the protocol and test sample homogeneity.

    Each arm's `trials` counts come from its own seeded stream.  When
    every pooled expected count is at least 5, Pearson's two-sample
    chi-square decides (method "chi2", p-value from mpmath's regularized
    upper incomplete gamma).  Otherwise the p-value comes from a
    Monte-Carlo likelihood-ratio test (method "exact_mc"): each of the
    `mc_rounds` rounds draws arm a's `trials` cells and then arm b's from
    the pooled distribution on one shared "mc" stream, and hits when its
    G statistic reaches the observed one less 1e-12; p = (hits + 1) /
    (mc_rounds + 1).  Every stream, the rounds' included, is drawn in
    bulk chunks of at most _CHUNK draws that hold the same draws as one
    getrandbits(53) call each (see _Sampler): an arm's counts come from
    bytes.count on its cells, and each round reads arm a's cells and then
    arm b's off the "mc" cells in draw order.  The G terms 2 o log(o / e)
    are memoised per (cell, count) pair on first use and summed in a
    fixed order (arm a's cells, then arm b's, skipping zero counts), the
    order the observed G is summed in.  A single observed cell gives
    method "degenerate" with p = 1.

    Raises ValueError, before any draw, unless trials and mc_rounds are
    ints >= 1, seed is an int in [0, 2**64) and alpha is an int or a
    Fraction with 0 < alpha < 1 (bools and floats are rejected), and
    unless each arm's distribution is nonnegative and sums to 1.
    """
    for name, value in (("trials", trials), ("mc_rounds", mc_rounds)):
        if not _plain_int(value) or value < 1:
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if not _plain_int(seed) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")
    if not (_plain_int(alpha) or isinstance(alpha, Fraction)) or not 0 < alpha < 1:
        raise ValueError(f"alpha must be a Fraction in (0, 1), got {alpha!r}")
    for name, dist in (("dist_a", protocol.dist_a), ("dist_b", protocol.dist_b)):
        if any(p < 0 for p in dist.values()) or sum(dist.values()) != 1:
            raise ValueError(f"{name} must be nonnegative and sum to 1")
    counts: list[dict[tuple[str, ...], int]] = []
    for label, dist in (("a", protocol.dist_a), ("b", protocol.dist_b)):
        sampler = _Sampler(dist)
        tally = sampler.tally(_stream(seed, label), trials)
        counts.append({a: n for a, n in zip(sampler.outcomes, tally) if n})
    cells = sorted(set(counts[0]) | set(counts[1]))
    observed = [[arm.get(c, 0) for c in cells] for arm in counts]
    tv = Fraction(sum(abs(o - q) for o, q in zip(*observed)), 2 * trials)
    df = len(cells) - 1
    if df == 0:
        return SimulationResult(
            trials, seed, counts[0], counts[1], tv, 0.0, 1.0, alpha, False, "degenerate"
        )
    pooled = [Fraction(o + q, 2 * trials) for o, q in zip(*observed)]
    expected = [float(trials * f) for f in pooled]
    if min(expected) >= 5.0:
        x2 = 0.0
        for arm in observed:
            for o, e in zip(arm, expected):
                x2 += (o - e) ** 2 / e
        # chi-square survival function: the regularized upper incomplete gamma
        import mpmath

        p = float(mpmath.gammainc(df / 2, x2 / 2, mpmath.inf, regularized=True))
        method = "chi2"
        stat = x2
    else:
        terms = [_GTerms(e) for e in expected]
        stat = 0.0
        for arm in observed:
            for o, row in zip(arm, terms):
                if o:
                    stat += row[o]
        threshold = stat - 1e-12
        draws = chain.from_iterable(
            _Sampler(dict(zip(cells, pooled))).sequence(
                _stream(seed, "mc"), 2 * trials * mc_rounds
            )
        )
        k = len(cells)
        hits = 0
        for _ in range(mc_rounds):
            g = 0.0
            for _arm in "ab":
                arm = [0] * k
                for i in islice(draws, trials):
                    arm[i] += 1
                for o, row in zip(arm, terms):
                    if o:
                        g += row[o]
            if g >= threshold:
                hits += 1
        p = (hits + 1) / (mc_rounds + 1)
        method = "exact_mc"
    return SimulationResult(
        trials, seed, counts[0], counts[1], tv, stat, p, alpha, p < alpha, method
    )


# ----------------------------------------------------------------------
# closed causal loops


@dataclass(frozen=True)
class LoopCertificate:
    """A mirrored copy of the channel plus two subluminal relays.

    relations lists the four causal facts that close the loop; each is
    re-checked against the raw order at construction time.
    """

    protocol: SignallingProtocol
    transform: PoincareMap
    sender_point: Event
    relay_point: Event
    mirrored_sender: Event
    mirrored_relay: Event
    relations: tuple[tuple[str, bool], ...]

    @property
    def consistent(self) -> bool:
        return all(ok for _, ok in self.relations)


@dataclass(frozen=True)
class LoopObstruction:
    """Why no admissible isometry closes the loop.  The reason is one of
    two exact facts: the sender and relay points coincide, or the pair is
    spacelike in one spatial dimension and reflections are not allowed.

    A relay point causally after the sender is not a third case: the
    relay point is the protocol's gathering point, and build_protocol's
    witness check refuses a gathering point that the sender strictly
    precedes, so no violation reaches find_loop_transform with such a
    pair."""

    reason: str


def loop_paradox_certificate(
    order: Minkowski,
    box: CorrelationBox,
    violation: ViolationReport,
    *,
    allow_reflection: bool = False,
):
    """Close the protocol into a causal loop when an isometry permits.

    Returns a LoopCertificate whose four relations are machine-checked,
    or a LoopObstruction in exactly the cases where find_loop_transform
    has no map: the sender and relay points coincide, or the pair is
    spacelike in one spatial dimension and reflections are not allowed.
    find_loop_transform also has no map when the sender strictly
    precedes the relay point, but build_protocol raises
    PreconditionViolated on such a gathering point first, so that case
    never reaches it.  Raises GeometryError on any order other than
    Minkowski(d).
    """
    protocol = build_protocol(order, box, violation)
    p = box.inputs[protocol.sender].location
    q = protocol.gathering_point
    transform = find_loop_transform(order, p, q, allow_reflection)
    if transform is None:
        if p == q:
            reason = "sender and relay coincide; no isometry can separate them"
        else:
            reason = (
                "one spatial dimension: only a reflection can turn the "
                "channel around"
            )
        return LoopObstruction(reason)
    lp = transform.apply(p)
    lq = transform.apply(q)
    relations = (
        ("channel_outruns_light", not order.strictly_precedes(p, q)),
        ("relay_reaches_mirrored_sender", order.strictly_precedes(q, lp)),
        ("mirrored_channel_outruns_light", not order.strictly_precedes(lp, lq)),
        ("mirrored_relay_returns_before_sender", order.strictly_precedes(lq, p)),
    )
    return LoopCertificate(
        protocol=protocol,
        transform=transform,
        sender_point=p,
        relay_point=q,
        mirrored_sender=lp,
        mirrored_relay=lq,
        relations=relations,
    )
