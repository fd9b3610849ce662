"""The two-tally `simulate`, kept by the tests as a reference for the
single-loop Monte-Carlo test in `causalbox.protocol`.

`simulate` samples each arm with `_tally` on its own stream and, when
some pooled expected count is below 5, runs `mc_rounds` rounds on the
shared "mc" stream: each round tallies arm a and then arm b with two
`_tally` calls and recomputes every G-statistic term with
`_g_statistic`.  `_tally` bisects every draw over `_Sampler`'s cut
points and never reads its guide table, so the guide is checked here
against the rule it stands for.  A round hits when its statistic reaches the observed one
less 1e-12.  The chi-square branch is the library's, unchanged.
`round_statistics` returns the observed G and every round's G, so a test
can show that its case has ties.  Neither function checks its arguments.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

from causalbox.protocol import (
    SignallingProtocol,
    SimulationResult,
    _Sampler,
    _stream,
)


def _tally(sampler: _Sampler, rng: random.Random, trials: int) -> list[int]:
    counts = [0] * len(sampler.cuts)
    for _ in range(trials):
        counts[bisect_right(sampler.cuts, rng.getrandbits(53))] += 1
    return counts


def _g_statistic(arms: Sequence[Sequence[int]], expected: Sequence[float]) -> float:
    g = 0.0
    for arm in arms:
        for o, e in zip(arm, expected):
            if o:
                g += 2.0 * o * math.log(o / e)
    return g


def _arms(protocol: SignallingProtocol, trials: int, seed: int):
    """Each arm's counts by outcome, the observed cells in sorted order,
    both arms' counts over those cells, and the pooled frequencies and
    expected counts of the cells."""
    counts: list[dict[tuple[str, ...], int]] = []
    for label, dist in (("a", protocol.dist_a), ("b", protocol.dist_b)):
        sampler = _Sampler(dist)
        tally = _tally(sampler, _stream(seed, label), trials)
        counts.append({a: n for a, n in zip(sampler.outcomes, tally) if n})
    cells = sorted(set(counts[0]) | set(counts[1]))
    observed = [[arm.get(c, 0) for c in cells] for arm in counts]
    pooled = [Fraction(o + q, 2 * trials) for o, q in zip(*observed)]
    expected = [float(trials * f) for f in pooled]
    return counts, cells, observed, pooled, expected


def _mc_rounds(cells, observed, pooled, expected, trials, seed, mc_rounds):
    """The observed G and the G of every Monte-Carlo round."""
    stat = _g_statistic(observed, expected)
    pooled_sampler = _Sampler(dict(zip(cells, pooled)))
    rng = _stream(seed, "mc")
    rounds = []
    for _ in range(mc_rounds):
        sim = (
            _tally(pooled_sampler, rng, trials),
            _tally(pooled_sampler, rng, trials),
        )
        rounds.append(_g_statistic(sim, expected))
    return stat, rounds


def round_statistics(
    protocol: SignallingProtocol, trials: int, seed: int, mc_rounds: int
) -> tuple[float, list[float]]:
    """The observed G and each round's G, as the exact_mc branch sees them."""
    _, cells, observed, pooled, expected = _arms(protocol, trials, seed)
    return _mc_rounds(cells, observed, pooled, expected, trials, seed, mc_rounds)


def simulate(
    protocol: SignallingProtocol,
    trials: int,
    seed: int,
    *,
    alpha: Fraction = Fraction(1, 100),
    mc_rounds: int = 2000,
) -> SimulationResult:
    counts, cells, observed, pooled, expected = _arms(protocol, trials, seed)
    tv = Fraction(sum(abs(o - q) for o, q in zip(*observed)), 2 * trials)
    df = len(cells) - 1
    if df == 0:
        return SimulationResult(
            trials, seed, counts[0], counts[1], tv, 0.0, 1.0, alpha, False, "degenerate"
        )
    if min(expected) >= 5.0:
        x2 = 0.0
        for arm in observed:
            for o, e in zip(arm, expected):
                x2 += (o - e) ** 2 / e
        import mpmath

        p = float(mpmath.gammainc(df / 2, x2 / 2, mpmath.inf, regularized=True))
        method = "chi2"
        stat = x2
    else:
        stat, rounds = _mc_rounds(
            cells, observed, pooled, expected, trials, seed, mc_rounds
        )
        hits = 0
        for g in rounds:
            if g >= stat - 1e-12:
                hits += 1
        p = (hits + 1) / (mc_rounds + 1)
        method = "exact_mc"
    return SimulationResult(
        trials, seed, counts[0], counts[1], tv, stat, p, alpha, p < alpha, method
    )
