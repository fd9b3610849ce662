"""simulate: finite-sample runs of extracted signalling protocols.

One op is one simulate(protocol, trials, seed) call.  The protocols are
built in set-up: the degenerate_loop protocol, protocols extracted from
seeded random violating 1+1 boxes whose gathered outputs have 2, 4, 8
and 16 outcome cells, and a null copy of each (dist_b = dist_a).  Every
protocol runs twice with 10 000 trials (the CLI default; Pearson's chi2
branch) and once with a small trial count whose expected cell counts
fall below 5 (the Monte-Carlo exact_mc branch, 2000 rounds).

simulate samples through integer thresholds when every cumulative
probability is dyadic and through Fraction comparisons otherwise, at
about twice the cost.  So the random protocols are always non-dyadic
(as the degenerate_loop one is always dyadic), and the small trial
counts are powers of two, which makes the pooled frequencies of the
exact_mc branch dyadic: each op's cost does not hinge on the seed.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

import mpmath

import causalbox as cb
from causalbox import (
    Alphabet,
    CorrelationBox,
    Event,
    Minkowski,
    Srv,
    build_protocol,
    check_instances,
    degenerate_embedding_check,
    enumerate_constraints,
)

from harness import Outcome

CHI2_TRIALS = 10_000
# Small trial count per gathered-output size: expected counts stay
# below 5 in some cell, so simulate takes the exact_mc branch.
SMALL_TRIALS = {1: 4, 2: 8, 3: 8, 4: 16}
OUTPUT_COUNTS = (1, 2, 3, 4)
METHODS = ("chi2", "exact_mc", "degenerate")


def _dyadic(dist) -> bool:
    return all(p.denominator & (p.denominator - 1) == 0 for p in dist.values())


def _violating_protocol(rng: random.Random, k: int):
    """Protocol from a random box with one input and k outputs, all
    gatherable away from the input, using a violation on all k outputs."""
    bits = Alphabet.binary()
    order = Minkowski(1)
    x0 = Fraction(rng.randrange(-4, 5), 2)
    inputs = (Srv("X", bits, Event.at(0, x0)),)
    outputs = tuple(Srv(f"A{j}", bits, Event.at(0, x0 + 1 + j)) for j in range(k))
    outcomes = list(itertools.product("01", repeat=k))
    while True:
        table = {}
        for x in "01":
            weights = [rng.randrange(1, 8) for _ in outcomes]
            table[(x,)] = {a: Fraction(w, sum(weights)) for a, w in zip(outcomes, weights)}
        if any(_dyadic(row) for row in table.values()):
            continue
        box = CorrelationBox(inputs, outputs, table)
        violations = check_instances(box, enumerate_constraints(order, box))
        full = [v for v in violations if len(v.instance.G) == k]
        if full:
            return build_protocol(order, box, full[0])


def _underflowed(r) -> bool:
    """A chi2 p-value of exactly 0.0 is the float rounding of a positive
    tail probability only when that tail lies below the double range;
    confirm it with mpmath's regularized upper incomplete gamma."""
    if r.p_value != 0.0 or r.method != "chi2":
        return False
    df = len(set(r.counts_a) | set(r.counts_b)) - 1
    tail = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(r.statistic) / 2, mpmath.inf, regularized=True)
    return tail < mpmath.mpf("1e-300")


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(f"simulate:{seed}")
        loop = degenerate_embedding_check().protocol
        self.protocols = [("loop", 1, loop)]
        for k in OUTPUT_COUNTS:
            self.protocols.append((f"random{k}", k, _violating_protocol(rng, k)))
        for name, k, proto in list(self.protocols):
            null = dataclasses.replace(proto, setting_b=proto.setting_a, dist_b=proto.dist_a)
            self.protocols.append((f"{name}_null", k, null))
        self.ops = []
        for name, k, proto in self.protocols:
            for trials in (CHI2_TRIALS, CHI2_TRIALS, SMALL_TRIALS[k]):
                self.ops.append((name, proto, trials, rng.randrange(2**64)))
        rng.shuffle(self.ops)

    def warmup_spec(self):
        return next(s for s in self.ops if s[2] == CHI2_TRIALS)

    def label(self, spec) -> str:
        return f"{spec[0]}/{spec[2]}"

    def prepare(self, spec):
        return spec[1:]

    def run(self, args) -> Outcome:
        proto, trials, seed = args
        result = cb.simulate(proto, trials, seed)
        summary = (
            result.method,
            tuple(sorted(result.counts_a.items())),
            tuple(sorted(result.counts_b.items())),
            result.p_value,
            result.reject,
        )
        detail = {"method": result.method, "trials": trials}
        return Outcome("ok", summary, detail, result)

    def check(self, spec, args, outcome: Outcome) -> list[str]:
        proto, trials, _ = args
        r = outcome.payload
        errors = []
        for arm, counts in (("a", r.counts_a), ("b", r.counts_b)):
            if sum(counts.values()) != trials:
                errors.append(f"arm {arm} counts sum to {sum(counts.values())}, not {trials}")
        if not (0 < r.p_value <= 1 or _underflowed(r)):
            errors.append(f"p-value {r.p_value} outside (0, 1]")
        if r.method not in METHODS:
            errors.append(f"unknown method {r.method!r}")
        if r.reject != (r.p_value < r.alpha):
            errors.append("reject flag disagrees with p < alpha")
        outcome.detail.update(
            null=spec[0].endswith("_null"),
            tv_error=float(abs(r.empirical_tv - proto.total_variation)),
            exact_tv=float(proto.total_variation),
            reject=r.reject,
        )
        return errors

    def finish(self, records) -> list[str]:
        """Loose aggregate statistics over the run, in the spirit of the
        acceptance test on simulation statistics: they hold for any fair
        mapping from seeds to draws."""
        done = [rec for rec in records if rec.status == "ok"]
        errors = []
        big = [rec.detail for rec in done if rec.detail["trials"] == CHI2_TRIALS]
        if big:
            mean_error = sum(d["tv_error"] for d in big) / len(big)
            if mean_error >= 0.05:
                errors.append(f"empirical total variation off by {mean_error:.3f} on average")
        strong = [d for d in big if not d["null"] and d["exact_tv"] >= 0.1]
        if strong and sum(d["reject"] for d in strong) < 0.9 * len(strong):
            errors.append("violating protocols with total variation >= 0.1 not rejected")
        nulls = [rec.detail for rec in done if rec.detail["null"]]
        if nulls and sum(d["reject"] for d in nulls) > 0.1 * len(nulls):
            errors.append("null protocols rejected more often than 10 %")
        return errors

    def shares(self, records) -> dict:
        methods = [rec.detail.get("method") for rec in records if rec.detail]
        return {
            "ops_per_pass": len(self.ops),
            "protocol_cells": {name: 2**k for name, k, _ in self.protocols},
            "null_share": sum(name.endswith("_null") for name, _, _ in self.protocols)
            / len(self.protocols),
            "exact_mc_share": methods.count("exact_mc") / max(len(methods), 1),
            "chi2_share": methods.count("chi2") / max(len(methods), 1),
        }
