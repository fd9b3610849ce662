"""certify: exact certification tasks off the relation hot path.

One op is one task:
- verify_config(build_config(n, h)) for n = 3..9, once with h inside the
  certified window (cos(2pi/n), cos(pi/n)] and once above it, plus one
  full_subset_sweep at n = 5, each h fixed per n;
- ns_monogamy_lp on 2-input XOR games, CHSH and two seeded others;
- signalling_monogamy against brute_force_signalling on seeded games;
- a small entropic_probe on the six_config layout.

n = 3, 4 and 6 have quadratic-surd cosines and take the exact route;
the other n climb the interval precision ladder.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import causalbox as cb
from causalbox import Verdict, XorGame, verify_lp_certificate
from causalbox import scenario as sc
from causalbox.monogamy import build_ns_lp

from harness import Outcome
from tracer import EXACT_COS_N

NS = tuple(range(3, 10))
SWEEP_N = 5
SIGNALLING_SIZES = (2, 3, 3, 4)
ENTROPIC_SAMPLES = 500
ENTROPIC_STEPS = 50


def _h_between(lo: float, hi: float) -> Fraction:
    """A rational near the middle of (lo, hi).  The oracle's cost moves
    with h by up to a factor 2 across the window, and not smoothly, so h
    is not drawn from the seed."""
    h = Fraction((lo + hi) / 2).limit_denominator(64)
    if not lo + 1e-6 < h < hi - 1e-6:
        raise ValueError(f"no rational found inside ({lo}, {hi})")
    return h


def _ns_value(game: XorGame) -> Fraction:
    """A 2-input XOR game is won outright by a local deterministic
    strategy exactly when f is affine (an even number of ones); any
    other f is CHSH up to relabelling, for which no-signalling caps
    w_AB + w_AC at 3/2."""
    ones = sum(map(sum, game.f))
    return Fraction(2) if ones % 2 == 0 else Fraction(3, 2)


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(f"certify:{seed}")
        scen = sc.preset("six_config")
        self.six_config = (scen.order, scen.inputs, scen.outputs)
        games2 = [XorGame(2, (bits[:2], bits[2:])) for bits in itertools.product((0, 1), repeat=4)]
        even = [g for g in games2 if _ns_value(g) == 2]
        odd = [g for g in games2 if _ns_value(g) == Fraction(3, 2) and g != XorGame.chsh()]
        specs = []
        for n in NS:
            lo, hi = max(0.0, math.cos(2 * math.pi / n)), math.cos(math.pi / n)
            specs.append(("jam_in", n, _h_between(lo, hi), False))
            specs.append(("jam_above", n, _h_between(hi, 1.0), False))
        lo, hi = math.cos(2 * math.pi / SWEEP_N), math.cos(math.pi / SWEEP_N)
        specs.append(("jam_sweep", SWEEP_N, _h_between(lo, hi), True))
        for game in (XorGame.chsh(), rng.choice(even), rng.choice(odd)):
            specs.append(("ns_lp", game))
        for m in SIGNALLING_SIZES:
            f = tuple(tuple(rng.randrange(2) for _ in range(m)) for _ in range(m))
            specs.append(("signalling", XorGame(m, f)))
        specs.append(("entropic", rng.randrange(2**32)))
        rng.shuffle(specs)
        self.ops = specs

    def warmup_spec(self):
        return next(s for s in self.ops if s[0] == "jam_in" and s[1] == 3)

    def label(self, spec) -> str:
        if spec[0].startswith("jam"):
            return f"{spec[0]}/n{spec[1]}"
        if spec[0] == "entropic":
            return "entropic"
        return f"{spec[0]}/m{spec[1].m}"

    def prepare(self, spec):
        return spec

    def run(self, spec) -> Outcome:
        kind = spec[0]
        if kind.startswith("jam"):
            _, n, h, sweep = spec
            bundle = cb.verify_config(cb.build_config(n, h), full_subset_sweep=sweep)
            verdicts = (
                bundle.closed_form.full,
                *bundle.closed_form.subtuples,
                bundle.oracle.full,
                *bundle.oracle.subtuples,
            )
            status = "undecided" if Verdict.UNKNOWN in verdicts else "ok"
            summary = (kind, n, h, bundle.ok, bundle.agreement, tuple(v.value for v in verdicts))
            return Outcome(status, summary, {"route": "exact" if n in EXACT_COS_N else "interval"}, bundle)
        if kind == "ns_lp":
            report = cb.ns_monogamy_lp(spec[1])
            return Outcome("ok", (kind, spec[1].f, report.value), {}, report)
        if kind == "signalling":
            closed = cb.signalling_monogamy(spec[1])
            brute = cb.brute_force_signalling(spec[1])
            return Outcome("ok", (kind, spec[1].f, closed.value, brute.value), {}, (closed, brute))
        order, inputs, outputs = self.six_config
        report = cb.entropic_probe(
            order, inputs, outputs, samples=ENTROPIC_SAMPLES, seed=spec[1], local_steps=ENTROPIC_STEPS
        )
        summary = (kind, report.vertex_value, report.max_sampled, report.accepted, report.ok)
        return Outcome("ok", summary, {}, report)

    def check(self, spec, args, outcome: Outcome) -> list[str]:
        kind = spec[0]
        if kind.startswith("jam"):
            bundle = outcome.payload
            if not bundle.agreement:
                return ["certification routes disagree"]
            if kind == "jam_above":
                if bundle.closed_form.full is not Verdict.SEPARATED or bundle.oracle.full is not Verdict.SEPARATED:
                    return ["h above the window but the full tuple is not SEPARATED"]
                return []
            if not bundle.ok:
                return [f"h inside the window but the bundle is not ok: {bundle.detail}"]
            if spec[3] and any(v is not Verdict.SEPARATED for _, v in bundle.sweep):
                return ["a proper subset in the sweep is not SEPARATED"]
            return []
        if kind == "ns_lp":
            game, report = spec[1], outcome.payload
            errors = []
            if report.value != _ns_value(game):
                errors.append(f"LP value {report.value}, expected {_ns_value(game)}")
            A, b, c, _ = build_ns_lp(game)
            if not verify_lp_certificate(A, b, c, report.lp, maximize=True):
                errors.append("LP certificate fails verification")
            return errors
        if kind == "signalling":
            closed, brute = outcome.payload
            if closed.value != brute.value:
                return [f"closed form {closed.value} != brute force {brute.value}"]
            return []
        report = outcome.payload
        if not (report.ok and report.vertex_value == 1 and report.max_sampled <= report.bound):
            return ["entropic probe exceeds its bound"]
        return []

    def finish(self, records) -> list[str]:
        return []

    def shares(self, records) -> dict:
        specs = self.ops
        jam = [s for s in specs if s[0].startswith("jam")]
        exact = sum(s[1] in EXACT_COS_N for s in jam)
        return {
            "ops_per_pass": len(specs),
            "task_share": {
                kind: sum(s[0] == kind for s in specs) / len(specs)
                for kind in ("jam_in", "jam_above", "jam_sweep", "ns_lp", "signalling", "entropic")
            },
            "jamming_exact_cosine_share": exact / len(jam),
            "jamming_interval_share": 1 - exact / len(jam),
        }
