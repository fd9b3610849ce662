"""Acceptance suite: the headline results, each with its stated tolerance
and, where one is stated, its time budget.  The numbers skip ac07, whose
subject, the mpmath boundary functions, is gone."""

import dataclasses
import itertools
import random
import time
from fractions import Fraction

from causalbox import scenario as sc
from causalbox.boxes import Alphabet, CorrelationBox, Srv
from causalbox.casestudies import (
    build_model,
    compass_contradiction,
    degenerate_embedding_check,
    degenerate_layout,
    fig5_layout,
    safe_embedding_check,
)
from causalbox.geometry import Event, FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.jamming import build_config, verify_config
from causalbox.monogamy import (
    XorGame,
    brute_force_signalling,
    build_ns_lp,
    classify,
    entropic_probe,
    evaluate_behavior,
    ns_monogamy_lp,
    signalling_monogamy,
    specific_input_value,
)
from causalbox.ons import check_instances, enumerate_constraints
from causalbox.protocol import (
    build_protocol,
    exhaustive_protocol_search,
    simulate,
)
from causalbox.separation import Verdict, separated
from causalbox.simplex import verify_lp_certificate

BITS = Alphabet.binary()
M1 = Minkowski(1)


class Budget:
    """Context manager asserting the stated wall-clock limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, f"took {elapsed:.1f}s, limit {self.limit}s"
        return False


def test_ac01_chsh_signalling_value_and_counts():
    with Budget(1):
        report = signalling_monogamy(XorGame.chsh())
        assert report.value == Fraction(5, 2)
        counts = classify(XorGame.chsh())
        assert (counts.s_ccc, counts.s_aaa, counts.s_aac, counts.s_acc) == (4, 1, 0, 3)


def test_ac02_input_copy_signalling_value_and_counts():
    with Budget(1):
        game = XorGame.input_copy()
        assert signalling_monogamy(game).value == Fraction(5, 2)
        counts = classify(game)
        assert (counts.s_ccc, counts.s_aaa, counts.s_aac, counts.s_acc) == (2, 2, 2, 2)


def test_ac03_specific_input_value_and_witness():
    with Budget(1):
        game = XorGame.chsh()
        report = specific_input_value(game, (0, 0, 0))
        assert report.value == Fraction(3)
        # the optimal deterministic behavior scores the same value when
        # evaluated directly
        assert evaluate_behavior(game, report.witness, fixed_inputs=(0, 0, 0)) == Fraction(3)


def test_ac04_chsh_no_signalling_lp_with_dual_certificate():
    with Budget(10):
        game = XorGame.chsh()
        report = ns_monogamy_lp(game)
        assert report.value == Fraction(3, 2)
        A, b, c, _ = build_ns_lp(game)
        lp = report.lp
        assert lp is not None
        assert verify_lp_certificate(A, b, c, lp, maximize=True)
        assert all(isinstance(v, Fraction) for v in lp.y)
        # zero duality gap, exactly
        dual_value = sum(bi * yi for bi, yi in zip(b, lp.y))
        assert dual_value == Fraction(3, 2) == lp.value


def test_ac05_closed_form_matches_brute_force():
    with Budget(30):
        for bits in itertools.product((0, 1), repeat=4):
            f = (bits[0:2], bits[2:4])
            game = XorGame(2, f)
            assert signalling_monogamy(game).value == brute_force_signalling(game).value
        rng = random.Random(7)
        for _ in range(200):
            f = tuple(
                tuple(rng.randrange(2) for _ in range(3)) for _ in range(3)
            )
            game = XorGame(3, f)
            assert signalling_monogamy(game).value == brute_force_signalling(game).value


def test_ac06_jamming_verdict_bundles():
    with Budget(60):
        for n, h in ((3, "1/2"), (4, "7/10"), (5, "4/5"), (6, "3/4")):
            bundle = verify_config(build_config(n, h))
            assert bundle.agreement, (n, h, bundle.detail)
            assert bundle.closed_form.full is Verdict.NOT_SEPARATED
            assert bundle.oracle.full is Verdict.NOT_SEPARATED
            assert len(bundle.closed_form.subtuples) == n
            assert all(v is Verdict.SEPARATED for v in bundle.closed_form.subtuples)
            assert all(v is Verdict.SEPARATED for v in bundle.oracle.subtuples)
            assert bundle.ok
        escaped = verify_config(build_config(3, "3/4"))
        assert escaped.agreement
        assert escaped.closed_form.full is Verdict.SEPARATED
        assert escaped.oracle.full is Verdict.SEPARATED


def test_ac08_loop_embeddings():
    with Budget(5):
        degenerate = degenerate_embedding_check()
        featured = degenerate.featured
        assert featured.p_x == Fraction(1, 2)
        assert featured.p_x_prime == Fraction(1)
        assert degenerate.protocol.total_variation == Fraction(1, 2)
        safe = safe_embedding_check()
        assert safe.ok
        assert not safe.violations
        # both embeddings carry the same correlation table; only the
        # geometry differs
        deg_box = build_model("loop", degenerate_layout()).box
        fig_box = build_model("loop", fig5_layout()).box
        assert deg_box.table == fig_box.table


def test_ac09_compass_grid_and_ablation():
    with Budget(5):
        grid = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
        for lam in grid:
            for mu in grid:
                trace = compass_contradiction(lam, mu)
                assert trace.contradiction
                assert trace.terminal == ("mu = 0", "mu = 1")
        opened = compass_contradiction(
            Fraction(1, 3), Fraction(2, 5), ablate="c_setting_free"
        )
        assert not opened.contradiction


def _random_row(rng, outcomes):
    weights = [rng.randrange(8) for _ in outcomes]
    if not any(weights):
        weights[rng.randrange(len(weights))] = 1
    total = sum(weights)
    return {a: Fraction(w, total) for a, w in zip(outcomes, weights) if w}


def _random_table(rng, inputs, outputs):
    outcomes = list(itertools.product(*(s.alphabet.labels for s in outputs)))
    return {
        x: _random_row(rng, outcomes)
        for x in itertools.product(*(s.alphabet.labels for s in inputs))
    }


def _product_table(rng, inputs, outputs):
    # one setting-independent product row: satisfies every constraint
    factors = []
    for s in outputs:
        weights = [rng.randrange(1, 8) for _ in s.alphabet.labels]
        total = sum(weights)
        factors.append(
            {a: Fraction(w, total) for a, w in zip(s.alphabet.labels, weights)}
        )
    row = {}
    for a in itertools.product(*(s.alphabet.labels for s in outputs)):
        p = Fraction(1)
        for value, factor in zip(a, factors):
            p *= factor[value]
        row[a] = p
    return {
        x: dict(row) for x in itertools.product(*(s.alphabet.labels for s in inputs))
    }


def _ac10_layouts():
    triangle = (
        (Srv("X", BITS, Event.at(0, 0)),),
        (Srv("A1", BITS, Event.at(0, -2)), Srv("A2", BITS, Event.at(0, 2))),
        {},
    )
    xs = (-8, -1, 1, 8)
    four_party = (
        tuple(Srv(f"X{j}", BITS, Event.at(0, x)) for j, x in enumerate(xs)),
        tuple(Srv(f"A{j}", BITS, Event.at(1, x)) for j, x in enumerate(xs)),
        {j: j for j in range(4)},
    )
    bell = (
        (Srv("X", BITS, Event.at(0, 0)), Srv("Y", BITS, Event.at(0, 6))),
        (Srv("A", BITS, Event.at(1, 0)), Srv("B", BITS, Event.at(1, 6))),
        {0: 0, 1: 1},
    )
    return {"triangle": triangle, "four_party": four_party, "bell": bell}


def test_ac10_violation_protocol_correspondence():
    with Budget(120):
        rng = random.Random(10)
        for name, (inputs, outputs, pairing) in _ac10_layouts().items():
            clean_seen = violating_seen = 0
            for k in range(100):
                make = _random_table if k % 2 else _product_table
                box = CorrelationBox(
                    inputs=inputs,
                    outputs=outputs,
                    table=make(rng, inputs, outputs),
                    pairing=pairing,
                )
                instances = enumerate_constraints(M1, box)
                violations = check_instances(box, instances)
                if violations:
                    violating_seen += 1
                    # every violation converts into a working protocol
                    for violation in violations:
                        protocol = build_protocol(M1, box, violation)
                        assert protocol.total_variation > 0
                    assert exhaustive_protocol_search(M1, box, instances) is not None
                else:
                    clean_seen += 1
                    assert exhaustive_protocol_search(M1, box, instances) is None
            assert clean_seen >= 10, name
            assert violating_seen >= 10, name


def test_ac11_simulation_statistics():
    with Budget(5):
        protocol = degenerate_embedding_check().protocol
        errors = []
        rejections = 0
        for seed in range(100):
            result = simulate(protocol, 10_000, seed)
            errors.append(abs(result.empirical_tv - Fraction(1, 2)))
            rejections += result.reject
        assert sum(errors) / len(errors) < Fraction(2, 100)
        assert rejections >= 99
        null = dataclasses.replace(
            protocol, setting_b=protocol.setting_a, dist_b=protocol.dist_a
        )
        null_rejections = sum(
            simulate(null, 10_000, seed).reject for seed in range(100)
        )
        assert null_rejections <= 3


def test_ac12_terminated_diagram_gathering():
    with Budget(5):
        order = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        q1, q2, q3 = Event.at(0, 4), Event.at(0, 8), Event.at(0, -2)
        assert separated(order, (q1, q2), ()).verdict is Verdict.SEPARATED
        gatherless = ((q1, q3), (q2, q3), (q1, q2, q3))
        for tup in gatherless:
            assert separated(order, tup, ()).verdict is Verdict.NOT_SEPARATED
        probes = [
            Event.at(Fraction(i - 9, 2), 2 * j - 9)
            for i in range(10)
            for j in range(10)
        ]
        for tup in gatherless:
            for p in probes:
                result = separated(order, tup, (p,))
                assert result.verdict is Verdict.NOT_SEPARATED


def test_ac13_entropic_probe_bound():
    with Budget(60):
        scen = sc.preset("six_config")
        report = entropic_probe(
            scen.order, scen.inputs, scen.outputs, samples=10_000, seed=0
        )
        assert report.vertex_value == Fraction(1)
        assert report.accepted > 1_000
        assert report.max_sampled <= 1 + 1e-9
        assert report.ok


def _axiom_config(rng, which):
    if which == 0:
        order = M1

        def draw():
            return Event.at(
                Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4))),
                Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4))),
            )

    elif which == 1:
        order = _axiom_config.terminated

        def draw():
            while True:
                e = Event.at(
                    Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4))),
                    Fraction(rng.randrange(-8, 9), rng.choice((1, 2, 4))),
                )
                try:
                    order.validate_event(e)
                except Exception:
                    continue
                return e

    else:
        n = rng.randrange(3, 8)
        elements = list("abcdefgh"[:n])
        relations = [
            (elements[i], elements[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.3
        ]
        order = FiniteOrder(relations, elements)

        def draw():
            return Event.named(rng.choice(elements))

    return order, draw


_axiom_config.terminated = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])


def test_ac14_relation_axioms():
    with Budget(60):
        rng = random.Random(14)
        decided = (Verdict.SEPARATED, Verdict.NOT_SEPARATED)
        for k in range(100_000):
            order, draw = _axiom_config(rng, k % 3)
            e1, e2, e3 = draw(), draw(), draw()
            for e in (e1, e2, e3):
                assert not order.strictly_precedes(e, e)
            for u, v, w in itertools.permutations((e1, e2, e3)):
                if order.strictly_precedes(u, v) and order.strictly_precedes(v, w):
                    assert order.strictly_precedes(u, w)
            law = k % 4
            if law == 0:
                # single gathered event: separated exactly when no
                # avoided event strictly precedes it
                q = draw()
                ps = tuple(draw() for _ in range(rng.randrange(1, 4)))
                result = separated(order, (q,), ps)
                expected = all(not order.strictly_precedes(p, q) for p in ps)
                assert result.verdict in decided
                assert (result.verdict is Verdict.SEPARATED) == expected
            elif law == 1:
                # a strict precedence into the gathered family forces
                # NotSeparated; so does any NotSeparated member alone
                qs = (e1, e2)
                ps = (e3,) + ((draw(),) if rng.random() < 0.5 else ())
                full = separated(order, qs, ps)
                assert full.verdict in decided
                if any(
                    order.strictly_precedes(p, q) for p in ps for q in qs
                ):
                    assert full.verdict is Verdict.NOT_SEPARATED
                if any(
                    separated(order, (q,), ps).verdict is Verdict.NOT_SEPARATED
                    for q in qs
                ):
                    assert full.verdict is Verdict.NOT_SEPARATED
            elif law == 2:
                # shrinking the gathered family preserves Separated
                qs = (e1, e2, e3)
                ps = (draw(),)
                if separated(order, qs, ps).verdict is Verdict.SEPARATED:
                    sub = tuple(q for q in qs if rng.random() < 0.5) or (e1,)
                    assert separated(order, sub, ps).verdict is Verdict.SEPARATED
            else:
                # growing the avoided family preserves NotSeparated
                qs = (e1, e2)
                ps = (e3,)
                if separated(order, qs, ps).verdict is Verdict.NOT_SEPARATED:
                    assert (
                        separated(order, qs, ps + (draw(),)).verdict
                        is Verdict.NOT_SEPARATED
                    )
