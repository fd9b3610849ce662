"""Protocol extraction, finite-sample testing, and causal loops."""

import bisect
import dataclasses
import itertools
from fractions import Fraction

import pytest

from causalbox.boxes import Alphabet, CorrelationBox, Srv
from causalbox.geometry import (
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
)
from causalbox.ons import ViolationReport, check_ons, enumerate_constraints
from causalbox.scenario import preset
from causalbox import ons as ons_module
from causalbox import protocol as protocol_module
from causalbox.protocol import (
    _Sampler,
    _stream,
    LoopCertificate,
    LoopObstruction,
    PreconditionViolated,
    SignallingProtocol,
    build_protocol,
    exhaustive_protocol_search,
    hybrid_localize,
    loop_paradox_certificate,
    simulate,
)

M1 = Minkowski(1)
M2 = Minkowski(2)
BITS = Alphabet.binary()


def bell_box(signalling=False):
    box = preset("bell_standard").box
    if not signalling:
        return box
    table = {
        (x, y): {(y, x): Fraction(1)}
        for x, y in itertools.product("01", repeat=2)
    }
    return CorrelationBox(box.inputs, box.outputs, table, box.pairing)


def second_coordinate_box():
    """Two inputs, one output; only the second input matters."""
    ins = (Srv("X", BITS, Event.at(0, 5)), Srv("Y", BITS, Event.at(0, 9)))
    outs = (Srv("A", BITS, Event.at(0, 0)),)
    table = {}
    for x, y in itertools.product("01", repeat=2):
        if y == "0":
            table[(x, y)] = {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}
        else:
            table[(x, y)] = {("0",): Fraction(1)}
    return CorrelationBox(ins, outs, table)


class TestHybridLocalize:
    def test_walks_past_inert_coordinate(self):
        box = second_coordinate_box()
        reports = check_ons(M1, box)
        full_flip = next(
            r
            for r in reports
            if r.instance.F == (0, 1)
            and r.instance.x == ("0", "0")
            and r.instance.x_prime == ("1", "1")
        )
        k, before, after = hybrid_localize(box, full_flip)
        assert k == 2
        assert before == ("1", "0") and after == ("1", "1")

    def test_first_step_selected_when_it_already_differs(self):
        box = bell_box(signalling=True)
        rep = next(
            r for r in check_ons(M1, box) if r.instance.F == (1,)
        )
        k, before, after = hybrid_localize(box, rep)
        assert k == 1
        assert (before, after) == (rep.instance.x, rep.instance.x_prime)

    def test_agreeing_endpoints_rejected(self):
        box = bell_box()
        inst = enumerate_constraints(M1, box)[0]
        fake = ViolationReport(
            inst,
            ("0",),
            Fraction(1, 2),
            Fraction(1, 2),
        )
        with pytest.raises(PreconditionViolated):
            hybrid_localize(box, fake)


class TestBuildProtocol:
    def test_full_assembly(self):
        box = bell_box(signalling=True)
        rep = next(r for r in check_ons(M1, box) if r.instance.G == (0,))
        proto = build_protocol(M1, box, rep)
        assert proto.sender == 1
        assert proto.G == (0,)
        assert proto.sender_values == ("0", "1")
        # a copies y deterministically, so the arms are disjoint.
        assert proto.total_variation == 1
        assert proto.dist_a == {("0",): 1, ("1",): 0}
        assert proto.dist_b == {("0",): 0, ("1",): 1}
        p = box.inputs[proto.sender].location
        assert not M1.strictly_precedes(p, proto.gathering_point)
        q = box.outputs[0].location
        assert M1.causally_precedes(q, proto.gathering_point)

    def test_sender_is_localized_not_just_first_in_f(self):
        box = second_coordinate_box()
        rep = next(
            r
            for r in check_ons(M1, box)
            if r.instance.F == (0, 1) and r.instance.x == ("0", "0")
            and r.instance.x_prime == ("1", "1")
        )
        proto = build_protocol(M1, box, rep)
        assert proto.sender == 1
        assert proto.setting_a == ("1", "0")
        assert proto.total_variation == Fraction(1, 2)

    def test_mismatched_report_rejected(self):
        box = bell_box(signalling=True)
        rep = check_ons(M1, box)[0]
        forged = ViolationReport(
            rep.instance, rep.outcome, rep.p_x, rep.p_x + Fraction(1, 7)
        )
        with pytest.raises(PreconditionViolated):
            build_protocol(M1, box, forged)


    def test_report_on_a_foreign_outcome_rejected(self):
        box = bell_box(signalling=True)
        rep = check_ons(M1, box)[0]
        forged = dataclasses.replace(rep, outcome=("9",))
        assert not forged.recompute(box)
        with pytest.raises(PreconditionViolated):
            build_protocol(M1, box, forged)

    @pytest.mark.parametrize(
        "witness",
        [
            Event.at(100, 3),  # strictly after the sender at (0, 6)
            Event.at(0, -50),  # outside the receiver's future at (1, 0)
        ],
    )
    def test_forged_gathering_point_rejected(self, witness):
        box = bell_box(signalling=True)
        rep = next(r for r in check_ons(M1, box) if r.instance.G == (0,))
        assert build_protocol(M1, box, rep).sender == 1
        cert = dataclasses.replace(rep.instance.certificate, witness=witness)
        forged = dataclasses.replace(
            rep, instance=dataclasses.replace(rep.instance, certificate=cert)
        )
        assert forged.recompute(box)
        with pytest.raises(PreconditionViolated):
            build_protocol(M1, box, forged)


class TestExhaustiveSearch:
    def test_clean_box_has_no_protocol(self):
        box = bell_box()
        instances = enumerate_constraints(M1, box)
        assert exhaustive_protocol_search(M1, box, instances) is None

    def test_signalling_box_yields_protocol(self):
        box = bell_box(signalling=True)
        instances = enumerate_constraints(M1, box)
        proto = exhaustive_protocol_search(M1, box, instances)
        assert isinstance(proto, SignallingProtocol)
        assert proto.total_variation > 0

    def test_scan_stops_at_first_violation(self, monkeypatch):
        # check_instances and the search share one scan; the search must
        # find no difference beyond the first violated instance's.
        box = bell_box(signalling=True)
        instances = enumerate_constraints(M1, box)
        reports = check_ons(M1, box)
        assert len({(r.instance.G, r.instance.x, r.instance.x_prime) for r in reports}) >= 2
        calls = []
        first_difference = ons_module._first_difference

        def counting(*args):
            calls.append(args)
            return first_difference(*args)

        monkeypatch.setattr(ons_module, "_first_difference", counting)
        proto = exhaustive_protocol_search(M1, box, instances)
        assert len(calls) == 1
        assert proto == build_protocol(M1, box, reports[0])


def toy_protocol(tv_half=True):
    dist_a = {("0",): Fraction(1), ("1",): Fraction(0)}
    if tv_half:
        dist_b = {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}
    else:
        dist_b = dict(dist_a)
    return SignallingProtocol(
        sender=0,
        setting_a=("do(0)",),
        setting_b=("idle",),
        G=(0,),
        gathering_point=Event.at(0, 0),
        dist_a=dist_a,
        dist_b=dist_b,
    )


def reference_cell(dist, r):
    """Exact inverse-CDF cell of the 53-bit draw r, by Fraction comparison."""
    u = Fraction(r, 2**53)
    cum = Fraction(0)
    for i, p in enumerate(dist.values()):
        cum += p
        if u < cum:
            return i
    raise AssertionError("distribution sums to less than 1")


class ScriptedBits:
    """Stand-in for random.Random that returns the given 53-bit draws."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def getrandbits(self, k):
        assert k == 53
        return next(self.draws)


def cells_of(dist, draws):
    sampler = _Sampler(dist)
    return [sampler.tally(ScriptedBits([r]), 1).index(1) for r in draws]


NON_DYADIC = {
    "thirds": [Fraction(1, 3)] * 3,
    "sevenths": [Fraction(k, 7) for k in (1, 2, 0, 4)],
    "near_2^-53": [Fraction(1, 2**53 + 1), Fraction(2**53, 2**53 + 1)],
    "tiny_last": [Fraction(2**53, 2**53 + 1), Fraction(1, 2**53 + 1)],
    "mixed": [Fraction(1, 10), Fraction(1, 4), Fraction(0), Fraction(13, 20)],
}


class TestSampler:
    @pytest.mark.parametrize("name", sorted(NON_DYADIC))
    def test_cuts_match_fraction_inverse_cdf(self, name):
        dist = {(str(i),): p for i, p in enumerate(NON_DYADIC[name])}
        cuts = _Sampler(dist).cuts
        assert cuts[-1] == 2**53
        draws = sorted(
            {r for c in cuts for r in (c - 1, c) if 0 <= r < 2**53} | {0, 2**53 - 1}
        )
        assert cells_of(dist, draws) == [reference_cell(dist, r) for r in draws]

    def test_dyadic_cuts_are_exact(self):
        dist = {("0",): Fraction(1, 4), ("1",): Fraction(3, 4)}
        assert _Sampler(dist).cuts == [2**51, 2**53]

    @pytest.mark.parametrize(
        "probs",
        [
            *NON_DYADIC.values(),
            [Fraction(1, 1024), Fraction(3, 1024), Fraction(1020, 1024)],
            [Fraction(1, 3 * 2**20), Fraction(1, 3 * 2**20), Fraction(1, 2**19),
             Fraction(3 * 2**19 - 4, 3 * 2**19)],
        ],
        ids=[*NON_DYADIC, "bucket_aligned", "crowded_bucket"],
    )
    def test_guide_is_the_cell_of_every_bucket_it_names(self, probs):
        sampler = _Sampler({(str(i),): p for i, p in enumerate(probs)})
        cuts = sampler.cuts
        expected = []
        for lo in range(0, 2**53, 2**43):
            i = bisect.bisect_right(cuts, lo)
            expected.append(i if cuts[i] >= lo + 2**43 else -1)
        assert sampler.guide == expected

    def test_tally_counts_every_draw(self):
        dist = {(str(i),): p for i, p in enumerate(NON_DYADIC["sevenths"])}
        draws = [0, 2**53 - 1, 2**52, 5, 2**51 * 3]
        tally = _Sampler(dist).tally(ScriptedBits(draws), len(draws))
        expected = [0] * len(dist)
        for r in draws:
            expected[reference_cell(dist, r)] += 1
        assert tally == expected


def uniform_protocol(cells):
    dist = {(str(i),): Fraction(1, cells) for i in range(cells)}
    return SignallingProtocol(
        sender=0,
        setting_a=("0",),
        setting_b=("0",),
        G=(0,),
        gathering_point=Event.at(0, 0),
        dist_a=dist,
        dist_b=dict(dist),
    )


class TestStreams:
    def test_null_protocol_arms_draw_different_counts(self):
        proto = uniform_protocol(7)
        for seed in range(5):
            res = simulate(proto, 700, seed=seed)
            assert res.counts_a != res.counts_b

    @pytest.mark.parametrize(
        "trials, labels", [(700, ["a", "b"]), (4, ["a", "b", "mc"])]
    )
    def test_one_stream_per_arm_and_one_for_all_rounds(
        self, monkeypatch, trials, labels
    ):
        made = []

        def recording(seed, label):
            made.append((seed, label))
            return _stream(seed, label)

        monkeypatch.setattr(protocol_module, "_stream", recording)
        res = simulate(uniform_protocol(7), trials, seed=5, mc_rounds=50)
        assert res.method == ("chi2" if trials == 700 else "exact_mc")
        assert made == [(5, label) for label in labels]

    def test_streams_differ_by_label_and_seed(self):
        firsts = {
            _stream(seed, label).getrandbits(64)
            for seed in (0, 1, 2**64 - 1)
            for label in ("a", "b", "mc")
        }
        assert len(firsts) == 9


class TestSimulate:
    def test_deterministic_given_seed(self):
        proto = toy_protocol()
        r1 = simulate(proto, 400, seed=7)
        r2 = simulate(proto, 400, seed=7)
        assert r1 == r2
        r3 = simulate(proto, 400, seed=8)
        assert r3.counts_b != r1.counts_b

    def test_detects_strong_signal(self):
        res = simulate(toy_protocol(), 2000, seed=11)
        assert res.method == "chi2"
        assert res.reject
        assert abs(res.empirical_tv - Fraction(1, 2)) < Fraction(5, 100)

    def test_null_calibration(self):
        rejects = sum(
            simulate(toy_protocol(tv_half=False), 500, seed=s).reject
            for s in range(20)
        )
        assert rejects <= 2

    def test_small_sample_uses_monte_carlo(self):
        proto = SignallingProtocol(
            sender=0,
            setting_a=("0",),
            setting_b=("1",),
            G=(0,),
            gathering_point=Event.at(0, 0),
            dist_a={("0",): Fraction(1, 3), ("1",): Fraction(2, 3)},
            dist_b={("0",): Fraction(2, 3), ("1",): Fraction(1, 3)},
        )
        res = simulate(proto, 8, seed=3, mc_rounds=200)
        assert res.method == "exact_mc"
        assert 0 < res.p_value <= 1
        assert res == simulate(proto, 8, seed=3, mc_rounds=200)

    def test_single_cell_distribution_never_rejects(self):
        res = simulate(toy_protocol(tv_half=False), 50, seed=1)
        # Both arms are the same point mass.
        assert res.method == "degenerate"
        assert not res.reject

    def test_bad_trial_count(self):
        with pytest.raises(ValueError):
            simulate(toy_protocol(), 0, seed=1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("mc_rounds", -1),
            ("mc_rounds", 0),
            ("trials", True),
            ("trials", 8.0),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_bad_argument_is_rejected_before_any_draw(self, monkeypatch, name, value):
        # At 8 trials toy_protocol takes the exact_mc branch, where
        # mc_rounds=-1 used to divide by zero and mc_rounds=0 gave p = 1.
        made = []
        monkeypatch.setattr(protocol_module, "_stream", lambda *key: made.append(key))
        args = {"trials": 8, "seed": 1, name: value}
        with pytest.raises(ValueError, match=name):
            simulate(toy_protocol(), **args)
        assert made == []

    @pytest.mark.parametrize(
        "alpha", [Fraction(7), Fraction(0), 0, 1, Fraction(-1, 2), True, 0.05]
    )
    def test_bad_alpha_is_rejected_before_any_draw(self, monkeypatch, alpha):
        # alpha 7 used to reject every sample and alpha 0 none.
        made = []
        monkeypatch.setattr(protocol_module, "_stream", lambda *key: made.append(key))
        with pytest.raises(ValueError, match="alpha"):
            simulate(toy_protocol(), 8, seed=1, alpha=alpha)
        assert made == []

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            simulate(toy_protocol(), 10, seed=seed)

    def test_largest_seed_is_accepted(self):
        assert simulate(toy_protocol(), 10, seed=2**64 - 1).trials == 10

    @pytest.mark.parametrize(
        "dist",
        [
            {("0",): Fraction(1, 2), ("1",): Fraction(1, 3)},
            {("0",): Fraction(3, 2), ("1",): Fraction(-1, 2)},
            {("0",): Fraction(1), ("1",): Fraction(1, 7)},
            {},
        ],
    )
    @pytest.mark.parametrize("arm", ["dist_a", "dist_b"])
    def test_arm_that_is_not_a_distribution_is_rejected(self, arm, dist):
        proto = dataclasses.replace(toy_protocol(), **{arm: dist})
        with pytest.raises(ValueError, match=arm):
            simulate(proto, 10, seed=1)


def copy_channel_box(sender, receiver):
    """One input X at sender whose value the output A at receiver copies."""
    ins = (Srv("X", BITS, sender),)
    outs = (Srv("A", BITS, receiver),)
    table = {(x,): {(x,): Fraction(1)} for x in "01"}
    return CorrelationBox(ins, outs, table)


class TestLoop:
    def test_plane_violation_closes_into_loop(self):
        box = copy_channel_box(Event.at(0, 6, 0), Event.at(1, 0, 0))
        rep = check_ons(M2, box)[0]
        cert = loop_paradox_certificate(M2, box, rep)
        assert isinstance(cert, LoopCertificate)
        assert cert.consistent
        assert dict(cert.relations) == {
            "channel_outruns_light": True,
            "relay_reaches_mirrored_sender": True,
            "mirrored_channel_outruns_light": True,
            "mirrored_relay_returns_before_sender": True,
        }
        assert M2.strictly_precedes(cert.relay_point, cert.mirrored_sender)
        assert M2.strictly_precedes(cert.mirrored_relay, cert.sender_point)

    def test_line_needs_reflection(self):
        box = bell_box(signalling=True)
        rep = next(r for r in check_ons(M1, box) if r.instance.G == (0,))
        blocked = loop_paradox_certificate(M1, box, rep)
        assert isinstance(blocked, LoopObstruction)
        assert "one spatial dimension" in blocked.reason
        cert = loop_paradox_certificate(M1, box, rep, allow_reflection=True)
        assert isinstance(cert, LoopCertificate)
        assert cert.consistent

    def test_coinciding_points_are_an_obstruction(self):
        scen = preset("degenerate_loop")
        rep = check_ons(scen.order, scen.box)[0]
        for reflect in (False, True):
            blocked = loop_paradox_certificate(
                scen.order, scen.box, rep, allow_reflection=reflect
            )
            assert isinstance(blocked, LoopObstruction)
            assert "coincide" in blocked.reason

    @pytest.mark.parametrize(
        "order, sender, receiver",
        [
            (TerminatedDiagram([(-4, 3), (0, 1), (4, 3)]), Event.at(0, 2), Event.at(0, -2)),
            (FiniteOrder([], ["x", "a"]), Event.named("x"), Event.named("a")),
        ],
    )
    def test_non_minkowski_order_is_rejected(self, order, sender, receiver):
        box = copy_channel_box(sender, receiver)
        rep = check_ons(order, box)[0]
        with pytest.raises(GeometryError, match="Minkowski"):
            loop_paradox_certificate(order, box, rep, allow_reflection=True)

    def test_clean_box_rejected(self):
        box = bell_box()
        inst = enumerate_constraints(M1, box)[0]
        fake = ViolationReport(inst, ("0",), Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(PreconditionViolated):
            loop_paradox_certificate(M1, box, fake)
