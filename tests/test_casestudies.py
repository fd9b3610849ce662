"""Mechanism tables, influence reports, embedding studies, compass trace."""

import itertools
from fractions import Fraction

import pytest

from causalbox.boxes import (
    IDLE,
    Alphabet,
    CorrelationBox,
    Srv,
    ValidationError,
    do_label,
    extend_with_intervention,
)
from causalbox.casestudies import (
    CausalMechanism,
    LoopLayout,
    affects_relations,
    build_model,
    compass_contradiction,
    compass_layout,
    degenerate_embedding_check,
    degenerate_layout,
    fig5_layout,
    safe_embedding_check,
)
from causalbox.geometry import Event, Minkowski
from causalbox.ons import LayoutMismatch, named_constraints
from causalbox.scenario import preset
from causalbox.separation import Verdict

M1 = Minkowski(1)
BITS = Alphabet.binary()

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

IDLE3 = (IDLE,) * 3
DO0 = do_label("0")
DO1 = do_label("1")


def observational_table():
    # b equals a xor c, uniform over the four consistent triples
    return {
        (a, b, c): QUARTER
        for a, b, c in itertools.product("01", repeat=3)
        if int(b) == int(a) ^ int(c)
    }


class TestCausalMechanism:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            CausalMechanism("teleport")

    def test_rejects_bad_patterns(self):
        mech = CausalMechanism("loop")
        with pytest.raises(ValueError):
            mech.row((0, 1))
        with pytest.raises(ValueError):
            mech.row((0, 2, None))

    def test_all_models_share_the_observational_row(self):
        want = observational_table()
        for name in ("otp", "jam", "loop"):
            assert CausalMechanism(name).row((None, None, None)) == want

    def test_loop_routes_through_the_middle_forcing(self):
        mech = CausalMechanism("loop")
        assert mech.effective((None, None, None)) == "otp"
        assert mech.effective((0, None, 1)) == "otp"
        assert mech.effective((None, 1, None)) == "jam"
        assert mech.effective((0, 1, 1)) == "jam"

    def test_forcing_both_outer_outputs_pins_the_middle(self):
        row = CausalMechanism("loop").row((0, None, 1))
        assert row == {("0", "1", "1"): Fraction(1)}

    def test_forcing_the_middle_output_locks_the_outer_parity(self):
        row = CausalMechanism("loop").row((None, 1, None))
        assert row == {("0", "1", "1"): HALF, ("1", "1", "0"): HALF}

    def test_single_outer_forcing_leaves_one_coin(self):
        row = CausalMechanism("loop").row((0, None, None))
        assert row == {("0", "0", "0"): HALF, ("0", "1", "1"): HALF}
        row = CausalMechanism("loop").row((None, None, 1))
        assert row == {("0", "1", "1"): HALF, ("1", "0", "1"): HALF}

    def test_forcing_everything_is_deterministic(self):
        for name in ("otp", "jam", "loop"):
            assert CausalMechanism(name).row((1, 0, 1)) == {("1", "0", "1"): Fraction(1)}

    def test_middle_plus_outer_forcing_keeps_the_far_coin(self):
        row = CausalMechanism("loop").row((0, 1, None))
        assert row == {("0", "1", "0"): HALF, ("0", "1", "1"): HALF}
        row = CausalMechanism("loop").row((None, 1, 0))
        assert row == {("0", "1", "0"): HALF, ("1", "1", "0"): HALF}

    def test_jam_and_pad_disagree_once_forced(self):
        pattern = (0, None, 1)
        assert CausalMechanism("jam").row(pattern) != CausalMechanism("otp").row(pattern)

    def test_every_row_is_a_distribution(self):
        patterns = itertools.product((None, 0, 1), repeat=3)
        for pattern in patterns:
            for name in ("otp", "jam", "loop"):
                row = CausalMechanism(name).row(pattern)
                assert sum(row.values()) == 1
                assert all(p > 0 for p in row.values())


class TestBuildModel:
    def test_input_names_and_order(self):
        ext = build_model("loop")
        assert tuple(s.name for s in ext.box.inputs) == ("I_A", "I_B", "I_C")
        assert tuple(s.name for s in ext.box.outputs) == ("A", "B", "C")
        assert len(list(ext.box.settings())) == 27

    def test_extension_laws_hold(self):
        assert build_model("jam").verify()

    def test_box_matches_direct_evaluation_everywhere(self):
        for name in ("otp", "jam", "loop"):
            mech = CausalMechanism(name)
            box = build_model(name).box
            assert box.row(IDLE3) == mech.row((None, None, None))
            assert box.row((DO1, IDLE, DO0)) == mech.row((1, None, 0))

    def test_loop_restricted_to_outer_forcings_is_the_pad(self):
        loop = build_model("loop").box
        otp = build_model("otp").box
        for xa, xc in itertools.product((DO0, DO1), repeat=2):
            assert loop.row((xa, IDLE, xc)) == otp.row((xa, IDLE, xc))

    def test_loop_restricted_to_middle_forcings_is_the_jammer(self):
        loop = build_model("loop").box
        jam = build_model("jam").box
        for xa, xb, xc in itertools.product((IDLE, DO0, DO1), repeat=3):
            if xb == IDLE:
                continue
            assert loop.row((xa, xb, xc)) == jam.row((xa, xb, xc))

    def test_layout_with_forcing_after_output_is_rejected(self):
        layout = LoopLayout(
            M1,
            p=(Event.at(1, 0), Event.at(0, 0), Event.at(0, 0)),
            q=(Event.at(0, 0), Event.at(0, 0), Event.at(0, 0)),
        )
        with pytest.raises(ValidationError):
            build_model("loop", layout)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_model("bell")


def product_box():
    # two independent fair bits with one forcing input each
    order = Minkowski(1)
    base = CorrelationBox(
        inputs=(),
        outputs=(Srv("A", BITS, Event.at(1, 0)), Srv("B", BITS, Event.at(1, 4))),
        table={(): {(a, b): QUARTER for a, b in itertools.product("01", repeat=2)}},
    )
    box = base
    for j, point in ((0, Event.at(0, 0)), (1, Event.at(0, 4))):
        post = {}
        for x in box.settings():
            for forced in "01":
                post[(forced, x)] = {("0",): HALF, ("1",): HALF}
        box = extend_with_intervention(order, box, j, point, post).box
    return box


def _affected(report):
    """The (sources, targets) pairs that report says affect, in its order."""
    return tuple((r.sources, r.targets) for r in report.relations if r.affects)


class TestAffectsRelations:
    def test_loop_report_shape(self):
        report = affects_relations(build_model("loop").box)
        assert len(report.relations) == 12

    def test_loop_affects_exactly_four_sets(self):
        report = affects_relations(build_model("loop").box)
        assert set(_affected(report)) == {
            (("A",), ("B", "C")),
            (("C",), ("A", "B")),
            (("B",), ("A", "C")),
            (("A", "C"), ("B",)),
        }

    def test_outer_pair_moves_middle_but_neither_alone_does(self):
        report = affects_relations(build_model("loop").box)
        assert report.lookup(("A", "C"), ("B",)).affects
        assert not report.lookup(("A",), ("B",)).affects
        assert not report.lookup(("C",), ("B",)).affects

    def test_middle_moves_the_pair_but_neither_component(self):
        report = affects_relations(build_model("loop").box)
        assert report.lookup(("B",), ("A", "C")).affects
        assert not report.lookup(("B",), ("A",)).affects
        assert not report.lookup(("B",), ("C",)).affects

    def test_witness_is_the_first_moved_setting(self):
        report = affects_relations(build_model("loop").box)
        assert report.lookup(("A", "C"), ("B",)).witness == (DO0, IDLE, DO0)
        assert report.lookup(("A",), ("B",)).witness is None

    def test_pad_drops_the_middle_to_pair_influence(self):
        report = affects_relations(build_model("otp").box)
        assert set(_affected(report)) == {
            (("A",), ("B", "C")),
            (("C",), ("A", "B")),
            (("A", "C"), ("B",)),
        }

    def test_jammer_keeps_only_the_middle_to_pair_influence(self):
        report = affects_relations(build_model("jam").box)
        assert _affected(report) == ((("B",), ("A", "C")),)

    def test_product_box_moves_nothing(self):
        report = affects_relations(product_box())
        assert len(report.relations) == 2
        assert _affected(report) == ()

    def test_rejects_plain_inputs(self):
        with pytest.raises(ValueError):
            affects_relations(preset("bell_standard").box)

    def test_lookup_miss_raises(self):
        report = affects_relations(product_box())
        with pytest.raises(KeyError):
            report.lookup(("A",), ("A",))


class TestDegenerateEmbedding:
    def test_featured_violation_values(self):
        report = degenerate_embedding_check()
        inst = report.featured.instance
        assert inst.F == (0, 2) and inst.G == (1,)
        assert inst.x == IDLE3
        assert inst.x_prime == (DO0, IDLE, DO0)
        assert report.featured.outcome == ("0",)
        assert report.featured.p_x == HALF
        assert report.featured.p_x_prime == Fraction(1)

    def test_violations_are_plentiful_and_recomputable(self):
        report = degenerate_embedding_check()
        assert len(report.violations) >= 1
        box = report.model.box
        assert all(v.recompute(box) for v in report.violations)

    def test_gathering_fact_is_certified_at_the_shared_point(self):
        layout = degenerate_layout()
        report = degenerate_embedding_check()
        assert report.separation.verdict is Verdict.SEPARATED
        assert report.separation.witness == layout.p[1]

    def test_protocol_signals_half_a_bit(self):
        report = degenerate_embedding_check()
        assert report.total_variation == HALF
        assert report.protocol.sender == 2
        assert report.protocol.G == (1,)
        assert report.protocol.gathering_point == degenerate_layout().q[1]
        assert report.protocol.setting_a == (DO0, IDLE, IDLE)
        assert report.protocol.setting_b == (DO0, IDLE, DO0)

    def test_split_layout_without_the_leak_is_rejected(self):
        with pytest.raises(LayoutMismatch):
            degenerate_embedding_check(fig5_layout())


class TestSafeEmbedding:
    def test_default_layout_passes(self):
        report = safe_embedding_check()
        assert report.ok
        assert report.violations == ()
        assert len(report.instances) > 0

    def test_same_table_as_the_degenerate_run(self):
        safe = safe_embedding_check()
        leaky = degenerate_embedding_check()
        assert safe.model.box.table == leaky.model.box.table

    def test_used_influences_are_unconstrained(self):
        report = safe_embedding_check()
        assert report.joint_on_middle
        assert report.middle_on_pair
        pairs = {(inst.F, inst.G) for inst in report.instances}
        assert ((1,), (0, 2)) not in pairs
        assert ((0, 2), (1,)) not in pairs

    def test_forcing_points_must_precede_their_outputs(self):
        layout = fig5_layout()
        bad = LoopLayout(M1, layout.p, (layout.q[0], Event.at(1, 6), layout.q[2]))
        with pytest.raises(LayoutMismatch):
            safe_embedding_check(bad)

    def test_middle_output_must_sit_above_both_outer_forcings(self):
        layout = fig5_layout()
        bad = LoopLayout(M1, layout.p, (layout.q[0], Event.at(1, 0), layout.q[2]))
        with pytest.raises(LayoutMismatch):
            safe_embedding_check(bad)

    def test_outer_outputs_must_stay_unseparated_from_the_middle_forcing(self):
        layout = fig5_layout()
        bad = LoopLayout(
            M1,
            (layout.p[0], Event.at(4, 0), layout.p[2]),
            (layout.q[0], Event.at(5, 0), layout.q[2]),
        )
        with pytest.raises(LayoutMismatch):
            safe_embedding_check(bad)


GRID = (Fraction(0), Fraction(1, 4), HALF, Fraction(3, 4), Fraction(1))


class TestCompassContradiction:
    def test_reference_weights_reach_the_terminal_pair(self):
        trace = compass_contradiction(HALF, HALF)
        assert trace.contradiction
        assert trace.terminal == ("mu = 0", "mu = 1")
        assert trace.ablated is None

    def test_terminal_pair_on_the_full_grid(self):
        for lam, mu in itertools.product(GRID, repeat=2):
            trace = compass_contradiction(lam, mu)
            assert trace.terminal == ("mu = 0", "mu = 1")

    def test_trace_cites_its_sources_in_order(self):
        trace = compass_contradiction("1/4", "3/4")
        sources = [s.source for s in trace.steps]
        assert sources == [
            "mechanism:X",
            "family:c_setting_free",
            "substitution",
            "mechanism:Y",
            "substitution",
            "family:a_setting_free",
            "normalization",
            "instantiation",
            "instantiation",
            "contradiction",
        ]
        assert "3/4" in trace.steps[0].statement or "1/4" in trace.steps[0].statement

    def test_boundary_weights_keep_one_demand_satisfied(self):
        trace = compass_contradiction(1, 0)
        pinned = [s.statement for s in trace.steps if s.source == "instantiation"]
        assert "holds at the supplied mu" in pinned[0]
        assert "fails at the supplied mu" in pinned[1]
        assert trace.contradiction

    def test_withholding_the_c_line_leaves_the_trace_open(self):
        trace = compass_contradiction(HALF, HALF, ablate="c_setting_free")
        assert not trace.contradiction
        assert trace.terminal is None
        assert trace.steps[-1].source == "ablation"

    def test_withholding_the_a_line_falls_back_to_normalization(self):
        trace = compass_contradiction(HALF, HALF, ablate="a_setting_free")
        assert trace.contradiction
        sources = [s.source for s in trace.steps]
        assert "family:a_setting_free" not in sources
        assert any("on its own" in s.statement for s in trace.steps)

    def test_withholding_an_uncited_line_changes_nothing(self):
        for label in ("ab_setting_free", "bc_setting_free", "b_setting_free"):
            trace = compass_contradiction(HALF, HALF, ablate=label)
            assert trace.contradiction
            assert any(s.source == "ablation" for s in trace.steps)

    def test_rejects_weights_outside_the_unit_interval(self):
        with pytest.raises(ValueError):
            compass_contradiction(2, HALF)
        with pytest.raises(ValueError):
            compass_contradiction(HALF, "-1/3")

    def test_rejects_unknown_ablation_label(self):
        with pytest.raises(ValueError):
            compass_contradiction(HALF, HALF, ablate="d_setting_free")

    def test_layout_feeds_the_named_family(self):
        order, inputs, outputs = compass_layout()
        family = named_constraints("compass", order, inputs, outputs)
        assert len(family.lines) == 5
