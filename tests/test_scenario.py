"""JSON scenario format: round trips, presets, canonical emission."""

import json
from fractions import Fraction

import pytest

from causalbox import scenario as sc
from causalbox.boxes import Alphabet, CorrelationBox, Srv, validate_box
from causalbox.casestudies import degenerate_embedding_check, safe_embedding_check
from causalbox.geometry import Event, FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.jamming import build_config, verify_config
from causalbox.monogamy import XorGame, ns_monogamy_lp, signalling_monogamy
from causalbox.ons import check_instances, enumerate_constraints, named_constraints

BOX_PRESETS = ("bell_standard", "jamming_triangle", "fig5", "degenerate_loop")


class TestPrimitives:
    def test_rat_str_normalizes(self):
        assert sc.rat_str("0.25") == "1/4"
        assert sc.rat_str(Fraction(3)) == "3"

    def test_join_split_inverse(self):
        for labels in ((), ("0",), ("do(1)", "idle", "0")):
            assert sc._split(sc._join(labels)) == labels

    def test_join_rejects_comma_in_label(self):
        with pytest.raises(sc.ScenarioError):
            sc._join(("a,b",))

    def test_point_event_round_trip(self):
        e = Event.at("1/2", -3, "2/7")
        back = sc.event_from_json(sc.event_to_json(e), Minkowski(2))
        assert back == e

    def test_named_event_round_trip(self):
        order = FiniteOrder([("a", "b")], ["a", "b"])
        e = Event.named("a")
        assert sc.event_from_json(sc.event_to_json(e), order) == e

    def test_event_from_json_rejects_scalar_for_point(self):
        with pytest.raises(sc.ScenarioError):
            sc.event_from_json("not-a-list", Minkowski(1))


class TestOrderRoundTrip:
    def test_minkowski(self):
        obj = sc.order_to_json(Minkowski(3))
        assert obj == {"kind": "minkowski", "dim": 3}
        assert sc.order_from_json(obj).dim == 3

    def test_terminated_diagram(self):
        order = TerminatedDiagram([(-4, 3), (0, 1), (4, 3)])
        back = sc.order_from_json(sc.order_to_json(order))
        assert isinstance(back, TerminatedDiagram)
        assert back.vertices == order.vertices

    def test_finite_order_preserves_relation(self):
        order = FiniteOrder([("a", "b"), ("b", "c")], ["a", "b", "c", "z"])
        back = sc.order_from_json(sc.order_to_json(order))
        assert back.elements == order.elements
        for p in order.elements:
            for q in order.elements:
                assert back.strictly_precedes(
                    Event.named(p), Event.named(q)
                ) == order.strictly_precedes(Event.named(p), Event.named(q))

    def test_unknown_kind_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.order_from_json({"kind": "lattice"})
        with pytest.raises(sc.ScenarioError):
            sc.order_from_json({})


class TestAlphabetRoundTrip:
    def test_plain(self):
        a = Alphabet.of("x", "y", "z")
        assert sc.alphabet_from_json(sc.alphabet_to_json(a)) == a

    def test_intervention(self):
        a = Alphabet.interventions(Alphabet.binary())
        obj = sc.alphabet_to_json(a)
        assert obj == {"intervention_of": ["0", "1"]}
        assert sc.alphabet_from_json(obj) == a


class TestBoxRoundTrip:
    @pytest.mark.parametrize("name", BOX_PRESETS)
    def test_preset_box_survives_round_trip(self, name):
        scen = sc.preset(name)
        text = sc.dumps(sc.box_to_json(scen.order, scen.box))
        again = sc.load_scenario(text, name=name)
        assert type(again.order) is type(scen.order)
        assert again.box.table == scen.box.table
        assert again.box.pairing == scen.box.pairing
        assert [s.name for s in again.box.inputs] == [s.name for s in scen.box.inputs]
        assert [s.alphabet for s in again.box.inputs] == [
            s.alphabet for s in scen.box.inputs
        ]
        # canonical emission is a fixed point
        assert sc.dumps(sc.box_to_json(again.order, again.box)) == text

    @pytest.mark.parametrize("name", BOX_PRESETS)
    def test_preset_box_validates(self, name):
        scen = sc.preset(name)
        assert validate_box(scen.box, scen.order).ok

    def test_round_trip_preserves_check_outcome(self):
        scen = sc.preset("degenerate_loop")
        again = sc.load_scenario(sc.dumps(sc.box_to_json(scen.order, scen.box)))
        instances = enumerate_constraints(again.order, again.box)
        assert check_instances(again.box, instances)

    def test_bad_document_wrapped(self):
        with pytest.raises(sc.ScenarioError):
            sc.box_from_json({"backend": {"kind": "minkowski", "dim": 1}, "table": 7})

    def test_missing_backend_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.box_from_json({})


class TestPresets:
    def test_all_names_expand(self):
        for name in sc.PRESETS:
            assert sc.preset(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.preset("bell")

    def test_box_scenario_srvs_are_its_box(self):
        for name in sc.PRESETS:
            scen = sc.preset(name)
            if scen.box is not None:
                assert scen.box.inputs and scen.box.outputs
                assert scen.inputs == scen.box.inputs
                assert scen.outputs == scen.box.outputs

    def test_family_presets_feed_named_constraints(self):
        for name, n_lines in (("six_config", 6), ("compass", 5)):
            scen = sc.preset(name)
            fam = named_constraints(scen.family, scen.order, scen.inputs, scen.outputs)
            assert len(fam.lines) == n_lines

    def test_jamming_triangle_is_clean(self):
        scen = sc.preset("jamming_triangle")
        instances = enumerate_constraints(scen.order, scen.box)
        assert instances
        assert check_instances(scen.box, instances) == []


class TestReportSerializers:
    def test_degenerate_report_fields(self):
        report = degenerate_embedding_check()
        obj = sc.degenerate_report_to_json(report)
        assert obj["featured"]["p1"] == "1/2"
        assert obj["featured"]["p2"] == "1"
        assert obj["total_variation"] == "1/2"
        assert obj["protocol"]["sender"] == 2
        json.loads(sc.dumps(obj))

    def test_safe_report_fields(self):
        obj = sc.safe_report_to_json(safe_embedding_check())
        assert obj["ok"] is True
        assert obj["violations"] == []
        json.loads(sc.dumps(obj))

    def test_game_round_trip(self):
        game = XorGame.chsh()
        assert sc.game_from_json(sc.game_to_json(game)) == game

    def test_game_report_witness_shapes(self):
        # deterministic witness: comma tuples; lp witness: nested dists
        det = sc.game_report_to_json(signalling_monogamy(XorGame.chsh()))
        assert det["value"] == "5/2"
        assert all(isinstance(v, str) for v in det["witness"].values())
        lp = sc.game_report_to_json(ns_monogamy_lp(XorGame.chsh()))
        assert lp["value"] == "3/2"
        assert lp["lp_objective"] == "3/2"
        assert all(isinstance(v, dict) for v in lp["witness"].values())

    def test_bundle_serialization(self):
        bundle = verify_config(build_config(3, "1/2"))
        obj = sc.bundle_to_json(bundle)
        assert obj["ok"] is True
        assert obj["closed_form"]["full"] == "not_separated"
        assert obj["closed_form"]["subtuples"] == ["separated"] * 3
        assert obj["config"]["n"] == 3
        assert obj["config"]["h"] == "1/2"
        json.loads(sc.dumps(obj))


class TestDumps:
    def test_sorted_keys_and_trailing_newline(self):
        text = sc.dumps({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_identical_inputs_identical_bytes(self):
        scen = sc.preset("fig5")
        a = sc.dumps(sc.box_to_json(scen.order, scen.box))
        b = sc.dumps(sc.box_to_json(sc.preset("fig5").order, sc.preset("fig5").box))
        assert a == b
