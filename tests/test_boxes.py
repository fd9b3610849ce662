"""Tables, validation, marginals, interventions, and the embedding."""

import itertools
from fractions import Fraction

import pytest

from causalbox.boxes import (
    IDLE,
    Alphabet,
    CorrelationBox,
    Srv,
    ValidationError,
    canonical_box,
    do_label,
    embed_general,
    extend_with_intervention,
    marginalize,
    restrict_embedded,
    undo_label,
    validate_box,
)
from causalbox.geometry import Event, Minkowski

M1 = Minkowski(1)
BITS = Alphabet.binary()


def bell_locations():
    return {
        "p1": Event.at(0, 0),
        "p2": Event.at(0, 6),
        "q1": Event.at(1, 0),
        "q2": Event.at(1, 6),
    }


def loop_locations():
    return {"q1": Event.at(0, -2), "q2": Event.at(3, 0), "q3": Event.at(0, 2)}


class TestAlphabet:
    def test_labels_coerced_to_str(self):
        assert Alphabet.of(0, 1).labels == ("0", "1")

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet.of("a", "a")

    def test_intervention_structure(self):
        ia = Alphabet.interventions(BITS)
        assert ia.labels == (IDLE, "do(0)", "do(1)")
        assert ia.is_intervention
        assert not BITS.is_intervention

    def test_intervention_labels_must_match_target(self):
        with pytest.raises(ValidationError):
            Alphabet(("idle", "do(2)"), target=BITS)

    def test_do_label_round_trip(self):
        assert undo_label(do_label("7")) == "7"
        assert undo_label(IDLE) is None


class TestConstruction:
    def test_lenient_coercion(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        box = CorrelationBox(
            inputs=(Srv("X", BITS, Event.at(0, 0)),),
            outputs=out,
            table={"0": {"0": "1/3", "1": "2/3"}, ("1",): {("0",): 1}},
            pairing={0: 0},
        )
        assert box.prob(("0",), ("1",)) == Fraction(2, 3)
        assert box.prob(("1",), ("0",)) == 1
        assert box.prob(("1",), ("1",)) == 0

    def test_empty_setting_key(self):
        box = canonical_box("loop_box", loop_locations())
        assert box.row("") == box.row(())
        assert sum(box.row(()).values()) == 1

    def test_index_lookup(self):
        box = canonical_box("pr_box", bell_locations())
        assert box.input_index("Y") == 1
        assert box.output_index("A") == 0
        with pytest.raises(KeyError):
            box.input_index("Z")


class TestValidate:
    def test_pr_box_in_bell_layout_is_clean(self):
        box = canonical_box("pr_box", bell_locations())
        assert validate_box(box, M1).ok

    def test_missing_setting(self):
        box = canonical_box("pr_box", bell_locations())
        table = dict(box.table)
        del table[("1", "1")]
        broken = CorrelationBox(box.inputs, box.outputs, table, box.pairing)
        report = validate_box(broken, M1)
        assert len(report.of_kind("missing_setting")) == 1

    def test_negative_and_unnormalised(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        box = CorrelationBox((), out, {(): {("0",): "3/2", ("1",): "-1/4"}})
        report = validate_box(box, M1)
        assert report.of_kind("negativity")
        assert report.of_kind("normalization")

    def test_unknown_outcome_key(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        box = CorrelationBox((), out, {(): {("2",): 1}})
        report = validate_box(box, M1)
        assert report.of_kind("unknown_outcome")
        # The stray mass is also excluded from the row total.
        assert report.of_kind("normalization")

    def test_colocated_pair_fails_causal_ordering(self):
        here = Event.at(0, 0)
        box = CorrelationBox(
            (Srv("X", BITS, here),),
            (Srv("A", BITS, here),),
            {("0",): {("0",): 1}, ("1",): {("1",): 1}},
            pairing={0: 0},
        )
        report = validate_box(box, M1)
        assert report.of_kind("causal_ordering")

    def test_unpaired_colocated_agents_are_fine(self):
        here = Event.at(0, 0)
        box = CorrelationBox(
            (Srv("X", BITS, here),),
            (Srv("A", BITS, here),),
            {("0",): {("0",): 1}, ("1",): {("1",): 1}},
        )
        assert validate_box(box, M1).ok


class TestMarginalize:
    def test_pr_marginals_are_uniform(self):
        box = canonical_box("pr_box", bell_locations())
        for x in box.settings():
            for j in (0, 1):
                assert marginalize(box, (j,), x) == {
                    ("0",): Fraction(1, 2),
                    ("1",): Fraction(1, 2),
                }

    def test_full_index_set_recovers_row(self):
        box = canonical_box("loop_box", loop_locations())
        m = marginalize(box, (0, 1, 2), ())
        for a in box.outcomes():
            assert m[a] == box.prob((), a)

    def test_empty_index_set_gives_total_mass(self):
        box = canonical_box("loop_box", loop_locations())
        assert marginalize(box, (), ()) == {(): Fraction(1)}

    def test_order_of_indices_respected(self):
        box = canonical_box("loop_box", loop_locations())
        m = marginalize(box, (2, 0), ())
        assert m[("1", "0")] == box.prob((), ("0", "1", "1")) + box.prob(
            (), ("0", "0", "1")
        )

    def test_bad_index_raises(self):
        box = canonical_box("loop_box", loop_locations())
        with pytest.raises(IndexError):
            marginalize(box, (3,), ())

    def test_memoized(self):
        box = canonical_box("loop_box", loop_locations())
        assert marginalize(box, (1,), ()) is marginalize(box, (1,), ())

    def test_non_dyadic_entries_are_exact(self):
        box = CorrelationBox(
            (Srv("X", BITS, Event.at(0, 0)),),
            (Srv("A", BITS, Event.at(1, 0)), Srv("B", BITS, Event.at(1, 2))),
            {
                ("0",): {("0", "0"): Fraction(1, 3), ("1", "1"): Fraction(2, 3)},
                ("1",): {("0", "1"): Fraction(3, 7), ("1", "0"): Fraction(-1, 10)},
            },
        )
        assert marginalize(box, (0,), ("1",)) == {
            ("0",): Fraction(3, 7),
            ("1",): Fraction(-1, 10),
        }
        assert marginalize(box, (), ("0",)) == {(): Fraction(1)}
        assert all(
            type(p) is Fraction for p in marginalize(box, (1,), ("1",)).values()
        )

    @pytest.mark.parametrize(
        "outcome, G",
        [
            (("1",), (0,)),  # too short
            (("0", "1", "0"), ()),  # too long
            (("2", "1"), (0,)),  # label outside A's alphabet, A covered
            (("2", "1"), (1,)),  # label outside A's alphabet, A not covered
        ],
    )
    def test_malformed_outcome_raises(self, outcome, G):
        box = CorrelationBox(
            (Srv("X", BITS, Event.at(0, 0)),),
            (Srv("A", BITS, Event.at(1, 0)), Srv("B", BITS, Event.at(1, 2))),
            {
                ("0",): {("0", "0"): 1},
                ("1",): {("0", "0"): Fraction(1, 2), outcome: Fraction(1, 2)},
            },
        )
        assert marginalize(box, G, ("0",))
        with pytest.raises(ValidationError) as exc:
            marginalize(box, G, ("1",))
        assert "x=1" in str(exc.value) and repr(outcome) in str(exc.value)


class TestCanonical:
    def test_loop_box_content(self):
        box = canonical_box("loop_box", loop_locations())
        for a, b, c in itertools.product("01", repeat=3):
            want = Fraction(1, 4) if int(b) == int(a) ^ int(c) else 0
            assert box.prob((), (a, b, c)) == want

    def test_pr_box_wins_chsh_game(self):
        box = canonical_box("pr_box", bell_locations())
        for x, y in box.settings():
            for a, b in itertools.product("01", repeat=2):
                p = box.prob((x, y), (a, b))
                if int(a) ^ int(b) == int(x) * int(y):
                    assert p == Fraction(1, 2)
                else:
                    assert p == 0

    @pytest.mark.parametrize("lam", [0, Fraction(1, 4), Fraction(1, 2), 1])
    def test_jam_x_rows_normalise_for_every_weight(self, lam):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        box = canonical_box("jam_mechanism_X", locs, lam)
        for x in box.settings():
            assert sum(box.row(x).values()) == 1

    def test_jam_x_on_row_structure(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        lam = Fraction(1, 3)
        box = canonical_box("jam_mechanism_X", locs, lam)
        for x_bit in "01":
            for a, b, c in itertools.product("01", repeat=3):
                p = box.prob((x_bit, "1"), (a, b, c))
                if int(a) ^ int(b) != int(x_bit):
                    assert p == 0
                else:
                    w = lam if a == "0" else 1 - lam
                    assert p == w * Fraction(1, 2)

    def test_jam_x_off_row_uniform(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        box = canonical_box("jam_mechanism_X", locs, Fraction(1, 3))
        for x_bit in "01":
            for a in box.outcomes():
                assert box.prob((x_bit, "0"), a) == Fraction(1, 8)

    def test_jam_y_locks_bc(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        mu = Fraction(2, 5)
        box = canonical_box("jam_mechanism_Y", locs, mu)
        for y_bit in "01":
            for a, b, c in itertools.product("01", repeat=3):
                p = box.prob((y_bit, "1"), (a, b, c))
                if int(b) ^ int(c) != int(y_bit):
                    assert p == 0
                else:
                    w = mu if b == "0" else 1 - mu
                    assert p == w * Fraction(1, 2)

    def test_weight_outside_unit_interval_rejected(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        with pytest.raises(ValidationError):
            canonical_box("jam_mechanism_X", locs, Fraction(3, 2))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            canonical_box("mystery", {})


def uniform_post_tables(box, j):
    others = [s for k, s in enumerate(box.outputs) if k != j]
    combos = list(itertools.product(*(s.alphabet.labels for s in others)))
    dist = {c: Fraction(1, len(combos)) for c in combos}
    tables = {}
    for forced in box.outputs[j].alphabet.labels:
        for x in box.settings():
            tables[(forced, x)] = dist
    return tables


class TestIntervention:
    def make(self):
        box = canonical_box("loop_box", loop_locations())
        return extend_with_intervention(
            M1, box, 1, Event.at(2, 0), uniform_post_tables(box, 1)
        )

    def test_idle_row_reproduces_base(self):
        ext = self.make()
        base = ext.base
        for a in base.outcomes():
            assert ext.box.prob((IDLE,), a) == base.prob((), a)

    def test_do_row_pins_target_and_spreads_rest(self):
        ext = self.make()
        for a, b, c in itertools.product("01", repeat=3):
            p = ext.box.prob(("do(1)",), (a, b, c))
            assert p == (Fraction(1, 4) if b == "1" else 0)

    def test_verify(self):
        assert self.make().verify()

    def test_input_named_after_target(self):
        ext = self.make()
        assert ext.srv.name == "I_B"
        assert ext.srv.alphabet.labels == (IDLE, "do(0)", "do(1)")

    def test_forcing_at_target_event_allowed(self):
        box = canonical_box("loop_box", loop_locations())
        ext = extend_with_intervention(
            M1, box, 0, box.outputs[0].location, uniform_post_tables(box, 0)
        )
        assert ext.verify()

    def test_forcing_after_target_rejected(self):
        box = canonical_box("loop_box", loop_locations())
        with pytest.raises(ValidationError):
            extend_with_intervention(
                M1, box, 0, Event.at(9, -2), uniform_post_tables(box, 0)
            )

    def test_missing_post_table_rejected(self):
        box = canonical_box("loop_box", loop_locations())
        tables = uniform_post_tables(box, 0)
        del tables[("1", ())]
        with pytest.raises(ValidationError):
            extend_with_intervention(M1, box, 0, Event.at(-1, -2), tables)

    def test_unnormalised_post_table_rejected(self):
        box = canonical_box("loop_box", loop_locations())
        tables = uniform_post_tables(box, 0)
        tables[("1", ())] = {("0", "0"): Fraction(1, 2)}
        with pytest.raises(ValidationError):
            extend_with_intervention(M1, box, 0, Event.at(-1, -2), tables)

    def test_chained_extensions_append_inputs_in_order(self):
        box = canonical_box("loop_box", loop_locations())
        for j in (0, 1, 2):
            box = extend_with_intervention(
                M1, box, j, box.outputs[j].location, uniform_post_tables(box, j)
            ).box
        assert [s.name for s in box.inputs] == ["I_A", "I_B", "I_C"]
        assert len(box.table) == 27
        assert validate_box(box, M1).ok


class TestEmbedding:
    def test_square_box_unchanged_up_to_relabel(self):
        box = canonical_box("pr_box", bell_locations())
        emb = embed_general(box)
        assert len(emb.inputs) == 2
        assert emb.pairing == {0: 0, 1: 1}
        for x in box.settings():
            for a in box.outcomes():
                assert emb.prob(x, a) == box.prob(x, a)

    def test_jam_box_embeds_with_padding(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        box = canonical_box("jam_mechanism_X", locs, Fraction(1, 3))
        emb = embed_general(box)
        # Three reading agents plus two input-only agents.
        assert len(emb.inputs) == 5
        assert emb.pairing == {i: i for i in range(5)}
        # Selecting a padding input for a reader yields an all-zero row.
        assert emb.row(("1", "0", "0", "0", "0")) == {}
        # The image of a real setting carries the original distribution.
        for a, b, c in itertools.product("01", repeat=3):
            assert emb.prob(("0", "0", "0", "1", "1"), (a, b, c, "0", "0")) == \
                box.prob(("1", "1"), (a, b, c))

    def test_round_trip(self):
        locs = {"p": Event.at(0, 0), **loop_locations()}
        box = canonical_box("jam_mechanism_Y", locs, Fraction(1, 5))
        emb = embed_general(box)
        back = restrict_embedded(emb, box)
        for x in box.settings():
            for a in box.outcomes():
                assert back[x].get(a, Fraction(0)) == box.prob(x, a)

    def test_output_only_scenario(self):
        box = canonical_box("loop_box", loop_locations())
        emb = embed_general(box)
        assert all(len(s.alphabet) == 1 for s in emb.inputs)
        assert emb.prob(("0", "0", "0"), ("0", "1", "1")) == Fraction(1, 4)
