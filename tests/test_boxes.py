"""Tables, validation, marginals, and interventions."""

import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from causalbox.boxes import (
    IDLE,
    Alphabet,
    CorrelationBox,
    Issue,
    Srv,
    ValidationError,
    _first_difference,
    _integer_row,
    _outcomes_of,
    do_label,
    extend_with_intervention,
    marginalize,
    undo_label,
    validate_box,
)
from causalbox.casestudies import CausalMechanism
from causalbox.geometry import Event, Minkowski
from causalbox.scenario import preset

M1 = Minkowski(1)
BITS = Alphabet.binary()


def pr_box():
    return preset("bell_standard").box


def loop_box():
    """Three outputs with B = A xor C, uniform: the pad mechanism's free row."""
    locs = (Event.at(0, -2), Event.at(3, 0), Event.at(0, 2))
    outs = tuple(Srv(n, BITS, e) for n, e in zip("ABC", locs))
    row = CausalMechanism("otp").row((None, None, None))
    return CorrelationBox(inputs=(), outputs=outs, table={(): row})


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
        box = loop_box()
        assert box.row("") == box.row(())
        assert sum(box.row(()).values()) == 1

    def test_index_lookup(self):
        box = pr_box()
        assert box.output_index("A") == 0
        with pytest.raises(KeyError):
            box.output_index("Z")


def _of_kind(report, kind):
    return [i for i in report.issues if i.kind == kind]


class TestValidate:
    def test_pr_box_in_bell_layout_is_clean(self):
        box = pr_box()
        assert validate_box(box, M1).ok

    def test_missing_setting(self):
        box = pr_box()
        table = dict(box.table)
        del table[("1", "1")]
        broken = CorrelationBox(box.inputs, box.outputs, table, box.pairing)
        report = validate_box(broken, M1)
        assert len(_of_kind(report, "missing_setting")) == 1

    def test_negative_and_unnormalised(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        box = CorrelationBox((), out, {(): {("0",): "3/2", ("1",): "-1/4"}})
        report = validate_box(box, M1)
        assert _of_kind(report, "negativity")
        assert _of_kind(report, "normalization")

    def test_negativity_on_a_negative_entry_and_not_on_a_zero_one(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        for p, negative in ((Fraction(-1, 3), True), (Fraction(0), False), (0, False)):
            row = {("0",): 1 - p, ("1",): p}
            report = validate_box(CorrelationBox((), out, {(): row}), M1)
            assert bool(_of_kind(report, "negativity")) == negative
            assert report.ok == (not negative)

    def test_unknown_outcome_key(self):
        out = (Srv("A", BITS, Event.at(1, 0)),)
        box = CorrelationBox((), out, {(): {("2",): 1}})
        report = validate_box(box, M1)
        assert _of_kind(report, "unknown_outcome")
        # The stray mass is also excluded from the row total.
        assert _of_kind(report, "normalization")

    def test_colocated_pair_fails_causal_ordering(self):
        here = Event.at(0, 0)
        box = CorrelationBox(
            (Srv("X", BITS, here),),
            (Srv("A", BITS, here),),
            {("0",): {("0",): 1}, ("1",): {("1",): 1}},
            pairing={0: 0},
        )
        report = validate_box(box, M1)
        assert _of_kind(report, "causal_ordering")

    def test_unpaired_colocated_agents_are_fine(self):
        here = Event.at(0, 0)
        box = CorrelationBox(
            (Srv("X", BITS, here),),
            (Srv("A", BITS, here),),
            {("0",): {("0",): 1}, ("1",): {("1",): 1}},
        )
        assert validate_box(box, M1).ok

    @staticmethod
    def defective_box():
        """A missing setting (1,1), an unknown setting (2,0), a row (1,0)
        whose keys are out of canonical order and which holds an unknown
        outcome, a negative entry and a total of 5/6, and a pairing whose
        output B lies before its input Y."""
        ins = (Srv("X", BITS, Event.at(0, 0)), Srv("Y", BITS, Event.at(0, 6)))
        outs = (Srv("A", BITS, Event.at(1, 0)), Srv("B", BITS, Event.at(-1, 6)))
        table = {
            ("0", "0"): {("0", "0"): Fraction(1, 2), ("1", "1"): Fraction(1, 2)},
            ("1", "0"): {
                ("1", "1"): Fraction(3, 4),
                ("0", "2"): Fraction(1, 8),
                ("0", "1"): Fraction(-1, 4),
                ("0", "0"): Fraction(1, 3),
            },
            ("0", "1"): {("0", "1"): 1},
            ("2", "0"): {("0", "0"): 1},
        }
        return CorrelationBox(ins, outs, table, {0: 0, 1: 1})

    def test_every_defect_reported_in_a_fixed_order(self):
        assert validate_box(self.defective_box(), M1).issues == (
            Issue("missing_setting", "x=1,1"),
            Issue("negativity", "x=1,0 a=0,1 p=-1/4"),
            Issue("unknown_outcome", "x=1,0 a=0,2"),
            Issue("normalization", "x=1,0 sums to 5/6"),
            Issue("unknown_setting", "x=2,0"),
            Issue(
                "causal_ordering",
                "input Y at Event(t=0, x=(6)) does not strictly precede "
                "output B at Event(t=-1, x=(6))",
            ),
        )

    def test_validation_caches_each_sound_row_and_no_row_with_a_stray_key(self):
        box = self.defective_box()
        validate_box(box, M1)
        # D = 24; the unknown setting is not a row of the box.
        assert box._integer_rows == {
            ("0", "0"): [(0, 12), (3, 12)],
            ("0", "1"): [(1, 24)],
        }
        for _ in range(2):
            with pytest.raises(ValidationError, match=r"x=1,0: \('0', '2'\)"):
                _integer_row(box, ("1", "0"))
        assert ("1", "0") not in box._integer_rows

    def test_cached_rows_are_the_rows_integer_row_builds(self):
        # Rows with negative entries, wrong totals, zero entries and keys
        # out of canonical order are cached all the same.
        box = self.defective_box()
        table = dict(box.table)
        del table[("1", "0")]
        table[("1", "1")] = {("1", "0"): Fraction(-1, 6), ("0", "0"): 0, ("0", "1"): 2}
        validated = CorrelationBox(box.inputs, box.outputs, table, box.pairing)
        assert not validate_box(validated, M1).ok
        fresh = CorrelationBox(box.inputs, box.outputs, table, box.pairing)
        cached = validated._integer_rows
        assert sorted(cached) == [("0", "0"), ("0", "1"), ("1", "1")]
        for x, row in cached.items():
            assert row == _integer_row(fresh, x)
        assert cached[("1", "1")] == [(2, -1), (0, 0), (1, 12)]  # D = 6


class TestMarginalize:
    def test_pr_marginals_are_uniform(self):
        box = pr_box()
        for x in box.settings():
            for j in (0, 1):
                assert marginalize(box, (j,), x) == {
                    ("0",): Fraction(1, 2),
                    ("1",): Fraction(1, 2),
                }

    def test_full_index_set_recovers_row(self):
        box = loop_box()
        m = marginalize(box, (0, 1, 2), ())
        for a in box.outcomes():
            assert m[a] == box.prob((), a)

    def test_empty_index_set_gives_total_mass(self):
        box = loop_box()
        assert marginalize(box, (), ()) == {(): Fraction(1)}

    def test_order_of_indices_respected(self):
        box = loop_box()
        m = marginalize(box, (2, 0), ())
        assert m[("1", "0")] == box.prob((), ("0", "1", "1")) + box.prob(
            (), ("0", "0", "1")
        )

    def test_bad_index_raises(self):
        box = loop_box()
        with pytest.raises(IndexError):
            marginalize(box, (3,), ())

    def test_memoized(self):
        box = loop_box()
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


@pytest.mark.parametrize(
    "outcome",
    [
        ("0",),  # too short
        ("0", "x", "y"),  # too long
        ("x", "0"),  # each label belongs to the other output
        ("0", "0"),  # B's label from A's alphabet
    ],
)
def test_integer_row_rejects_a_key_that_is_not_an_outcome(outcome):
    box = CorrelationBox(
        (Srv("X", BITS, Event.at(0, 0)),),
        (Srv("A", BITS, Event.at(1, 0)), Srv("B", Alphabet.of("x", "y"), Event.at(1, 2))),
        {
            ("0",): {("1", "y"): 1},
            ("1",): {("0", "x"): Fraction(1, 2), outcome: Fraction(1, 2)},
        },
    )
    assert _integer_row(box, ("0",)) == [(3, 2)]  # n over D = 2
    with pytest.raises(ValidationError) as exc:
        _integer_row(box, ("1",))
    assert "x=1" in str(exc.value) and repr(outcome) in str(exc.value)
    assert ("1",) not in box._integer_rows


def test_first_difference_reads_the_outcome_in_product_order():
    # Mixed alphabet sizes, G in and out of output order: the i-th entry
    # of a marginal vector is the i-th outcome of itertools.product.
    outputs = [SimpleNamespace(alphabet=Alphabet.of(*range(k))) for k in (2, 3, 4)]
    box = SimpleNamespace(outputs=outputs, _denominator=12, _probabilities={})
    for G in ((0,), (2, 1), (0, 1, 2), (1, 2, 0)):
        outcomes = list(itertools.product(*(outputs[g].alphabet.labels for g in G)))
        for i, outcome in enumerate(outcomes):
            left = (5,) * len(outcomes)
            right = tuple(5 + (j == i) for j in range(len(outcomes)))
            assert _first_difference(box, [*_outcomes_of(box, G)], left, right) == (
                outcome, Fraction(5, 12), Fraction(6, 12)
            )


def test_first_difference_takes_the_first_of_several_differences():
    outputs = [SimpleNamespace(alphabet=Alphabet.of(*range(k))) for k in (2, 3)]
    box = SimpleNamespace(outputs=outputs, _denominator=6, _probabilities={})
    outcomes = [*_outcomes_of(box, (0, 1))]
    left = (1, 1, 1, 1, 1, 1)
    right = (1, 0, 3, 1, 0, 1)
    assert _first_difference(box, outcomes, left, right) == (
        ("0", "1"), Fraction(1, 6), Fraction(0)
    )


def test_first_difference_in_the_last_entry_only():
    outputs = [SimpleNamespace(alphabet=Alphabet.of(*range(k))) for k in (3, 2)]
    box = SimpleNamespace(outputs=outputs, _denominator=4, _probabilities={})
    outcomes = [*_outcomes_of(box, (1, 0))]
    left = (0, 0, 0, 0, 0, 4)
    right = (0, 0, 0, 0, 0, 3)
    assert _first_difference(box, outcomes, left, right) == (
        ("1", "2"), Fraction(1), Fraction(3, 4)
    )


class TestCanonical:
    """The stock boxes the tests build on."""

    def test_loop_box_content(self):
        box = loop_box()
        for a, b, c in itertools.product("01", repeat=3):
            want = Fraction(1, 4) if int(b) == int(a) ^ int(c) else 0
            assert box.prob((), (a, b, c)) == want

    def test_pr_box_wins_chsh_game(self):
        box = pr_box()
        for x, y in box.settings():
            for a, b in itertools.product("01", repeat=2):
                p = box.prob((x, y), (a, b))
                if int(a) ^ int(b) == int(x) * int(y):
                    assert p == Fraction(1, 2)
                else:
                    assert p == 0


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
        box = loop_box()
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
        box = loop_box()
        ext = extend_with_intervention(
            M1, box, 0, box.outputs[0].location, uniform_post_tables(box, 0)
        )
        assert ext.verify()

    def test_forcing_after_target_rejected(self):
        box = loop_box()
        with pytest.raises(ValidationError):
            extend_with_intervention(
                M1, box, 0, Event.at(9, -2), uniform_post_tables(box, 0)
            )

    def test_missing_post_table_rejected(self):
        box = loop_box()
        tables = uniform_post_tables(box, 0)
        del tables[("1", ())]
        with pytest.raises(ValidationError):
            extend_with_intervention(M1, box, 0, Event.at(-1, -2), tables)

    def test_unnormalised_post_table_rejected(self):
        box = loop_box()
        tables = uniform_post_tables(box, 0)
        tables[("1", ())] = {("0", "0"): Fraction(1, 2)}
        with pytest.raises(ValidationError):
            extend_with_intervention(M1, box, 0, Event.at(-1, -2), tables)

    def test_chained_extensions_append_inputs_in_order(self):
        box = loop_box()
        for j in (0, 1, 2):
            box = extend_with_intervention(
                M1, box, j, box.outputs[j].location, uniform_post_tables(box, j)
            ).box
        assert [s.name for s in box.inputs] == ["I_A", "I_B", "I_C"]
        assert len(box.table) == 27
        assert validate_box(box, M1).ok
