"""`validate_box`'s integer row sums against the Fraction-sum reference
in `boxes_reference.py`: the same issues, in the same order, with the
same text."""

from fractions import Fraction

import pytest

import boxes_reference as ref
from causalbox.boxes import Alphabet, CorrelationBox, Srv, validate_box
from causalbox.geometry import Event, Minkowski
from test_ons_reference import BACKENDS, KINDS, SEEDS, seeded_box

BITS = Alphabet.binary()
M1 = Minkowski(1)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_boxes_match_reference(backend, kind):
    flagged = 0
    for seed in SEEDS:
        order, box = seeded_box(backend, kind, seed)
        got = validate_box(box, order).issues
        assert got == ref.validate_box(box, order).issues, seed
        flagged += bool(got)
    # The defective kinds are flagged on every seed, the clean one never.
    assert flagged == (0 if kind == "factored" else len(SEEDS))


def _one_output_box(table):
    ins = (Srv("X", BITS, Event.at(0, 0)),)
    outs = (Srv("A", Alphabet.of(0, 1, 2), Event.at(1, 0)),)
    return CorrelationBox(ins, outs, table, pairing={0: 0})


@pytest.mark.parametrize(
    "table, kinds",
    [
        # A stray outcome key: its mass leaves the row total.
        (
            {("0",): {("0",): Fraction(1, 3), ("2",): Fraction(2, 3)},
             ("1",): {("1",): Fraction(1, 2), ("3",): Fraction(1, 2)}},
            ["unknown_outcome", "normalization"],
        ),
        # An unknown setting, and a key of the wrong length.
        (
            {("0",): {("0",): 1},
             ("1",): {("1", "1"): Fraction(1, 5), ("1",): Fraction(4, 5)},
             ("2",): {("0",): 1}},
            ["unknown_outcome", "normalization", "unknown_setting"],
        ),
        # Negative entries that still sum to one.
        (
            {("0",): {("0",): Fraction(-1, 7), ("1",): Fraction(8, 7)},
             ("1",): {("2",): 1}},
            ["negativity"],
        ),
    ],
)
def test_hand_made_defects_match_reference(table, kinds):
    box = _one_output_box(table)
    got = validate_box(box, M1).issues
    assert got == ref.validate_box(box, M1).issues
    assert [i.kind for i in got] == kinds


def test_normalization_message_prints_the_exact_sum():
    box = _one_output_box(
        {("0",): {("0",): Fraction(3, 10), ("1",): Fraction(2, 5)},
         ("1",): {("2",): Fraction(1, 3), ("0",): Fraction(2, 3)}}
    )
    got = validate_box(box, M1).issues
    assert got == ref.validate_box(box, M1).issues
    assert [str(i) for i in got] == ["normalization: x=0 sums to 7/10"]
