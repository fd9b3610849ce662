"""Every Monte-Carlo round of `simulate`, bit for bit, against the
two-tally reference in `simulate_reference.py`.

While there are at most _BLOCK_CELLS cells and cells * trials is at
most _BLOCK_CELL_TRIALS, `simulate` counts its rounds in blocks of
_CHUNK // (2 * trials) whole rounds, reads every arm's cell counts off
one big-integer product per cell and sums each block's G statistics
column by column; otherwise each round counts its draws one at a time.
The block counts are compared round by round, also past the bounds, up
to the 255 trials they allow; `simulate` itself is compared on both
sides of each bound.  The cases are: 2, 4, 8 and 16 cells at trials 1
to 16; mc_rounds one short of, equal to and one past a block; a
non-dyadic pooled distribution, whose marked draws are bisected inside
rounds; arms whose whole count falls in one cell, at the most trials a
block of simulate takes and at 255; and more cells than a guide byte
can name.
"""

import math
import random
from fractions import Fraction

import pytest

import simulate_reference as ref
from causalbox import protocol
from causalbox.protocol import (
    _BLOCK_CELL_TRIALS,
    _BLOCK_CELLS,
    _CHUNK,
    _SPLIT,
    _GTerms,
    _round_statistics,
    _Sampler,
    _stream,
)
from test_simulate_reference import _distribution, _protocol, seeded_protocol


def per_block(trials: int) -> int:
    return _CHUNK // (2 * trials)


def assert_rounds_match(proto, trials, seed, mc_rounds):
    """Each round's G, given the inputs `simulate` gives the rounds,
    has the bits of the reference's."""
    _, cells, _, pooled, expected = ref._arms(proto, trials, seed)
    rounds = _round_statistics(
        _Sampler(dict(zip(cells, pooled))),
        _stream(seed, "mc"),
        trials,
        mc_rounds,
        [_GTerms(e) for e in expected],
    )
    _, reference = ref.round_statistics(proto, trials, seed, mc_rounds)
    assert [g.hex() for g in rounds] == [g.hex() for g in reference]


@pytest.mark.parametrize("null", [False, True], ids=["violating", "null"])
@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_rounds_match_reference(k, null):
    proto = seeded_protocol(k, null)
    for trials in range(1, 17):
        assert_rounds_match(proto, trials, 1, per_block(trials) + 1)


@pytest.mark.parametrize("trials", [3, 5])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_rounds_around_a_block_boundary(trials, extra):
    assert_rounds_match(seeded_protocol(4, False), trials, 1, per_block(trials) + extra)


def test_marked_draws_inside_rounds():
    """At 3 trials a side the pooled frequencies are sixths, so cuts
    split some guide ranges, and the "mc" draws marked _SPLIT fall at
    every position within a round."""
    proto, trials, seed = seeded_protocol(8, False), 3, 1
    mc_rounds = per_block(trials) + 1
    _, cells, _, pooled, _ = ref._arms(proto, trials, seed)
    sampler = _Sampler(dict(zip(cells, pooled)))
    guide = b"".join(
        c for _, c in sampler._chunks(_stream(seed, "mc"), 2 * trials * mc_rounds)
    )
    marked = {p % (2 * trials) for p, c in enumerate(guide) if c == _SPLIT}
    assert marked == set(range(2 * trials))
    assert_rounds_match(proto, trials, seed, mc_rounds)


def test_more_cells_than_a_guide_byte_names():
    """Cells past index 254 are never named by the guide, so every count
    they get comes from a bisected draw."""
    rng = random.Random("many-cells:512")
    dist = _distribution(rng, 512)
    proto, trials, seed = _protocol(dist, _distribution(rng, 512)), 255, 3
    _, cells, _, pooled, _ = ref._arms(proto, trials, seed)
    assert len(cells) > 255
    sampler = _Sampler(dict(zip(cells, pooled)))
    mc_rounds = per_block(trials) + 1
    blocks = sampler.round_counts(_stream(seed, "mc"), trials, mc_rounds)
    assert any(any(c) for block in blocks for arm in block for c in arm[255:])
    assert_rounds_match(proto, trials, seed, mc_rounds)


BLOCKS, BY_DRAW = "_round_statistics", "_hits_by_draw"


@pytest.mark.parametrize(
    "k, paths",
    [(2, {BLOCKS}), (4, {BLOCKS}), (8, {BLOCKS, BY_DRAW}), (16, {BLOCKS, BY_DRAW})],
)
def test_rounds_either_way_match_reference(monkeypatch, k, paths):
    """simulate counts its rounds in blocks exactly when there are at
    most _BLOCK_CELLS cells and cells * trials is at most
    _BLOCK_CELL_TRIALS, and one draw at a time otherwise; either way its
    result has the reference's bits.  The 16-cell protocols cross the
    cell bound below 16 trials, and the violating 8-cell one crosses the
    product bound between 32 and 33 trials."""
    used, seen = [], set()
    for name in (BLOCKS, BY_DRAW):
        monkeypatch.setattr(
            protocol,
            name,
            lambda *args, f=getattr(protocol, name), name=name: (
                used.append(name) or f(*args)
            ),
        )
    for null in (False, True):
        proto = seeded_protocol(k, null)
        for trials in [*range(1, 17), 32, 33]:
            used.clear()
            mc_rounds = per_block(trials) + 1
            got = protocol.simulate(proto, trials, 1, mc_rounds=mc_rounds)
            want = ref.simulate(proto, trials, 1, mc_rounds=mc_rounds)
            assert got == want and got.p_value.hex() == want.p_value.hex()
            if got.method != "exact_mc":
                assert used == []
                continue
            cells = len(set(got.counts_a) | set(got.counts_b))
            blocks = cells <= _BLOCK_CELLS and cells * trials <= _BLOCK_CELL_TRIALS
            assert used == [BLOCKS if blocks else BY_DRAW]
            seen.update(used)
    assert seen == paths


@pytest.mark.parametrize("trials", [_BLOCK_CELL_TRIALS // 2, 255])
def test_a_whole_arm_in_one_cell_does_not_carry(trials):
    """With one cell in 2 * trials pooled draws, most arms draw no other
    cell, so their first cell's count is `trials`, the most a digit of
    the product holds: a carry would show in the next arm's count."""
    cells = [("0",), ("1",)]
    pooled = [1 - Fraction(1, 2 * trials), Fraction(1, 2 * trials)]
    expected = [float(trials * f) for f in pooled]
    sampler = _Sampler(dict(zip(cells, pooled)))
    seed, mc_rounds = 1, per_block(trials) + 2
    bulk, single = _stream(seed, "mc"), _stream(seed, "mc")
    full = 0
    for block in sampler.round_counts(bulk, trials, mc_rounds):
        for r in range(len(block[0][0])):
            for arm in block:
                counts = [count[r] for count in arm]
                assert counts == ref._tally(sampler, single, trials)
                full += counts[0] == trials
    assert full >= 1
    assert bulk.getrandbits(53) == single.getrandbits(53)
    rounds = _round_statistics(
        sampler, _stream(seed, "mc"), trials, mc_rounds, [_GTerms(e) for e in expected]
    )
    observed = [[trials, 0], [trials - 1, 1]]
    _, reference = ref._mc_rounds(
        cells, observed, pooled, expected, trials, seed, mc_rounds
    )
    assert [g.hex() for g in rounds] == [g.hex() for g in reference]


@pytest.mark.parametrize("trials", [1, 3, 5, _BLOCK_CELL_TRIALS // 2, 255])
def test_a_block_holds_at_most_a_chunk(trials):
    sampler = _Sampler({("0",): Fraction(1, 3), ("1",): Fraction(2, 3)})
    mc_rounds = 2 * per_block(trials) + 1
    sizes = [
        len(block[0][0])
        for block in sampler.round_counts(_stream(0, "mc"), trials, mc_rounds)
    ]
    assert sizes == [per_block(trials)] * 2 + [1]
    assert 2 * trials * max(sizes) <= _CHUNK


def test_a_zero_count_adds_positive_zero():
    """A zero count reads +0.0, and a nonzero count's term is never -0.0
    (log(1) is +0.0), so the zero terms a round adds change no bit of
    its G, which starts at +0.0."""
    for e in (0.5, 1.0, 3.0, 1e-300):
        terms = _GTerms(e)
        zero = terms[0]
        assert type(zero) is float and zero == 0.0 and math.copysign(1.0, zero) == 1.0
        for o in (1, 2, 3):
            assert terms[o] != 0.0 or math.copysign(1.0, terms[o]) == 1.0
    assert _GTerms(1.0)[1].hex() == (0.0).hex()
