"""The single-loop Monte-Carlo test of `simulate` against the two-tally
reference in `simulate_reference.py`.

Seeded violating and null protocols with 2, 4, 8 and 16 cells and
non-dyadic arm distributions run through both at trials 1 to 16 and
mc_rounds 1, 2, 50 and 2000, plus a 200-trial case whose rare cell
still forces exact_mc.  The results must be equal, down to the bits of
the statistic and the p-value.  Two cases pin the comparison with the
observed G: a null protocol whose rounds tie the observed G exactly and
to within 1e-12, and a scripted Monte-Carlo stream that replays the
observed counts when the observed G is so large that G - 1e-12 rounds
to G.

`simulate` draws each stream in bulk chunks of `_CHUNK` draws, so runs
whose trials or Monte-Carlo draws end just before, on and just after a
chunk boundary are compared too, as is a non-dyadic distribution with
more cells than a guide byte can name, and each stream's state after a
bulk tally.
"""

import itertools
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

import simulate_reference as ref
from causalbox import protocol as protocol_module
from causalbox.geometry import Event
from causalbox.protocol import _CHUNK, SignallingProtocol, _Sampler, _stream, simulate
from test_protocol import ScriptedBits

CELLS = (2, 4, 8, 16)
TRIALS = (1, 2, 3, 4, 8, 16)
ROUNDS = (1, 2, 50, 2000)
AROUND_CHUNK = (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


def _cell(i: int, k: int) -> tuple[str, ...]:
    return tuple(format(i, f"0{k.bit_length() - 1}b"))


def _distribution(rng: random.Random, k: int) -> dict[tuple[str, ...], Fraction]:
    """Weights 1 to 7 over k cells, redrawn until the total is not a power
    of two, so some cell probability is not dyadic."""
    while True:
        weights = [rng.randrange(1, 8) for _ in range(k)]
        total = sum(weights)
        if total & (total - 1):
            return {_cell(i, k): Fraction(w, total) for i, w in enumerate(weights)}


def _protocol(dist_a, dist_b) -> SignallingProtocol:
    return SignallingProtocol(
        sender=0,
        setting_a=("0",),
        setting_b=("1",),
        G=(0,),
        gathering_point=Event.at(0, 0),
        dist_a=dist_a,
        dist_b=dist_b,
    )


def seeded_protocol(k: int, null: bool) -> SignallingProtocol:
    rng = random.Random(f"simulate-reference:{k}")
    dist_a = _distribution(rng, k)
    return _protocol(dist_a, dist_a if null else _distribution(rng, k))


def assert_same(proto, trials, seed, mc_rounds):
    new = simulate(proto, trials, seed, mc_rounds=mc_rounds)
    old = ref.simulate(proto, trials, seed, mc_rounds=mc_rounds)
    assert new == old
    assert new.statistic.hex() == old.statistic.hex()
    assert new.p_value.hex() == old.p_value.hex()
    return new


@pytest.mark.parametrize("mc_rounds", ROUNDS)
@pytest.mark.parametrize("null", [False, True], ids=["violating", "null"])
@pytest.mark.parametrize("k", CELLS)
def test_matches_reference(k, null, mc_rounds):
    proto = seeded_protocol(k, null)
    methods = []
    for trials, seed in itertools.product(TRIALS, (0, 1, 2**64 - 1)):
        methods.append(assert_same(proto, trials, seed, mc_rounds).method)
    assert methods.count("exact_mc") >= len(methods) // 2


@pytest.mark.parametrize("mc_rounds", [50, 2000])
def test_rare_cell_forces_exact_mc_at_200_trials(mc_rounds):
    rare = {("0",): Fraction(199, 400), ("1",): Fraction(1, 2), ("2",): Fraction(1, 400)}
    skewed = {("0",): Fraction(2, 3), ("1",): Fraction(997, 3000), ("2",): Fraction(1, 1000)}
    for proto in (_protocol(rare, rare), _protocol(rare, skewed)):
        for seed in (0, 1, 3):
            assert assert_same(proto, 200, seed, mc_rounds).method == "exact_mc"


def test_null_rounds_tie_the_observed_statistic():
    proto, trials, seed, mc_rounds = seeded_protocol(2, True), 3, 2, 50
    stat, rounds = ref.round_statistics(proto, trials, seed, mc_rounds)
    assert any(g == stat for g in rounds)
    assert any(stat - 1e-12 <= g < stat for g in rounds)
    assert_same(proto, trials, seed, mc_rounds)


def test_a_round_replaying_the_observed_counts_is_a_hit(monkeypatch):
    """With G near 2e4, G - 1e-12 == G, so a round ties the observed G
    only when it sums the same terms in the same order (arm a, then arm
    b); at this seed arm b's terms first fall one ulp short.  The
    scripted "mc" stream replays the observed counts once."""
    dist_a = {("0",): Fraction(6999, 7000), ("1",): Fraction(0), ("2",): Fraction(1, 7000)}
    dist_b = {("0",): Fraction(0), ("1",): Fraction(6999, 7000), ("2",): Fraction(1, 7000)}
    proto, trials, seed = _protocol(dist_a, dist_b), 7000, 11
    first = simulate(proto, trials, seed, mc_rounds=1)
    assert first.method == "exact_mc" and first.statistic > 16384
    assert first.statistic - 1e-12 == first.statistic
    _, _, observed, _, expected = ref._arms(proto, trials, seed)
    assert ref._g_statistic(observed[::-1], expected) < first.statistic
    cells = sorted(set(first.counts_a) | set(first.counts_b))
    pooled = {
        c: Fraction(first.counts_a.get(c, 0) + first.counts_b.get(c, 0), 2 * trials)
        for c in cells
    }
    cuts = dict(zip(cells, _Sampler(pooled).cuts))
    replay = [
        cuts[c] - 1 for arm in (first.counts_a, first.counts_b) for c in cells
        for _ in range(arm.get(c, 0))
    ]

    def scripted(seed, label):
        return ScriptedBits(replay) if label == "mc" else _stream(seed, label)

    monkeypatch.setattr(protocol_module, "_stream", scripted)
    monkeypatch.setattr(ref, "_stream", scripted)
    result = assert_same(proto, trials, seed, 1)
    assert result.p_value == 1.0


@pytest.mark.parametrize("trials", AROUND_CHUNK)
def test_chi2_arms_around_a_chunk_boundary(trials):
    for null in (False, True):
        assert assert_same(seeded_protocol(16, null), trials, 5, 50).method == "chi2"


@pytest.mark.parametrize(
    "trials, mc_rounds",
    [
        (2, _CHUNK // 4 - 1),
        (2, _CHUNK // 4),
        (2, _CHUNK // 4 + 1),
        (3, _CHUNK // 3 + 1),
        (5, _CHUNK // 5 + 1),
    ],
)
def test_monte_carlo_draws_around_a_chunk_boundary(trials, mc_rounds):
    """The "mc" stream's 2 * trials * mc_rounds draws end just before, on
    and just after a chunk boundary, and at 3 and 5 trials a side the
    chunk boundaries (powers of two) fall inside an arm."""
    proto = seeded_protocol(4, False)
    assert assert_same(proto, trials, 1, mc_rounds).method == "exact_mc"


def test_exact_mc_with_chunk_sized_arms():
    """A cell of probability 1/10**4 in arm a only keeps its pooled
    expected count below 5, so arms of 2 * _CHUNK + 3 trials go through
    the Monte-Carlo rounds."""
    dist = {("0",): Fraction(1, 3), ("1",): Fraction(2, 3) - Fraction(1, 10**4),
            ("2",): Fraction(1, 10**4)}
    other = {("0",): Fraction(1, 2), ("1",): Fraction(1, 2)}
    # At seed 0 arm a draws no rare cell, and the chi2 branch decides.
    result = assert_same(_protocol(dist, other), 2 * _CHUNK + 3, 2, 2)
    assert result.method == "exact_mc"


@pytest.mark.parametrize("k", [256, 300])
def test_more_cells_than_a_guide_byte_names(k):
    rng = random.Random(f"many-cells:{k}")
    dist_a = _distribution(rng, k)
    proto = _protocol(dist_a, _distribution(rng, k))
    # Some cell past index 254 owns a whole top-byte range, which the
    # guide cannot name, so its draws are read by bisection.
    cuts = [0, *_Sampler(dist_a).cuts]
    assert any(cuts[i + 1] >> 45 > -(-cuts[i] >> 45) for i in range(255, k))
    assert assert_same(proto, 40_000, 3, 50).method == "chi2"
    for trials, mc_rounds in ((64, 50), (400, 3)):
        assert assert_same(proto, trials, 3, mc_rounds).method == "exact_mc"


@pytest.mark.parametrize("n", [1, 7, *AROUND_CHUNK])
def test_bulk_draws_leave_the_stream_where_single_draws_do(n):
    dist = seeded_protocol(8, False).dist_b
    sampler = _Sampler(dist)
    bulk, single = _stream(9, "a"), _stream(9, "a")
    assert sampler.tally(bulk, n) == ref._tally(sampler, single, n)
    assert bulk.getrandbits(53) == single.getrandbits(53)
    cells = list(itertools.chain.from_iterable(sampler.sequence(bulk, n)))
    cuts = sampler.cuts
    assert cells == [bisect_right(cuts, single.getrandbits(53)) for _ in range(n)]
    assert bulk.getrandbits(53) == single.getrandbits(53)
