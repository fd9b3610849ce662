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
"""

import itertools
import random
from fractions import Fraction

import pytest

import simulate_reference as ref
from causalbox import protocol as protocol_module
from causalbox.geometry import Event
from causalbox.protocol import SignallingProtocol, _Sampler, _stream, simulate
from test_protocol import ScriptedBits

CELLS = (2, 4, 8, 16)
TRIALS = (1, 2, 3, 4, 8, 16)
ROUNDS = (1, 2, 50, 2000)


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
