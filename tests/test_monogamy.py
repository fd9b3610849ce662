"""Game values across causal regimes, plus the entropic probe."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from causalbox.boxes import Alphabet, Srv
from causalbox.geometry import Event, Minkowski
from causalbox.monogamy import (
    EntropicProbeReport,
    GameValueReport,
    XorGame,
    _triangle_rows,
    brute_force_signalling,
    build_ns_lp,
    classify,
    entropic_probe,
    evaluate_behavior,
    jamming_vertex_table,
    mutual_information_bits_exact,
    ns_monogamy_lp,
    signalling_monogamy,
    specific_input_value,
)
from causalbox.ons import LayoutMismatch
from causalbox.simplex import verify_lp_certificate

F = Fraction
M2 = Minkowski(2)


def all_binary_games():
    for bits in itertools.product((0, 1), repeat=4):
        yield XorGame(2, (bits[:2], bits[2:]))


def random_game(rng, m):
    rows = tuple(
        tuple(int(rng.integers(0, 2)) for _ in range(m)) for _ in range(m)
    )
    return XorGame(m, rows)


class TestXorGame:
    @pytest.mark.parametrize(
        "m, f",
        [
            (2, ((0, 0), (0, 1.7))),
            (2, ((0, 0), (0, 1.0))),
            (2, ((0, 0), (0, True))),
            (2, ((0, 0), (0, "0"))),
            (2.0, ((0, 0), (0, 1))),
            (True, ((0,),)),
            ("2", ((0, 0), (0, 1))),
            (0, ()),
            (2, ((0, 0),)),
            (2, ((0, 0), (0,))),
            (2, ((0, 0), (0, 2))),
        ],
    )
    def test_non_integer_or_misshapen_game_rejected(self, m, f):
        # a float, bool or string is never coerced into a bit or a size
        with pytest.raises(ValueError):
            XorGame(m, f)

    def test_rows_stored_as_tuples(self):
        game = XorGame(2, [[0, 0], [0, 1]])
        assert game.f == ((0, 0), (0, 1))
        assert game == XorGame.chsh()


class TestClassify:
    def test_chsh(self):
        c = classify(XorGame.chsh())
        assert (c.s_ccc, c.s_aaa, c.s_aac, c.s_acc) == (4, 1, 0, 3)

    def test_input_copy(self):
        c = classify(XorGame.input_copy())
        assert (c.s_ccc, c.s_aaa, c.s_aac, c.s_acc) == (2, 2, 2, 2)

    def test_constant_zero(self):
        c = classify(XorGame.constant(0))
        assert c.s_ccc == 8 and c.total == 8

    def test_constant_one_m3(self):
        c = classify(XorGame.constant(1, m=3))
        assert c.s_aaa == 27 and c.total == 27

    def test_counts_always_total_m_cubed(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_game(rng, 3)
            assert classify(g).total == 27


class TestSignalling:
    def test_chsh_value(self):
        assert signalling_monogamy(XorGame.chsh()).value == F(5, 2)

    def test_input_copy_value(self):
        assert signalling_monogamy(XorGame.input_copy()).value == F(5, 2)

    def test_constant_value(self):
        assert signalling_monogamy(XorGame.constant(0)).value == 3

    def test_witness_scores_exactly_the_value(self):
        for game in all_binary_games():
            rep = signalling_monogamy(game)
            assert evaluate_behavior(game, rep.witness) == rep.value

    def test_brute_force_agrees_on_all_binary_games(self):
        for game in all_binary_games():
            assert brute_force_signalling(game).value == signalling_monogamy(game).value

    def test_brute_force_agrees_on_random_m3(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(25):
            game = random_game(rng, 3)
            b = brute_force_signalling(game)
            assert b.value == signalling_monogamy(game).value
            assert evaluate_behavior(game, b.witness) == b.value

    def test_all_frustrated_game_caps_at_two(self):
        game = XorGame.constant(1)
        rep = brute_force_signalling(game)
        assert rep.value == 2
        for xyz, abc in rep.witness.items():
            pat = game.pattern(*xyz)
            hits = (
                (abc[0] ^ abc[1] == pat[0])
                + (abc[1] ^ abc[2] == pat[1])
                + (abc[0] ^ abc[2] == pat[2])
            )
            assert hits == 2


class TestNoSignallingLp:
    def test_chsh_bound(self):
        rep = ns_monogamy_lp(XorGame.chsh())
        assert rep.value == F(3, 2)
        assert rep.theory == "no_signalling"

    def test_dual_certificate_re_verifies(self):
        game = XorGame.chsh()
        rep = ns_monogamy_lp(game)
        A, b, c, _ = build_ns_lp(game)
        assert verify_lp_certificate(A, b, c, rep.lp)

    def test_certificate_rejects_misshapen_rows(self):
        game = XorGame.chsh()
        rep = ns_monogamy_lp(game)
        A, b, c, _ = build_ns_lp(game)
        for bad in ([row[:-1] for row in A], [row + [F(1)] for row in A]):
            assert not verify_lp_certificate(bad, b, c, rep.lp)
        assert not verify_lp_certificate(A, b[:-1], c, rep.lp)

    def test_witness_is_ns_and_scores_the_value(self):
        game = XorGame.chsh()
        rep = ns_monogamy_lp(game)
        # Two-term objective, bystander averaged.
        assert evaluate_behavior(game, rep.witness, terms=("ab", "ac")) * 2 == \
            rep.value * 2
        for xyz in game.triples():
            row = rep.witness[xyz]
            assert sum(row.values()) == 1

    def test_classical_broadcast_attains_chsh_bound(self):
        game = XorGame.chsh()
        allzero = {xyz: (0, 0, 0) for xyz in game.triples()}
        attained = evaluate_behavior(game, allzero, terms=("ab", "ac"))
        assert attained == ns_monogamy_lp(game).value == F(3, 2)

    def test_single_term_reaches_one(self):
        rep = ns_monogamy_lp(XorGame.chsh(), terms=("ab",))
        assert rep.value == 1

    def test_relaxation_ordering(self):
        for game in list(all_binary_games())[:8]:
            ns = ns_monogamy_lp(game).value
            assert ns <= signalling_monogamy(game).value

    @pytest.mark.parametrize(
        "game, terms",
        [
            (XorGame.chsh(), ("ab", "ac")),
            (XorGame.constant(1), ("ab",)),
            (XorGame(3, ((0, 0, 0), (0, 1, 1), (0, 1, 0))), ("ab", "ac", "bc")),
        ],
    )
    def test_constraints_are_ints(self, game, terms):
        A, b, c, _ = build_ns_lp(game, terms)
        assert all(type(v) is int and v in (-1, 0, 1) for row in A for v in row)
        assert all(type(v) is int and v in (0, 1) for v in b)
        for v in c:
            assert v == 0 or (type(v) is Fraction and game.m**3 % v.denominator == 0)

    def test_three_input_game_matches_float_solver(self):
        from scipy.optimize import linprog

        game = XorGame(3, ((0, 0, 0), (0, 1, 1), (0, 1, 0)))
        rep = ns_monogamy_lp(game)
        A, b, c, _ = build_ns_lp(game)
        assert verify_lp_certificate(A, b, c, rep.lp)
        ref = linprog(
            [-float(v) for v in c],
            A_eq=[[float(v) for v in row] for row in A],
            b_eq=[float(v) for v in b],
            bounds=[(0, None)] * len(c),
            method="highs",
        )
        assert ref.status == 0
        assert abs(float(rep.value) + ref.fun) < 1e-9


class TestSpecificInput:
    def test_chsh_fixed_zero(self):
        rep = specific_input_value(XorGame.chsh(), (0, 0, 0))
        assert rep.value == 3
        assert evaluate_behavior(XorGame.chsh(), rep.witness, fixed_inputs=(0, 0, 0)) == 3

    def test_explicit_optimal_behavior(self):
        game = XorGame.chsh()
        behavior = {
            (0, 0, 0): (0, 0, 0),
            (0, 0, 1): (0, 0, 0),
            (0, 1, 0): (0, 0, 0),
            (0, 1, 1): (0, 0, 1),
            (1, 0, 0): (1, 1, 1),
            (1, 0, 1): (1, 1, 0),
            (1, 1, 0): (1, 0, 1),
            (1, 1, 1): (1, 1, 1),
        }
        assert evaluate_behavior(game, behavior, fixed_inputs=(0, 0, 0)) == 3

    def test_none_reduces_to_averaged_value(self):
        for game in list(all_binary_games())[:6]:
            assert specific_input_value(game, None).value == \
                signalling_monogamy(game).value

    def test_witness_scores_value_on_random_games(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(10):
            game = random_game(rng, 2)
            rep = specific_input_value(game, (1, 0, 1))
            assert evaluate_behavior(game, rep.witness, fixed_inputs=(1, 0, 1)) == rep.value

    def test_fixed_input_out_of_range(self):
        with pytest.raises(ValueError):
            specific_input_value(XorGame.chsh(), (0, 2, 0))

    @pytest.mark.parametrize(
        "fixed", [(0.5, 0, 0), (True, 0, 0), ("0", 0, 0), (0, 0), (0, 2, 0), [0, 0, 0]]
    )
    def test_pins_must_be_three_ints_in_range(self, fixed):
        # a float or bool pin used to be echoed in the detail, and 0.5
        # silently scored nothing for its term
        game = XorGame.chsh()
        with pytest.raises(ValueError, match="fixed input"):
            specific_input_value(game, fixed)
        behavior = {xyz: (0, 0, 0) for xyz in game.triples()}
        with pytest.raises(ValueError, match="fixed input"):
            evaluate_behavior(game, behavior, fixed_inputs=fixed)


def test_witness_is_first_output_triple_winning_most_terms():
    rng = random.Random("monogamy:witness")
    games = list(all_binary_games()) + [
        XorGame(m, [[rng.randrange(2) for _ in range(m)] for _ in range(m)])
        for m in (3, 4)
        for _ in range(10)
    ]
    outputs = list(itertools.product((0, 1), repeat=3))
    for game in games:
        pins = tuple(rng.randrange(game.m) for _ in range(3))
        for fixed in (None, pins):
            if fixed is None:
                rep = brute_force_signalling(game)
            else:
                rep = specific_input_value(game, fixed)
            total = 0
            for x, y, z in game.triples():
                u, v, w = game.pattern(x, y, z)
                ab, bc, ac = (True,) * 3 if fixed is None else (
                    z == fixed[2], x == fixed[0], y == fixed[1]
                )
                if not (ab or bc or ac):
                    assert (x, y, z) not in rep.witness
                    continue
                wins = [
                    (ab and a ^ b == u) + (bc and b ^ c == v) + (ac and a ^ c == w)
                    for a, b, c in outputs
                ]
                assert rep.witness[(x, y, z)] == outputs[wins.index(max(wins))]
                total += max(wins)
            assert rep.value == Fraction(total, game.m ** (3 if fixed is None else 2))


class TestConstraintRows:
    """The marginal-invariance rows are pinned byte for byte: the LP data
    and the triangle system feed the simplex and the entropic probe's
    projector, so a reordered row or a moved sign must show here."""

    def test_triangle_rows_pinned(self):
        A, b = _triangle_rows()
        assert A.shape == (80, 64) and b.shape == (80,)
        assert hashlib.sha256(A.tobytes()).hexdigest() == (
            "923ab21a547d5ad2447dbb445d92b80716791370cb5b85ea5895589de76379b6"
        )
        assert hashlib.sha256(b.tobytes()).hexdigest() == (
            "72833d2961c2685f2222bec133efdc5a4066f2ab5f86150af344223824e4e43b"
        )

    @pytest.mark.parametrize(
        "game, digest",
        [
            (
                XorGame.chsh(),
                "9941e3b036f2c95cc7dae6ccff328695fa47dec7f4d4a4b4d4a0c695ab5d991f",
            ),
            (
                XorGame(3, ((0, 0, 0), (0, 1, 1), (0, 1, 0))),
                "867350c329325815d0f6f944ab1a2fad6bb99e9d56a37043e03d5ff6ebef63cd",
            ),
        ],
    )
    def test_ns_lp_pinned(self, game, digest):
        data = repr(build_ns_lp(game)).encode()
        assert hashlib.sha256(data).hexdigest() == digest


class TestExactInformation:
    def test_correlated_bits(self):
        joint = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        assert mutual_information_bits_exact(joint) == 1

    def test_independent_bits(self):
        joint = {
            (m, n): F(1, 4) for m in (0, 1) for n in (0, 1)
        }
        assert mutual_information_bits_exact(joint) == 0

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            mutual_information_bits_exact({(0, 0): F(1, 3), (1, 1): F(2, 3)})

    def test_vertex_table_is_normalised(self):
        table = jamming_vertex_table()
        for xyz, row in table.items():
            assert sum(row.values()) == 1


def triangle_layout():
    pts = {
        "A": Event.at(0, 0, 0),
        "B": Event.at(0, 4, 0),
        "C": Event.at(0, 2, 3),
        "x": Event.at(0, 3, F(3, 2)),
        "y": Event.at(0, 1, F(3, 2)),
        "z": Event.at(0, 2, 0),
    }
    bits = Alphabet.binary()
    ins = tuple(Srv(n, bits, pts[n]) for n in ("x", "y", "z"))
    outs = tuple(Srv(n.lower(), bits, pts[n]) for n in ("A", "B", "C"))
    return ins, outs


class TestEntropicProbe:
    def test_probe_respects_bound(self):
        ins, outs = triangle_layout()
        rep = entropic_probe(
            M2, ins, outs, samples=300, seed=1, local_steps=25
        )
        assert isinstance(rep, EntropicProbeReport)
        assert rep.vertex_value == 1
        assert rep.uniform_value == 0
        assert rep.accepted > 0
        assert rep.max_sampled <= rep.bound
        assert rep.ok

    def test_probe_deterministic_given_seed(self):
        ins, outs = triangle_layout()
        a = entropic_probe(M2, ins, outs, samples=120, seed=9, local_steps=5)
        b = entropic_probe(M2, ins, outs, samples=120, seed=9, local_steps=5)
        assert a == b

    def test_bad_layout_rejected(self):
        ins, outs = triangle_layout()
        moved = (ins[0], ins[1], Srv("z", Alphabet.binary(), Event.at(0, 50, 0)))
        with pytest.raises(LayoutMismatch):
            entropic_probe(M2, moved, outs, samples=10, seed=0, local_steps=1)

    def test_non_binary_alphabets_rejected(self):
        ins, outs = triangle_layout()
        wide = (
            Srv("x", Alphabet.of(0, 1, 2), ins[0].location),
            ins[1],
            ins[2],
        )
        with pytest.raises(LayoutMismatch):
            entropic_probe(M2, wide, outs, samples=10, seed=0, local_steps=1)

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("samples", -3),
            ("samples", True),
            ("samples", 2.0),
            ("samples", "10"),
            ("seed", None),
            ("seed", -1),
            ("seed", False),
            ("seed", 1.5),
            ("local_steps", -1),
            ("local_steps", True),
            ("local_steps", None),
        ],
    )
    def test_bad_arguments_rejected(self, name, bad):
        ins, outs = triangle_layout()
        kwargs = dict(samples=10, seed=0, local_steps=1)
        kwargs[name] = bad
        with pytest.raises(ValueError, match=name) as excinfo:
            entropic_probe(M2, ins, outs, **kwargs)
        assert excinfo.type is ValueError

    def test_zero_samples_and_steps_allowed(self):
        ins, outs = triangle_layout()
        rep = entropic_probe(M2, ins, outs, samples=0, seed=0, local_steps=0)
        assert rep.samples == rep.accepted == 0
        assert rep.max_sampled == 1.0 and rep.ok

    def test_alphabets_checked_before_layout(self, monkeypatch):
        import causalbox.monogamy as monogamy

        def layout_check(*args):
            raise AssertionError("layout checked before the alphabets")

        monkeypatch.setattr(monogamy, "named_constraints", layout_check)
        ins, outs = triangle_layout()
        wide = (Srv("x", Alphabet.of(0, 1, 2), ins[0].location), ins[1], ins[2])
        with pytest.raises(LayoutMismatch, match="binary alphabets"):
            entropic_probe(M2, wide, outs, samples=10, seed=0, local_steps=1)
