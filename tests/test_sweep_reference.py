"""The integer Minkowski(d >= 2) sweep against the Fraction reference.

Every layout goes through `separated()` twice: with the integer
`_sweep`, and with `sweep_reference.sweep` patched in for it.  Verdict,
reason, detail and witness must agree exactly, and every witness must
re-verify against the raw relation.  The layouts are the seeded plane,
3+1 and 4+1 families of test_separation, the same shapes moved off the
integers by large pairwise-coprime denominators, and a 3+1 layout whose
witness lies on a cut with a denominator that no event has.  The golden
corpora are re-run with the reference sweep and must give their bytes.
"""

import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import causalbox.separation as separation
import sweep_reference
from causalbox.geometry import Event, Minkowski
from causalbox.rational import QuadExt
from causalbox.separation import separated, verify_separation_witness
from test_separation import null_layouts, plane_layouts, space_layouts

# Primes near 10^9: event i of a layout gets denominator PRIMES[i].
PRIMES = (999999937, 1000000007, 1000000009, 1000000021, 1000000033)


def reference(order, gather, avoid):
    saved = separation._sweep
    separation._sweep = sweep_reference.sweep
    try:
        return separated(order, gather, avoid)
    finally:
        separation._sweep = saved


def assert_matches(order, layouts):
    """Both sweeps on every layout; the reasons reached, counted."""
    reasons = {}
    for gather, avoid in layouts:
        got, want = separated(order, gather, avoid), reference(order, gather, avoid)
        assert got == want, (gather, avoid)
        assert repr(got.witness) == repr(want.witness)
        if got.is_separated:
            assert verify_separation_witness(order, gather, avoid, got.witness)
        reasons[got.reason] = reasons.get(got.reason, 0) + 1
    return reasons


def coprime(layouts, seed):
    """Each event of each layout moved by a few units of 1/PRIMES[i]."""
    rng = random.Random(seed)
    for gather, avoid in layouts:
        moved = [
            Event(
                t=e.t + Fraction(rng.randint(-3, 3), p),
                x=tuple(c + Fraction(rng.randint(-3, 3), p) for c in e.x),
            )
            for e, p in zip([*gather, *avoid], PRIMES)
        ]
        yield moved[: len(gather)], moved[len(gather) :]


def test_plane_layouts_match_reference():
    reasons = assert_matches(Minkowski(2), plane_layouts(240, seed=20240601))
    assert reasons["sweep"] >= 80 and reasons["cone_closure"] >= 40


def test_space_layouts_match_reference():
    reasons = assert_matches(Minkowski(3), space_layouts(300, seed=2025))
    assert reasons == {"sweep": 262, "blocked_by_strict_past": 25, "cone_closure": 13}
    reasons = assert_matches(Minkowski(3), null_layouts(40, seed=11))
    assert reasons["sweep"] >= 10 and reasons["cone_closure"] >= 1


def test_four_space_layouts_match_reference():
    reasons = assert_matches(Minkowski(4), space_layouts(6, seed=4, dim=4))
    assert reasons.get("sweep", 0) >= 3


@pytest.mark.parametrize("dim", [2, 3])
def test_coprime_denominators_match_reference(dim):
    layouts = plane_layouts(60, seed=5) if dim == 2 else space_layouts(40, seed=6)
    reasons = assert_matches(Minkowski(dim), coprime(layouts, seed=7))
    assert reasons["sweep"] >= 30 and reasons["cone_closure"] >= 2


def test_cut_with_a_new_denominator_matches_reference():
    # Integer events; the witness sits on the cut x1 = -733/1003, where
    # the events' offsets have denominator 1003^2.
    gather = [Event.at(1, 1, 1, 1), Event.at(2, -2, 3, -1)]
    avoid = [Event.at(2, -1, -1, -3), Event.at(1, 2, 3, -1)]
    assert_matches(Minkowski(3), [(gather, avoid)])
    res = separated(Minkowski(3), gather, avoid)
    assert res.reason == "sweep"
    assert res.witness.x[0] == Fraction(-733, 1003)


def test_roots_keep_the_rational_radicand_form():
    """A root's (a, b, R) is the reference's for the rational quadratic the
    int coefficients are a positive multiple of, in a rescaled variable:
    R is what the samples' bounds are read from."""
    rng = random.Random(5)
    for _ in range(500):
        c = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(3)]
        sn, sd = rng.randint(1, 9), rng.randint(1, 9)
        k = rng.randint(1, 5) * math.lcm(*(x.denominator for x in c))
        ints = (int(k * sn * sn * c[0]), int(k * sn * sd * c[1]), int(k * sd * sd * c[2]))
        got = [
            (Fraction(p * sn, m * sd), Fraction(q * sn, m * sd), r)
            for p, q, r, m in separation._roots(*ints, k * sn * sd)
        ]
        want = [(v.a, v.b, v.d) for v in sweep_reference._roots(*c)]
        assert got == want


def test_samples_match_reference_on_close_and_equal_values(monkeypatch):
    """Sorting, gap samples and end samples on values that tie in value
    under different radicands, and on twins closer than 2^-50, whose gap
    is read from bounds past 32 bits."""
    deep = []
    bound = separation._bound
    monkeypatch.setattr(
        separation, "_bound", lambda v, bits, upper: deep.append(bits > 32) or bound(v, bits, upper)
    )
    rng = random.Random(21)
    for _ in range(400):
        values = []
        for _ in range(rng.randint(1, 5)):
            r = rng.choice((2, 3, 8, 12, 50, 10**20 + 39))
            p, m = rng.randint(-10**7, 10**7), rng.randint(1, 10**6)
            q = rng.choice((0, rng.randint(-1000, 1000)))
            values.append((p, q, r, m))
            if rng.random() < 0.5:
                values.append(((p << 50) + rng.randint(-3, 3), q << 50, r, m << 50))
            if rng.random() < 0.3:
                values.append((2 * p, q, 4 * r, 2 * m))  # the same value
        got = separation._samples([separation._value(*v) for v in values])
        quads = [QuadExt(Fraction(p, m), Fraction(q, m), r) for p, q, r, m in values]
        assert [Fraction(n, d) for n, d in got] == sweep_reference._samples(quads)
    assert sum(deep) > 100


def _regen():
    spec = importlib.util.spec_from_file_location(
        "regen", Path(__file__).parent / "golden" / "regen.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGEN = _regen()
GOLDEN = [
    (corpus, name) for corpus in ("ons", "jam", "monogamy", "simulate")
    for name in sorted(REGEN.load_cases(corpus))
]


@pytest.mark.parametrize("corpus,name", GOLDEN)
def test_golden_case_with_reference_sweep(corpus, name, tmp_path, monkeypatch):
    monkeypatch.setattr(separation, "_sweep", sweep_reference.sweep)
    code, out = REGEN.run_case(corpus, REGEN.load_cases(corpus)[name], str(tmp_path))
    assert (code, out.encode("utf-8")) == REGEN.expected(corpus, name)
