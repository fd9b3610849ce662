"""The integer-vector ONS check and the memoised move-pair table against
the references.

Seeded boxes on all four backends go through `check_instances` and
`exhaustive_protocol_search` and through the reference code in
`ons_reference.py`; the reports and the protocol must agree exactly,
and `build_protocol` on the first report must give the searched
protocol.
Tables are products of per-output factors that read a random subset of
the inputs, so some moves keep a marginal and others change it, with
denominators 3, 7 and 10.  Two variants drop a setting from the table,
or add a negative entry and rows that do not sum to one.

The move-pair table must equal the label-sorting reference for seeded
alphabets of every size from 1 to 3, intervention alphabets among them,
and every F, and the memo must hand each box its own alphabets' table.
"""

import itertools
import random
from fractions import Fraction

import pytest

import ons_reference as ref
from causalbox.boxes import Alphabet, CorrelationBox, Srv
from causalbox.geometry import Event, FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.ons import _move_pairs, check_instances, enumerate_constraints
from causalbox.protocol import build_protocol, exhaustive_protocol_search

BACKENDS = ("minkowski1", "terminated", "finite", "minkowski2")
KINDS = ("factored", "missing_setting", "signed")
SEEDS = range(8)


def _layout(rng, backend, n_in, n_out):
    """(order, input events, output events): inputs at t = 0, outputs at
    t = 1 on the point backends, random relations on the finite one."""
    if backend == "finite":
        k = n_in + n_out
        names = [f"e{i}" for i in range(k)]
        relations = [
            (names[i], names[j])
            for i, j in itertools.combinations(range(k), 2)
            if rng.random() < 0.4
        ]
        events = [Event.named(n) for n in names]
        return FiniteOrder(relations, names), events[:n_in], events[n_in:]
    if backend == "minkowski2":
        order = Minkowski(2)
        point = lambda t: Event.at(t, rng.randint(-3, 3), rng.randint(-3, 3))
    else:
        order = Minkowski(1)
        if backend == "terminated":
            order = TerminatedDiagram([(-6, 3), (0, 4), (6, 3)])
        point = lambda t: Event.at(t, rng.randint(-4, 4))
    return order, [point(0) for _ in range(n_in)], [point(1) for _ in range(n_out)]


def _distribution(rng, size):
    """Random weights over `size` cells with denominator 3, 7 or 10."""
    d = rng.choice((3, 7, 10))
    cuts = sorted(rng.randint(0, d) for _ in range(size - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
    return [Fraction(w, d) for w in weights]


def _factored_table(rng, inputs, outputs):
    """Output k is drawn from a factor that reads the inputs in a random
    subset S_k; rows are the products, zero cells left out."""
    factors = []
    for out in outputs:
        reads = [i for i in range(len(inputs)) if rng.random() < 0.5]
        table = {}
        for sub in itertools.product(*(inputs[i].alphabet.labels for i in reads)):
            table[sub] = dict(
                zip(out.alphabet.labels, _distribution(rng, len(out.alphabet)))
            )
        factors.append((reads, table))
    rows = {}
    for x in itertools.product(*(s.alphabet.labels for s in inputs)):
        row = {}
        for a in itertools.product(*(s.alphabet.labels for s in outputs)):
            p = Fraction(1)
            for (reads, table), v in zip(factors, a):
                p *= table[tuple(x[i] for i in reads)][v]
            if p:
                row[a] = p
        rows[x] = row
    return rows


def seeded_box(backend, kind, seed):
    rng = random.Random(f"ons_reference:{backend}:{kind}:{seed}")
    n_in, n_out = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2), (3, 3)))
    order, ins, outs = _layout(rng, backend, n_in, n_out)
    # One output in three is ternary, so G's outcomes are mixed radix.
    alphabets = [
        Alphabet.of(0, 1, 2) if rng.random() < 0.3 else Alphabet.binary()
        for _ in range(n_out)
    ]
    inputs = tuple(Srv(f"X{i}", Alphabet.binary(), e) for i, e in enumerate(ins))
    outputs = tuple(
        Srv(f"A{i}", alpha, e) for i, (alpha, e) in enumerate(zip(alphabets, outs))
    )
    table = _factored_table(rng, inputs, outputs)
    settings = sorted(table)
    if kind == "missing_setting":
        del table[rng.choice(settings)]
    elif kind == "signed":
        # A negative entry, a row scaled off one, and a later outcome of
        # one row moved on its own: marginals that differ only past
        # their first outcome.
        x, y, z = (rng.choice(settings) for _ in range(3))
        outcomes = list(itertools.product(*(s.alphabet.labels for s in outputs)))
        table[x][rng.choice(outcomes)] = Fraction(-1, 10)
        table[y] = {a: p * Fraction(7, 10) for a, p in table[y].items()}
        late = rng.choice(outcomes[1:])
        table[z][late] = table[z].get(late, Fraction(0)) + Fraction(1, 7)
    return order, CorrelationBox(inputs, outputs, table)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_reports_and_protocol_match_reference(backend, kind):
    held = violated = 0
    for seed in SEEDS:
        order, box = seeded_box(backend, kind, seed)
        instances = enumerate_constraints(order, box)
        got = check_instances(box, instances)
        want = ref.check_instances(box, instances)
        assert len(got) == len(want), seed
        for g, w in zip(got, want):
            assert g.instance is w.instance
            assert g.outcome == w.outcome
            assert (g.p_x, g.p_x_prime) == (w.p_x, w.p_x_prime)
            assert type(g.p_x) is Fraction and type(g.p_x_prime) is Fraction
        proto = exhaustive_protocol_search(order, box, instances)
        expected = ref.protocol_search(box, instances)
        assert (proto is None) == (expected is None), seed
        if proto is not None:
            report, sender, x_a, x_b, dist_a, dist_b = expected
            assert (proto.sender, proto.setting_a, proto.setting_b) == (
                sender,
                x_a,
                x_b,
            )
            assert proto.G == report.instance.G
            assert proto.dist_a == dist_a and proto.dist_b == dist_b
        violated += len(want)
        held += len(instances) - len(want)
    # Both verdicts occur, so neither side can pass by saying one thing.
    assert violated and held


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_first_report_builds_the_searched_protocol(backend, kind):
    # The CLI builds its protocol from check_instances' first report
    # instead of scanning the instances a second time.
    built = 0
    for seed in SEEDS:
        order, box = seeded_box(backend, kind, seed)
        instances = enumerate_constraints(order, box)
        reports = check_instances(box, instances)
        searched = exhaustive_protocol_search(order, box, instances)
        if not reports:
            assert searched is None, seed
            continue
        assert build_protocol(order, box, reports[0]) == searched, seed
        built += 1
    assert built


def _alphabet(rng):
    """A plain alphabet of 1 to 3 labels whose string order is not their
    position order, or an intervention alphabet over 1 or 2 labels."""
    if rng.random() < 0.3:
        return Alphabet.interventions(Alphabet.of(*range(rng.randint(1, 2))))
    labels = ["10", "2", "1"][: rng.randint(1, 3)]
    rng.shuffle(labels)
    return Alphabet.of(*labels)


def test_move_pairs_match_reference():
    sizes, interventions = set(), 0
    for seed in range(40):
        rng = random.Random(f"move_pairs:{seed}")
        alphabets = tuple(_alphabet(rng) for _ in range(rng.randint(1, 4)))
        sizes.update(map(len, alphabets))
        interventions += any(a.is_intervention for a in alphabets)
        inputs = tuple(
            Srv(f"X{i}", a, Event.at(0, i)) for i, a in enumerate(alphabets)
        )
        n = len(alphabets)
        for F in itertools.chain.from_iterable(
            itertools.combinations(range(n), k) for k in range(1, n + 1)
        ):
            got = _move_pairs(alphabets, F)
            assert type(got) is tuple
            assert list(got) == ref.move_pairs(inputs, F), (seed, F)
    assert sizes == {1, 2, 3} and interventions


def _one_party_box(alphabet):
    """Two inputs with the given alphabet, spacelike to one output."""
    ins = tuple(Srv(f"X{i}", alphabet, Event.at(0, 4 + 2 * i)) for i in range(2))
    outs = (Srv("A", Alphabet.binary(), Event.at(0, 0)),)
    table = {x: {} for x in itertools.product(alphabet.labels, repeat=2)}
    return CorrelationBox(ins, outs, table)


def test_move_pair_memo_keeps_each_boxs_alphabets():
    # The ternary and intervention alphabets have the same size, so a
    # table keyed by sizes would hand one box the other's labels.
    alphabets = (
        Alphabet.binary(),
        Alphabet.of(0, 1, 2),
        Alphabet.interventions(Alphabet.binary()),
    )
    boxes = [_one_party_box(a) for a in alphabets]
    order = Minkowski(1)
    cold = []
    for box in boxes:
        _move_pairs.cache_clear()
        cold.append(enumerate_constraints(order, box))
    _move_pairs.cache_clear()
    warm = [enumerate_constraints(order, box) for box in boxes]
    again = [enumerate_constraints(order, box) for box in reversed(boxes)][::-1]
    assert cold == warm == again
    for alpha, instances in zip(alphabets, cold):
        assert instances and {
            v for inst in instances for v in (*inst.x, *inst.x_prime)
        } == set(alpha.labels)
    # F = (0,), (1,) and (0, 1) for each of the three alphabets.
    assert _move_pairs.cache_info().currsize == 9
    table = _move_pairs(alphabets[1:3], (0, 1))
    with pytest.raises(TypeError):
        table[0] = table[1]  # type: ignore[index]
    with pytest.raises(AttributeError):
        table.append(table[0])  # type: ignore[attr-defined]
    with pytest.raises(TypeError):
        table[0][0] = table[0][1]  # type: ignore[index]
    assert _move_pairs(alphabets[1:3], (0, 1)) is table
