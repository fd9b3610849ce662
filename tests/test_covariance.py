"""Poincaré covariance of the ONS pipeline.

A Poincaré map that keeps the time orientation preserves the causal
order of Minkowski space.  Moving every point of a scenario by one must
therefore leave every constraint instance, every violation and the
protocol's sender, G and total variation unchanged.  Only the witnesses
move, and each moved witness must re-verify against the moved points.
Boxes are moved through their scenario documents: `box_to_json`, every
point mapped by a `PoincareMap`, and the document loaded back.

The maps are seeded: a boost along a random axis, a spatial reflection
half the time, a rotation in the (x, y) plane where there is one, and a
translation.  They move seeded 1+1 and 2+1 layouts, some of whose
points lie on each other's light cones, and every Minkowski scenario of
the golden ONS corpus.  A terminated diagram is moved by x -> -x, with
its boundary reflected too.  Time reversal is not a symmetry of the
constraints, and one layout pins a verdict that t -> -t changes, so the
comparison cannot pass by seeing nothing.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from causalbox.boxes import Alphabet, CorrelationBox, Srv
from causalbox.geometry import Event, Minkowski, TerminatedDiagram
from causalbox.ons import check_instances, enumerate_constraints, named_constraints
from causalbox.poincare import PoincareMap
from causalbox.protocol import exhaustive_protocol_search
from causalbox.scenario import (
    box_from_json,
    box_to_json,
    event_to_json,
    load_scenario,
    order_to_json,
    preset,
)
from causalbox.separation import Verdict, separated, verify_separation_witness
from test_ons_reference import _factored_table

GOLDEN = Path(__file__).parent / "golden" / "ons"


def _rat(rng, lo, hi):
    den = rng.choice((1, 2, 3))
    return Fraction(rng.randint(lo * den, hi * den), den)


def _poincare(rng, dim):
    """A seeded orthochronous Poincaré map of Minkowski(dim), and whether
    it reflects."""
    k = Fraction(1)
    while k == 1:
        k = Fraction(rng.randint(1, 20), rng.randint(1, 7))
    move = PoincareMap.boost(dim, k, axis=rng.randrange(dim))
    reflects = rng.random() < 0.5
    if reflects:
        move = PoincareMap.spatial_reflection(dim, rng.randrange(dim)).compose(move)
    if dim >= 2:
        m = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        move = PoincareMap.rotation(dim, m, (0, 1)).compose(move)
    shift = PoincareMap.translation_map(
        _rat(rng, -3, 3), [_rat(rng, -3, 3) for _ in range(dim)]
    )
    move = shift.compose(move)
    assert move.is_orthochronous
    return move, reflects


def _moved(order, box, move, backend=None):
    """The scenario with every point mapped by move, through its document;
    backend replaces the document's backend when given."""
    doc = box_to_json(order, box)
    srvs = (*box.inputs, *box.outputs)
    for entry, srv in zip((*doc["inputs"], *doc["outputs"]), srvs):
        entry["point"] = event_to_json(move(srv.location))
    if backend is not None:
        doc["backend"] = order_to_json(backend)
    return box_from_json(doc)


def _pipeline(order, box):
    """What a Poincaré map must keep, and the instances."""
    instances = enumerate_constraints(order, box)
    violations = check_instances(box, instances)
    protocol = exhaustive_protocol_search(order, box, instances)
    kept = (
        [(i.F, i.G, i.x, i.x_prime, i.certificate.verdict) for i in instances],
        [
            (v.instance.F, v.instance.G, v.instance.x, v.instance.x_prime)
            + (v.outcome, v.p_x, v.p_x_prime)
            for v in violations
        ],
        None if protocol is None else (protocol.sender, protocol.G, protocol.total_variation),
    )
    return kept, instances


def _assert_covariant(order, box, moved_order, moved_box):
    """The moved scenario keeps everything, and each of its (F, G)
    certificates re-verifies; the number of violations."""
    before, _ = _pipeline(order, box)
    after, instances = _pipeline(moved_order, moved_box)
    assert after == before
    for inst in {(i.F, i.G): i for i in instances}.values():
        assert inst.verify(moved_order, moved_box)
    return len(before[1])


def _layout_box(rng, order, point, n_in, n_out):
    """n_in binary inputs and n_out outputs, one in three ternary, at
    seeded points; a point now and then on an earlier point's light cone
    or on the point itself.  The table is a seeded factored one."""
    points = []
    for _ in range(n_in + n_out):
        roll = rng.random()
        if points and roll < 0.15:
            points.append(rng.choice(points))
        elif points and roll < 0.4:
            base = rng.choice(points)
            step = _rat(rng, -2, 2)
            direction = [0] * (len(base.x))
            direction[rng.randrange(len(direction))] = rng.choice((1, -1))
            x = (c + step * d for c, d in zip(base.x, direction))
            points.append(Event.at(base.t + abs(step), *x))
        else:
            points.append(point())
    inputs = tuple(Srv(f"X{i}", Alphabet.binary(), e) for i, e in enumerate(points[:n_in]))
    alphabets = [Alphabet.of(0, 1, 2), Alphabet.binary(), Alphabet.binary()]
    outputs = tuple(
        Srv(f"A{i}", rng.choice(alphabets), e) for i, e in enumerate(points[n_in:])
    )
    return CorrelationBox(inputs, outputs, _factored_table(rng, inputs, outputs))


def _minkowski_layout(seed, dim):
    rng = random.Random(f"covariance:{dim}:{seed}")
    n_in, n_out = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2)))
    point = lambda: Event.at(_rat(rng, 0, 2), *(_rat(rng, -4, 4) for _ in range(dim)))
    order = Minkowski(dim)
    return rng, order, _layout_box(rng, order, point, n_in, n_out)


@pytest.mark.parametrize("dim, layouts", [(1, 48), (2, 32)])
def test_seeded_layouts_are_covariant(dim, layouts):
    violated = reflected = 0
    for seed in range(layouts):
        rng, order, box = _minkowski_layout(seed, dim)
        move, reflects = _poincare(rng, dim)
        moved_order, moved_box = _moved(order, box, move.apply)
        violated += _assert_covariant(order, box, moved_order, moved_box) > 0
        reflected += reflects
    # Both outcomes of the check, and both kinds of map, occur.
    assert 0 < violated < layouts and 0 < reflected < layouts


def _golden_scenarios():
    """Every scenario of the golden ONS corpus, each on Minkowski space."""
    cases = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
    scenarios = {}
    for args in cases.values():
        kind, source = args[1], args[2]
        if kind == "--preset":
            scenarios[source] = preset(source)
        else:
            scenarios[source] = load_scenario((GOLDEN / source).read_text(encoding="utf-8"))
    return scenarios


GOLDEN_SCENARIOS = _golden_scenarios()


def _line_keys(line):
    moves = [(i.x, i.x_prime) for i in line.instances]
    return line.label, line.F, line.G, line.certificate.verdict, moves


@pytest.mark.parametrize("name", sorted(GOLDEN_SCENARIOS))
def test_golden_scenarios_are_covariant(name):
    scen = GOLDEN_SCENARIOS[name]
    assert isinstance(scen.order, Minkowski)
    dim = scen.order.dim
    rng = random.Random(f"covariance:golden:{name}")
    for _ in range(3):
        move, _ = _poincare(rng, dim)
        if scen.box is not None:
            _assert_covariant(scen.order, scen.box, *_moved(scen.order, scen.box, move.apply))
            continue
        # A layout preset: its named family must keep every line.
        order, box = _moved(
            scen.order, CorrelationBox(scen.inputs, scen.outputs, {}), move.apply
        )
        before = named_constraints(scen.family, scen.order, scen.inputs, scen.outputs)
        after = named_constraints(scen.family, order, box.inputs, box.outputs)
        assert list(map(_line_keys, after.lines)) == list(map(_line_keys, before.lines))
        for ln in after.lines:
            assert verify_separation_witness(
                order,
                [box.outputs[g].location for g in ln.G],
                [box.inputs[f].location for f in ln.F],
                ln.certificate.witness,
            )


def test_terminated_diagram_is_covariant_under_spatial_reflection():
    reflect = PoincareMap.spatial_reflection(1).apply
    violated = 0
    for seed in range(24):
        rng = random.Random(f"covariance:terminated:{seed}")
        # Vertex gaps of 5 and heights in [3, 5] keep every segment spacelike.
        vertices = [(x, _rat(rng, 3, 5)) for x in (-8, -3, 2, 7)]
        order = TerminatedDiagram(vertices)
        mirror = TerminatedDiagram([(-x, s) for x, s in reversed(vertices)])
        n_in, n_out = rng.choice(((1, 2), (2, 2), (2, 3), (3, 2)))
        point = lambda: Event.at(_rat(rng, -2, 2), _rat(rng, -6, 6))
        box = _layout_box(rng, order, point, n_in, n_out)
        if not all(order.in_domain(s.location) for s in (*box.inputs, *box.outputs)):
            continue
        moved_order, moved_box = _moved(order, box, reflect, backend=mirror)
        violated += _assert_covariant(order, box, moved_order, moved_box) > 0
    assert violated


def test_time_reversal_changes_a_verdict():
    # In the Bell layout A lies in X's future, so no point gathers A
    # while avoiding X.  Reversed in time, A lies in X's past and gathers
    # at itself: the pair (X; A) becomes separated and emits instances.
    scen = preset("bell_standard")
    reverse = PoincareMap(((-1, 0), (0, 1)), (0, 0))
    order, box = _moved(scen.order, scen.box, reverse.apply)
    for o, b, verdict in (
        (scen.order, scen.box, Verdict.NOT_SEPARATED),
        (order, box, Verdict.SEPARATED),
    ):
        assert separated(o, [b.outputs[0].location], [b.inputs[0].location]).verdict is verdict
    before, _ = _pipeline(scen.order, scen.box)
    after, _ = _pipeline(order, box)
    assert {(f, g) for f, g, *_ in after[0]} - {(f, g) for f, g, *_ in before[0]} >= {((0,), (0,))}
    with pytest.raises(AssertionError):
        _assert_covariant(scen.order, scen.box, order, box)
