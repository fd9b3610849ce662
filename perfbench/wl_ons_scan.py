"""ons_scan: correlation boxes pushed through the constraint pipeline.

One op is one box: validate_box, enumerate_constraints, check_instances;
a violating box then goes through exhaustive_protocol_search, and a
violating box on Minkowski space also through
loop_paradox_certificate(allow_reflection=True).

A pass holds PASS_DRAWS draws of every box class, each with a product
(clean) table and with a random one, and one box that ends UNKNOWN.  The
1+1 and finite classes come in an agents layout and a scatter layout,
freshly drawn for each draw.  The plane boxes come from fixed shapes,
each moved by a seeded translation and a symmetry of the square: those
maps keep every causal relation and the witness-search grid, so each
pass has the same plane witness-search work (including the
joint-avoidance shape that ends UNKNOWN) whatever the seed, while the
1+1 majority varies freely.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# The timed calls go through the package namespace, where the traced run
# replaces them.
import causalbox as cb
from causalbox import (
    Alphabet,
    CorrelationBox,
    Event,
    FiniteOrder,
    Minkowski,
    Srv,
    TerminatedDiagram,
    UndecidableScenario,
    marginalize,
)
from causalbox.protocol import LoopCertificate

from harness import Outcome

BITS = Alphabet.binary()
PASS_DRAWS = 6

# (backend, inputs, outputs) of the classes with fresh random layouts.
CLASSES = (
    ("minkowski1", 1, 2),
    ("minkowski1", 2, 2),
    ("minkowski1", 2, 3),
    ("minkowski1", 3, 2),
    ("minkowski1", 3, 3),
    ("minkowski1", 3, 4),
    ("minkowski1", 4, 4),
    ("terminated", 1, 2),
    ("terminated", 2, 3),
    ("terminated", 3, 3),
    ("terminated", 4, 3),
    ("terminated", 4, 4),
    ("finite", 1, 2),
    ("finite", 2, 2),
    ("finite", 3, 3),
    ("finite", 3, 4),
    ("finite", 4, 4),
)
STYLES = ("agents", "scatter")

# Minkowski(2) shapes as (t, x, y) points, inputs first.  Chosen from
# random layouts to span the plane engine's cost classes: exact verdicts
# with a quick witness and longer grid searches.
PLANE_SHAPES = (
    (1, (("1", "-2", "-3/2"), ("1", "1/2", "3/2"), ("1/2", "-1", "0"))),
    (1, (("3/2", "-2", "5/2"), ("2", "-1", "-3/2"), ("3/2", "3", "5/2"))),
    (2, (("2", "-3", "-1"), ("3/2", "2", "-3/2"), ("1", "0", "1"), ("1/2", "2", "-1/2"))),
    (1, (("1/2", "3/2", "-1/2"), ("2", "-3/2", "0"), ("1/2", "-1/2", "3"), ("1/2", "-2", "0"))),
    (
        2,
        (
            ("2", "1", "1/2"),
            ("1/2", "-2", "3/2"),
            ("1/2", "1", "-5/2"),
            ("1/2", "-2", "-3"),
            ("0", "1/2", "1/2"),
        ),
    ),
)
# A joint avoidance of two inputs that the grid search cannot settle:
# enumeration ends UNKNOWN before any table entry is read, so this shape
# runs once per pass.
UNDECIDED_SHAPE = (
    2,
    (("0", "0", "3/2"), ("1", "-3/2", "3"), ("0", "3", "3/2"), ("1", "-3", "3")),
)


@dataclass(frozen=True)
class BoxSpec:
    backend: str
    order: object
    inputs: tuple
    outputs: tuple
    table: dict
    pairing: dict
    table_kind: str

    @property
    def parties(self) -> str:
        return f"{len(self.inputs)}x{len(self.outputs)}"


def _rat(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice((1, 2, 4))
    return Fraction(rng.randrange(lo * den, hi * den + 1), den)


def _random_table(rng, inputs, outputs) -> dict:
    outcomes = list(itertools.product(*(s.alphabet.labels for s in outputs)))
    table = {}
    for x in itertools.product(*(s.alphabet.labels for s in inputs)):
        weights = [rng.randrange(8) for _ in outcomes]
        if not any(weights):
            weights[rng.randrange(len(weights))] = 1
        total = sum(weights)
        table[x] = {a: Fraction(w, total) for a, w in zip(outcomes, weights) if w}
    return table


def _product_table(rng, inputs, outputs) -> dict:
    # One setting-independent product row: satisfies every constraint.
    factors = []
    for s in outputs:
        weights = [rng.randrange(1, 8) for _ in s.alphabet.labels]
        total = sum(weights)
        factors.append({a: Fraction(w, total) for a, w in zip(s.alphabet.labels, weights)})
    row = {}
    for a in itertools.product(*(s.alphabet.labels for s in outputs)):
        p = Fraction(1)
        for value, factor in zip(a, factors):
            p *= factor[value]
        row[a] = p
    return {x: dict(row) for x in itertools.product(*(s.alphabet.labels for s in inputs))}


def _point_layout(rng, style, n_in, n_out, t_range):
    """1+1 points: agents (input i at t, output i one step later, paired)
    or a scatter; both reuse locations now and then."""
    if style == "agents":
        xs = [_rat(rng, -6, 6) for _ in range(max(n_in, n_out))]
        if rng.random() < 0.5:
            xs[-1] = xs[0]  # two parties share a location
        t0 = _rat(rng, *t_range)
        ins = [Event.at(t0, x) for x in xs[:n_in]]
        outs = [Event.at(t0 + 1, x) for x in xs[:n_out]]
        return ins, outs, {i: i for i in range(min(n_in, n_out))}
    pts: list[Event] = []
    for _ in range(n_in + n_out):
        if pts and rng.random() < 0.25:
            pts.append(rng.choice(pts))
        else:
            pts.append(Event.at(_rat(rng, *t_range), _rat(rng, -6, 6)))
    return pts[:n_in], pts[n_in:], {}


def _terminated_order(rng) -> TerminatedDiagram:
    # Vertex gaps of 5 and heights in [3, 5] keep every segment spacelike.
    xs = (-8, -3, 2, 7)
    return TerminatedDiagram([(x, _rat(rng, 3, 5)) for x in xs])


def _finite_layout(rng, style, n_in, n_out):
    k = n_in + n_out
    labels = [f"e{i}" for i in range(k)]
    relations = [
        (labels[i], labels[j]) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.3
    ]
    pairing = {}
    if style == "agents":
        # input i strictly before output i
        for i in range(min(n_in, n_out)):
            relations.append((labels[i], labels[n_in + i]))
            pairing[i] = i
    slots = list(labels)
    if style == "scatter" and rng.random() < 0.5:
        slots[-1] = slots[0]  # an output at an input's element
    order = FiniteOrder(relations, labels)
    events = [Event.named(s) for s in slots]
    return order, events[:n_in], events[n_in:], pairing


def _plane_layout(rng, shape):
    """A plane shape moved by a rational translation and a symmetry of
    the square (swap and sign flips of x and y)."""
    n_in, points = shape
    shift = (_rat(rng, -2, 2), _rat(rng, -4, 4), _rat(rng, -4, 4))
    swap = rng.random() < 0.5
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    events = []
    for t, x, y in points:
        t, x, y = Fraction(t), Fraction(x), Fraction(y)
        if swap:
            x, y = y, x
        events.append(Event.at(t + shift[0], sx * x + shift[1], sy * y + shift[2]))
    return events[:n_in], events[n_in:]


def _move_shape_ok(inst, n: int) -> bool:
    """The settings differ in exactly one coordinate of F or in all of F."""
    if len(inst.x) != n or len(inst.x_prime) != n:
        return False
    diff = {i for i in range(n) if inst.x[i] != inst.x_prime[i]}
    return bool(diff) and diff <= set(inst.F) and (len(diff) == 1 or diff == set(inst.F))


def _srvs(prefix, events):
    return tuple(Srv(f"{prefix}{i}", BITS, e) for i, e in enumerate(events))


class Workload:
    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"ons_scan:{seed}")
        self.ops = [spec for _ in range(PASS_DRAWS) for spec in self._draw(rng)]
        ins, outs = _plane_layout(rng, UNDECIDED_SHAPE)
        self.ops.append(self._spec(rng, "minkowski2", Minkowski(2), ins, outs, {}, "product"))
        rng.shuffle(self.ops)

    def _draw(self, rng: random.Random) -> list[BoxSpec]:
        specs = []
        for kind in ("product", "random"):
            for (backend, n_in, n_out), style in itertools.product(CLASSES, STYLES):
                pairing: dict = {}
                if backend == "minkowski1":
                    order = Minkowski(1)
                    ins, outs, pairing = _point_layout(rng, style, n_in, n_out, (-2, 2))
                elif backend == "terminated":
                    order = _terminated_order(rng)
                    ins, outs, pairing = _point_layout(rng, style, n_in, n_out, (-2, 1))
                else:
                    order, ins, outs, pairing = _finite_layout(rng, style, n_in, n_out)
                specs.append(self._spec(rng, backend, order, ins, outs, pairing, kind))
            for shape in PLANE_SHAPES:
                ins, outs = _plane_layout(rng, shape)
                specs.append(self._spec(rng, "minkowski2", Minkowski(2), ins, outs, {}, kind))
        return specs

    @staticmethod
    def _spec(rng, backend, order, ins, outs, pairing, kind) -> BoxSpec:
        inputs, outputs = _srvs("X", ins), _srvs("A", outs)
        make = _product_table if kind == "product" else _random_table
        return BoxSpec(backend, order, inputs, outputs, make(rng, inputs, outputs), pairing, kind)

    # -- op -------------------------------------------------------------

    def warmup_spec(self) -> BoxSpec:
        return next(s for s in self.ops if s.backend == "minkowski1")

    def label(self, spec: BoxSpec) -> str:
        return f"{spec.backend}/{spec.parties}/{spec.table_kind}"

    @staticmethod
    def _box(spec: BoxSpec) -> CorrelationBox:
        return CorrelationBox(spec.inputs, spec.outputs, spec.table, spec.pairing)

    def prepare(self, spec: BoxSpec):
        # A fresh box per op: boxes cache their marginals.
        return spec.order, self._box(spec)

    def run(self, args) -> Outcome:
        order, box = args
        report = cb.validate_box(box, order)
        detail = {"violating": False}
        if not report.ok:
            return Outcome("ok", ("invalid", report.issues), detail, None)
        try:
            instances = cb.enumerate_constraints(order, box)
        except UndecidableScenario as exc:
            return Outcome("undecided", ("undecided", len(exc.pending)), detail)
        violations = cb.check_instances(box, instances)
        protocol = loop = None
        if violations:
            detail["violating"] = True
            try:
                protocol = cb.exhaustive_protocol_search(order, box, instances)
                if isinstance(order, Minkowski):
                    loop = cb.loop_paradox_certificate(
                        order, box, violations[0], allow_reflection=True
                    )
            except UndecidableScenario:
                return Outcome(
                    "undecided", ("no_witness", len(instances), len(violations)), detail
                )
        summary = (
            len(instances),
            len(violations),
            None if protocol is None else (protocol.sender, protocol.G, protocol.total_variation),
            None if loop is None else type(loop).__name__,
        )
        return Outcome("ok", summary, detail, (instances, violations, protocol, loop))

    # -- correctness ---------------------------------------------------

    def check(self, spec: BoxSpec, args, outcome: Outcome) -> list[str]:
        order = spec.order
        if outcome.status == "undecided":
            if spec.backend != "minkowski2":
                return ["undecided on a backend whose engine is complete"]
            return []
        if outcome.payload is None:
            return [f"generated box failed validation: {outcome.summary[1][0]}"]
        instances, violations, protocol, loop = outcome.payload
        errors = []
        fresh = self._box(spec)  # no cached marginals: recompute independently
        groups: dict = {}
        for inst in instances:
            groups.setdefault((inst.F, inst.G), []).append(inst)
        n = len(spec.inputs)
        for (F, G), members in groups.items():
            # verify() re-checks the certificate (its witness against the
            # raw relation) and the move shape.  Members of one (F, G)
            # share the certificate, so the geometric part is checked
            # once and the move shape of every member separately.
            head = members[0]
            if not head.verify(order, fresh):
                errors.append(f"instance F={F} G={G} fails verify")
            if any(m.certificate is not head.certificate for m in members):
                errors.append(f"instances of F={F} G={G} carry different certificates")
            if not all(_move_shape_ok(m, n) for m in members):
                errors.append(f"an instance of F={F} G={G} has a malformed move")
        for v in violations:
            if not v.recompute(fresh):
                errors.append(f"violation F={v.instance.F} G={v.instance.G} fails recompute")
                break
        expected = 0
        for inst in instances:
            left = marginalize(fresh, inst.G, inst.x)
            right = marginalize(fresh, inst.G, inst.x_prime)
            expected += left != right
        if expected != len(violations):
            errors.append(f"{len(violations)} violations reported, {expected} recomputed")
        if (protocol is not None) != bool(violations):
            errors.append("protocol presence does not match violation presence")
        if protocol is not None and not protocol.total_variation > 0:
            errors.append("protocol has zero total variation")
        if isinstance(loop, LoopCertificate) and not loop.consistent:
            errors.append("loop certificate relations do not hold")
        if spec.table_kind == "product" and violations:
            errors.append("product table reported violating")
        return errors

    def finish(self, records) -> list[str]:
        return []

    def shares(self, records) -> dict:
        boxes = self.ops
        per_backend: dict = {}
        per_parties: dict = {}
        for s in boxes:
            per_backend[s.backend] = per_backend.get(s.backend, 0) + 1
            per_parties[s.parties] = per_parties.get(s.parties, 0) + 1
        n = len(boxes)
        violating = sum(rec.detail.get("violating", False) for rec in records)
        return {
            "boxes_per_pass": len(boxes),
            "backend_share": {k: v / n for k, v in sorted(per_backend.items())},
            "parties_share": {k: v / n for k, v in sorted(per_parties.items())},
            "violating_share": violating / len(records),
            "product_table_share": sum(s.table_kind == "product" for s in boxes) / n,
        }
