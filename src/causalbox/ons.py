"""Generation and checking of operational no-influence constraints.

A constraint instance demands that the marginal of some output set G is
identical at two input settings x, x' that differ only inside an input
set F, provided the geometry certifies that G's outputs can be gathered
while avoiding every input point of F.  Instances carry the geometric
certificate, so every reported violation can be re-verified from
scratch.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .boxes import (
    Alphabet,
    CorrelationBox,
    Srv,
    _check_outputs,
    _first_difference,
    _integer_row,
    _vectors,
    marginalize,
)
from .geometry import CausalOrder
from .separation import (
    SeparationResult,
    Verdict,
    _separated,
    separated,
    verify_separation_witness,
)


class UndecidableScenario(RuntimeError):
    """Separation could not be decided for at least one (F, G) pair.

    No separation engine leaves a pair undecided, so nothing in causalbox
    raises this; it stays importable for callers that catch it."""

    def __init__(self, message: str, pending: Sequence[tuple[tuple, tuple]]):
        super().__init__(message)
        self.pending = tuple(pending)


class LayoutMismatch(ValueError):
    """Point geometry contradicts what a named family presupposes."""


def _refuse_assignment(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to {name!r}: the record is frozen")


def _refuse_deletion(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete {name!r}: the record is frozen")


def _seal(cls) -> tuple:
    """Make every assignment and deletion on cls's instances raise
    FrozenInstanceError, and return the bound `__set__` of each field's
    slot member descriptor, in field order.

    The frozen `__setattr__` and `__delattr__` that `dataclass` generates
    name the class as it was before `slots=True` rebuilt it, so on a
    name that is not a field they fail with a TypeError from `super()`.

    A hand-written `__init__` stores through the returned setters: one C
    call per field, where the generated frozen `__init__` makes one
    `object.__setattr__` call per field."""
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class ConstraintInstance:
    """One checkable equality: P(a^G | x) = P(a^G | x')."""

    F: tuple[int, ...]
    G: tuple[int, ...]
    x: tuple[str, ...]
    x_prime: tuple[str, ...]
    certificate: SeparationResult

    def __init__(
        self,
        F: tuple[int, ...],
        G: tuple[int, ...],
        x: tuple[str, ...],
        x_prime: tuple[str, ...],
        certificate: SeparationResult,
    ) -> None:
        _set_F(self, F)
        _set_G(self, G)
        _set_x(self, x)
        _set_x_prime(self, x_prime)
        _set_certificate(self, certificate)

    def verify(self, order: CausalOrder, box: CorrelationBox) -> bool:
        """Re-establish both the move shape and the geometric licence."""
        n = len(box.inputs)
        if not (self.F and self.G):
            return False
        if len(self.x) != n or len(self.x_prime) != n:
            return False
        diff = [i for i in range(n) if self.x[i] != self.x_prime[i]]
        if not set(diff) <= set(self.F):
            return False
        if len(diff) != 1 and set(diff) != set(self.F):
            return False
        gather = [box.outputs[g].location for g in self.G]
        avoid = [box.inputs[f].location for f in self.F]
        witness = self.certificate.witness
        return witness is not None and verify_separation_witness(
            order, gather, avoid, witness
        )


_set_F, _set_G, _set_x, _set_x_prime, _set_certificate = _seal(ConstraintInstance)


@dataclass(frozen=True, slots=True, init=False)
class ViolationReport:
    """One violated instance, at the first outcome of G where the two
    marginals differ, with both probabilities."""

    instance: ConstraintInstance
    outcome: tuple[str, ...]
    p_x: Fraction
    p_x_prime: Fraction

    def __init__(
        self,
        instance: ConstraintInstance,
        outcome: tuple[str, ...],
        p_x: Fraction,
        p_x_prime: Fraction,
    ) -> None:
        _set_instance(self, instance)
        _set_outcome(self, outcome)
        _set_p_x(self, p_x)
        _set_p_x_prime(self, p_x_prime)

    @property
    def difference(self) -> Fraction:
        return self.p_x_prime - self.p_x

    def recompute(self, box: CorrelationBox) -> bool:
        """Confirm the two stored probabilities against the table; False
        when the outcome is not an outcome of G."""
        inst = self.instance
        left = marginalize(box, inst.G, inst.x)
        right = marginalize(box, inst.G, inst.x_prime)
        a = self.outcome
        return a in left and left[a] == self.p_x and right[a] == self.p_x_prime


_set_instance, _set_outcome, _set_p_x, _set_p_x_prime = _seal(ViolationReport)


@functools.lru_cache(maxsize=1024)
def _move_pairs(
    alphabets: tuple[Alphabet, ...], F: tuple[int, ...]
) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """Canonical move pairs for F over inputs with these alphabets: pairs
    of settings that agree outside F and differ in exactly one F
    coordinate or in every F coordinate, the lower setting first.

    Settings are built as tuples of alphabet positions, so plain tuple
    order is the canonical order, and labelled only at the end.  The
    table is shared by every caller with the same alphabets and F, so it
    is an immutable tuple.
    """
    sizes = [len(a) for a in alphabets]
    pairs = []
    for x in itertools.product(*map(range, sizes)):
        for f in F:
            pairs += ((x, (*x[:f], v, *x[f + 1 :])) for v in range(x[f] + 1, sizes[f]))
        if len(F) >= 2:
            # Every F coordinate changes; the two settings agree before
            # the first one, so it decides which is lower.
            ranges: list = [(v,) for v in x]
            for f in F:
                ranges[f] = [v for v in range(sizes[f]) if v != x[f]]
            ranges[F[0]] = range(x[F[0]] + 1, sizes[F[0]])
            pairs += ((x, y) for y in itertools.product(*ranges))
    labels = [a.labels for a in alphabets]
    return tuple(
        (tuple(map(getitem, labels, x)), tuple(map(getitem, labels, y)))
        for x, y in sorted(pairs)
    )


def enumerate_constraints(
    order: CausalOrder, box: CorrelationBox
) -> list[ConstraintInstance]:
    """All constraint instances this scenario generates, sorted by
    (F, G) and then by move pair.

    Nonempty (F, G) pairs are visited with G, then F, in order of size,
    so every sub-pair of a pair comes first.  A pair that contains a
    NOT_SEPARATED pair (F a superset of F0 and G of G0) is skipped
    without a separated() call: any witness for Separated(G; F) also
    witnesses every smaller G and F, so the pair is NOT_SEPARATED too.
    For each G the F masks of the NOT_SEPARATED pairs with G0 inside G
    are collected once, and grow as that G's own pairs are decided;
    each F is tested against that list only.  Every other pair is
    decided, and SEPARATED pairs emit instances.

    One call shares its geometric work across its pairs.  Each distinct
    location gets an integer id and is validated once, up front, in the
    order the pairs first meet them.  A pair's family is its distinct
    gathered ids and distinct avoided ids, each in order of first
    appearance; each family is decided once, and every pair with that
    family shares its result.  The decisions share one memo of the
    sweep's tie-set extrema, by common denominator and tie.  Each F's
    move table is looked up once.  Nothing outlives the call.
    """
    n_in = len(box.inputs)
    ids: dict = {}
    first = [*box.outputs[:1], *box.inputs, *box.outputs[1:]]
    first_ids = [ids.setdefault(s.location, len(ids)) for s in first]
    events = list(ids)
    for e in events:
        order.validate_event(e)
    # first leads with output 0 only when the box has an output.
    k = min(1, len(box.outputs))
    in_ids = first_ids[k : k + n_in]
    out_ids = first_ids[:k] + first_ids[k + n_in :]
    # Each F in visiting order, with its bit mask and its avoided ids.
    input_sets = [
        (F, sum(1 << f for f in F), tuple(dict.fromkeys([in_ids[f] for f in F])))
        for size_f in range(1, n_in + 1)
        for F in itertools.combinations(range(n_in), size_f)
    ]
    families: dict[tuple[tuple[int, ...], tuple[int, ...]], SeparationResult] = {}
    ties: dict = {}
    emitted: dict[tuple, SeparationResult] = {}
    # Bit masks (F, G) of the pairs found NOT_SEPARATED; only minimal
    # ones are ever added, because every other one is skipped.
    blocked: list[tuple[int, int]] = []
    for size_g in range(1, len(out_ids) + 1):
        for G in itertools.combinations(range(len(out_ids)), size_g):
            g_mask = sum(1 << g for g in G)
            gather = tuple(dict.fromkeys([out_ids[g] for g in G]))
            # The F masks of the blocked pairs whose G0 lies inside G;
            # only these can contain a pair (F, G).
            g_blocked = [f0 for f0, g0 in blocked if g0 & g_mask == g0]
            for F, f_mask, avoid in input_sets:
                if g_blocked and any(f0 & f_mask == f0 for f0 in g_blocked):
                    continue
                result = families.get((gather, avoid))
                if result is None:
                    result = families[gather, avoid] = _separated(
                        order,
                        [events[i] for i in gather],
                        [events[i] for i in avoid],
                        ties,
                    )
                if result.verdict is Verdict.NOT_SEPARATED:
                    blocked.append((f_mask, g_mask))
                    g_blocked.append(f_mask)
                    continue
                emitted[F, G] = result
    # Sorted by (F, G), the pairs of one F are adjacent, and each lists
    # its moves in _move_pairs' sorted order.
    alphabets = tuple(s.alphabet for s in box.inputs)
    instances: list[ConstraintInstance] = []
    moves_of = moves = None
    for F, G in sorted(emitted):
        if F != moves_of:
            moves_of, moves = F, _move_pairs(alphabets, F)
        result = emitted[F, G]
        instances += [ConstraintInstance(F, G, x, y, result) for x, y in moves]
    return instances


class _RowClasses(dict):
    """Each setting of one box -> its row's class, assigned on first use.

    A class is the set of the row's nonzero (outcome index, n) entries,
    one object per distinct set, so two settings hold the same
    distribution exactly when their classes are the same object.
    Reading a setting's class reads its integer row, which raises
    ValidationError for a key that is not an outcome of the box.
    """

    __slots__ = ("box", "distinct")

    def __init__(self, box: CorrelationBox):
        super().__init__()
        self.box = box
        self.distinct: dict[frozenset, frozenset] = {}

    def __missing__(self, x) -> frozenset:
        entries = frozenset(e for e in _integer_row(self.box, x) if e[1])
        cls = self[x] = self.distinct.setdefault(entries, entries)
        return cls


def _violations(
    box: CorrelationBox, instances: Iterable[ConstraintInstance]
) -> Iterator[ViolationReport]:
    """One report per violated instance, in the given order, each carrying
    the first differing outcome in canonical order.

    A move whose two settings share a row class (their rows agree on
    every nonzero entry) agrees on every marginal, so it yields nothing
    and reads no marginal vector.  Every other distinct (G, x, x') is
    decided once: its integer vectors over the box's common denominator
    are read from the box's vector table for G, taken at its first such
    move, so each distinct (G, x) vector is computed once, and its first
    difference is found once.  G itself is range-checked where the scan
    reaches it, so an output index out of range raises IndexError there
    even when no move reads its table.  Nothing is computed ahead of the
    report asked for.
    """
    classes = _RowClasses(box)
    # (G, x, x') -> its first difference, or None where the marginals
    # agree; the dict itself marks a move not yet decided.
    decided: dict = {}
    G = table = None
    for inst in instances:
        if inst.G != G:
            G, table = inst.G, None
            _check_outputs(box, G)
        x, y = inst.x, inst.x_prime
        if classes[x] is classes[y]:
            continue
        key = (G, x, y)
        diff = decided.get(key, decided)
        if diff is decided:
            if table is None:
                table = _vectors(box, G)
            left, right = table[x], table[y]
            diff = decided[key] = (
                None if left == right else _first_difference(box, table.outcomes, left, right)
            )
        if diff is not None:
            yield ViolationReport(inst, *diff)


def check_instances(
    box: CorrelationBox, instances: Sequence[ConstraintInstance]
) -> list[ViolationReport]:
    """Exact check of each instance; one report per violated instance,
    carrying the first differing outcome in canonical order."""
    return list(_violations(box, instances))


def check_ons(order: CausalOrder, box: CorrelationBox) -> list[ViolationReport]:
    return check_instances(box, enumerate_constraints(order, box))


# ----------------------------------------------------------------------
# named constraint families


@dataclass(frozen=True)
class FamilyLine:
    """One displayed equality of a named family, with its geometry facts."""

    label: str
    F: tuple[int, ...]
    G: tuple[int, ...]
    certificate: SeparationResult
    instances: tuple[ConstraintInstance, ...]


@dataclass(frozen=True)
class NamedFamily:
    family: str
    lines: tuple[FamilyLine, ...]

    def line(self, label: str) -> FamilyLine:
        for ln in self.lines:
            if ln.label == label:
                return ln
        raise KeyError(label)


def _require_separated(order, gather, avoid, what):
    res = separated(order, gather, avoid)
    if res.verdict is not Verdict.SEPARATED:
        raise LayoutMismatch(f"{what}: outputs are not separated from the inputs")
    return res

def _require_jammed(order, gather, avoid, what):
    res = separated(order, gather, avoid)
    if res.verdict is not Verdict.NOT_SEPARATED:
        raise LayoutMismatch(f"{what}: the jammer does not cover the outputs")


# The families named_constraints builds; the CLI offers these as choices.
FAMILIES = ("six_config_triangle", "compass")


def named_constraints(
    family: str,
    order: CausalOrder,
    inputs: Sequence[Srv],
    outputs: Sequence[Srv],
) -> NamedFamily:
    """Instantiate a named constraint family on concrete SRVs.

    six_config_triangle: three colocated-time agents read outputs a, b,
    c while a jammer input sits between each pair; six equalities.

    compass: two two-bit jammers and three readers on a line; five
    equalities.

    Raises KeyError for a family not in FAMILIES, and LayoutMismatch
    when the supplied points cannot support the family's presupposed
    separation pattern.
    """
    if family not in FAMILIES:
        raise KeyError(f"unknown constraint family {family!r}")
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    alphabets = tuple(s.alphabet for s in inputs)
    if family == "six_config_triangle":
        if len(inputs) != 3 or len(outputs) != 3:
            raise LayoutMismatch("triangle family needs 3 inputs and 3 outputs")
        # Input i sits opposite output i: it jams the other two readers.
        specs = [
            ("ab_setting_free", (0, 1), (0, 1), 2),
            ("ac_setting_free", (0, 2), (0, 2), 1),
            ("bc_setting_free", (1, 2), (1, 2), 0),
        ]
    else:
        if len(inputs) != 4 or len(outputs) != 3:
            raise LayoutMismatch("compass family needs 4 inputs and 3 outputs")
        if inputs[0].location != inputs[1].location:
            raise LayoutMismatch("compass: first jammer's two bits must be colocated")
        if inputs[2].location != inputs[3].location:
            raise LayoutMismatch("compass: second jammer's two bits must be colocated")
        points = [inputs[0].location, inputs[2].location] + [
            s.location for s in outputs
        ]
        for u, v in itertools.combinations(points, 2):
            if not order.spacelike(u, v):
                raise LayoutMismatch(
                    f"compass: {u!r} and {v!r} are not spacelike separated"
                )
        specs = [
            ("ab_setting_free", (2, 3), (0, 1), 0),
            ("bc_setting_free", (0, 1), (1, 2), 2),
        ]
    every_input = tuple(range(len(inputs)))
    specs += [(f"{c}_setting_free", every_input, (g,), None) for g, c in enumerate("abc")]

    lines = []
    for label, F, G, jammer in specs:
        gather = [outputs[g].location for g in G]
        cert = _require_separated(
            order, gather, [inputs[f].location for f in F], label
        )
        if jammer is not None:
            _require_jammed(order, gather, [inputs[jammer].location], f"{label} (jam)")
        insts = tuple(
            ConstraintInstance(F, G, x, y, cert) for x, y in _move_pairs(alphabets, F)
        )
        lines.append(FamilyLine(label, F, G, cert, insts))
    return NamedFamily(family, tuple(lines))

