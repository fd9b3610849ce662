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
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction
from operator import getitem

from .boxes import (
    CorrelationBox,
    Srv,
    _check_outputs,
    _first_difference,
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
    labels: tuple[tuple[str, ...], ...], F: tuple[int, ...]
) -> tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]:
    """Canonical move pairs for F over inputs with these label tuples:
    pairs of settings that agree outside F and differ in exactly one F
    coordinate or in every F coordinate, the lower setting first.

    Settings are built as tuples of alphabet positions, so plain tuple
    order is the canonical order, and labelled only at the end.  The
    memo is keyed by the inputs' label tuples, not by `Alphabet`
    records, whose generated `__hash__` runs in Python on every lookup.
    The table is shared by every caller with the same labels and F, so
    it is an immutable tuple.
    """
    sizes = [len(a) for a in labels]
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
    return tuple(
        (tuple(map(getitem, labels, x)), tuple(map(getitem, labels, y)))
        for x, y in sorted(pairs)
    )


def enumerate_constraints(
    order: CausalOrder, box: CorrelationBox
) -> Sequence[ConstraintInstance]:
    """All constraint instances this scenario generates, sorted by
    (F, G) and then by move pair, as a read-only sequence that builds
    each instance on first read (see `_Constraints`).

    Nonempty (F, G) pairs are visited with G, then F, in order of size,
    so every sub-pair of a pair comes first.  A pair that contains a
    NOT_SEPARATED pair (F a superset of F0 and G of G0) is skipped
    without a separated() call: any witness for Separated(G; F) also
    witnesses every smaller G and F, so the pair is NOT_SEPARATED too.
    Each G keeps one int bit set over F masks: bit f is set when F mask
    f contains the F0 of some NOT_SEPARATED pair with G0 inside G.  It
    starts as the OR of the sets of G's subsets one member smaller, all
    visited before G, and each NOT_SEPARATED pair of G ORs in the
    supersets of its F mask, one shift-OR per input outside it.  A
    skipped pair costs one shift and one mask.  Every other pair is
    decided, and SEPARATED pairs emit instances.

    One call shares its geometric work across its pairs.  Each distinct
    location gets an integer id and is validated once, up front, in the
    order the pairs first meet them.  A pair's family is its distinct
    gathered ids and distinct avoided ids, each in order of first
    appearance.  Each distinct avoided tuple gets a small int, which
    indexes the row of results kept for each distinct gathered tuple;
    each family is decided once, and every pair with that family shares
    its result.  The decisions share one memo of the sweep's tie-set
    extrema, by common denominator and tie.  Each F's move table is
    looked up once.  Nothing else outlives the call: the result holds
    one run per emitting (F, G), its certificate and F's move table.
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
    n_out = len(out_ids)
    # Each F in visiting order, with its bit mask and the number of its
    # avoided ids, numbered in order of first appearance.
    avoids: dict = {}
    input_sets = [
        (F, sum(1 << f for f in F), avoids.setdefault(avoid, len(avoids)))
        for size_f in range(1, n_in + 1)
        for F in itertools.combinations(range(n_in), size_f)
        for avoid in [tuple(dict.fromkeys([in_ids[f] for f in F]))]
    ]
    avoided = list(avoids)
    # families[gathered ids][avoided number]: the family's result.
    families: dict[tuple[int, ...], list] = {}
    ties: dict = {}
    emitted = []
    # pruned[g_mask]: G's bit set, with bit f_mask set when (F, G)
    # contains a NOT_SEPARATED pair.
    pruned = [0] * (1 << n_out)
    for size_g in range(1, n_out + 1):
        for G in itertools.combinations(range(n_out), size_g):
            g_mask = sum(1 << g for g in G)
            skip = 0
            for g in G:
                skip |= pruned[g_mask ^ 1 << g]
            gather = tuple(dict.fromkeys([out_ids[g] for g in G]))
            decided = families.setdefault(gather, [None] * len(avoided))
            for F, f_mask, a in input_sets:
                if skip >> f_mask & 1:
                    continue
                result = decided[a]
                if result is None:
                    result = decided[a] = _separated(
                        order,
                        [events[i] for i in gather],
                        [events[i] for i in avoided[a]],
                        ties,
                    )
                if result.verdict is Verdict.NOT_SEPARATED:
                    up = 1 << f_mask
                    for i in range(n_in):
                        if not f_mask >> i & 1:
                            up |= up << (1 << i)
                    skip |= up
                    continue
                emitted.append((F, G, result))
            pruned[g_mask] = skip
    # Sorted by (F, G), the pairs of one F are adjacent and share F's
    # move table, which lists the moves in sorted order.  No two pairs
    # are equal, so the sort never compares results.
    emitted.sort()
    labels = tuple(s.alphabet.labels for s in box.inputs)
    runs = []
    moves_of = moves = None
    for F, G, result in emitted:
        if F != moves_of:
            moves_of, moves = F, _move_pairs(labels, F)
        runs.append((F, G, result, moves))
    return _Constraints(runs)


class _BuiltOnRead(Sequence):
    """A read-only sequence that builds each member on first read and
    keeps it in its slot of `_items`, so every read of one index returns
    the same object; a subclass builds member i in `_member(i)`.

    Indexing, negative indices, slices (as lists) and IndexError behave
    as on a list, and it compares equal to a list, or to another such
    sequence, with equal members in the same order.  `.append`, `+` and
    `isinstance(..., list)` do not work on it.
    """

    __slots__ = ("_items",)
    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        at = range(len(self._items))[i]
        if type(at) is range:
            return [self._member(k) for k in at]
        return self._member(at)

    def __iter__(self):
        return map(self._member, range(len(self._items)))

    def __eq__(self, other):
        if isinstance(other, (list, _BuiltOnRead)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


class _Constraints(_BuiltOnRead):
    """The instances of one enumeration: one run (F, G, certificate,
    moves) per emitting (F, G), whose members are F's moves in order.
    Members of one F share one move table.  `_starts` holds each run's
    first index, then the length; a slot is None until it is read."""

    __slots__ = ("_runs", "_starts")

    def __init__(self, runs: list[tuple]):
        self._runs = runs
        self._starts = [0, *itertools.accumulate(len(run[3]) for run in runs)]
        self._items: list = [None] * self._starts[-1]

    def _member(self, i: int) -> ConstraintInstance:
        inst = self._items[i]
        if inst is None:
            r = bisect_right(self._starts, i) - 1
            F, G, certificate, moves = self._runs[r]
            x, y = moves[i - self._starts[r]]
            inst = self._items[i] = ConstraintInstance(F, G, x, y, certificate)
        return inst


class _Reports(_BuiltOnRead):
    """The reports of one check of `instances` on `box`.  A slot holds
    the index j of a violated instance until it is read, then that
    instance's report (see `_report`)."""

    __slots__ = ("_box", "_instances")

    def __init__(self, box: CorrelationBox, instances: Sequence, found: list[int]):
        self._box = box
        self._instances = instances
        self._items: list = found

    def _member(self, i: int) -> ViolationReport:
        rep = self._items[i]
        if type(rep) is int:
            rep = self._items[i] = _report(self._box, self._instances[rep])
        return rep


def _runs(
    instances: Iterable[ConstraintInstance],
) -> Iterator[tuple[int, tuple[int, ...], Sequence[tuple]]]:
    """(first index, G, moves) of each run of the instances: each
    maximal stretch of consecutive members with equal F and G and the
    same certificate object, with its members' (x, x') moves in order.
    An enumeration's runs are read as they are; any other iterable is
    grouped as it is read, each run's moves a fresh list."""
    if type(instances) is _Constraints:
        for start, (_, G, _, moves) in zip(instances._starts, instances._runs):
            yield start, G, moves
        return
    moves: list = []
    for j, inst in enumerate(instances):
        if not (
            moves
            and inst.F == head.F
            and inst.G == head.G
            and inst.certificate is head.certificate
        ):
            if moves:
                yield start, head.G, moves
            head, start, moves = inst, j, []
        moves.append((inst.x, inst.x_prime))
    if moves:
        yield start, head.G, moves


def _violations(
    box: CorrelationBox, instances: Iterable[ConstraintInstance]
) -> Iterator[int]:
    """The index of each violated instance, in the given order.

    The scan walks runs (see `_runs`).  Each run's G is range-checked
    first, so an output index out of range raises IndexError even when
    no move reads its table.  The live moves of a move list, those whose
    two settings have different row classes (the box's `_row_classes`),
    are listed once and reused while the next run holds the same list:
    every G of one enumerated F.  A move between equal rows agrees on
    every marginal, so it yields nothing and reads no vector, and a run
    with no live move costs no per-member work.  A live move compares
    its two integer vectors over the box's common denominator, read from
    the box's vector table for G, so each distinct (G, x) vector is
    computed once.  Nothing is computed past the run of the index asked
    for.
    """
    classes = box._row_classes
    moves_of = live = None
    for start, G, moves in _runs(instances):
        _check_outputs(box, G)
        if moves is not moves_of:
            moves_of = moves
            live = [k for k, (x, y) in enumerate(moves) if classes[x] is not classes[y]]
        if live:
            table = _vectors(box, G)
            for k in live:
                x, y = moves[k]
                if table[x] != table[y]:
                    yield start + k


def _report(box: CorrelationBox, inst: ConstraintInstance) -> ViolationReport:
    """The report of an instance whose two marginals differ, at the
    first outcome of G where they differ."""
    table = _vectors(box, inst.G)
    left, right = table[inst.x], table[inst.x_prime]
    return ViolationReport(inst, *_first_difference(box, table.outcomes, left, right))


def check_instances(
    box: CorrelationBox, instances: Iterable[ConstraintInstance]
) -> Sequence[ViolationReport]:
    """Exact check of each instance: one report per violated instance,
    in order, carrying the first differing outcome in canonical order.

    One scan (`_violations`) finds every violated instance; the result
    is a read-only sequence that builds each report on first read,
    around the caller's own `instances[j]` (an iterable that is not a
    sequence is read into a list first)."""
    if not isinstance(instances, Sequence):
        instances = list(instances)
    return _Reports(box, instances, list(_violations(box, instances)))


def check_ons(order: CausalOrder, box: CorrelationBox) -> Sequence[ViolationReport]:
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
    labels = tuple(s.alphabet.labels for s in inputs)
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
            ConstraintInstance(F, G, x, y, cert) for x, y in _move_pairs(labels, F)
        )
        lines.append(FamilyLine(label, F, G, cert, insts))
    return NamedFamily(family, tuple(lines))

