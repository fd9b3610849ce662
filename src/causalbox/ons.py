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
from dataclasses import dataclass
from fractions import Fraction
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .boxes import (
    Alphabet,
    CorrelationBox,
    Srv,
    _first_difference,
    _vectors,
    marginalize,
)
from .geometry import CausalOrder, Event
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


@dataclass(frozen=True, slots=True)
class ConstraintInstance:
    """One checkable equality: P(a^G | x) = P(a^G | x')."""

    F: tuple[int, ...]
    G: tuple[int, ...]
    x: tuple[str, ...]
    x_prime: tuple[str, ...]
    certificate: SeparationResult

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


@dataclass(frozen=True, slots=True)
class ViolationReport:
    instance: ConstraintInstance
    outcome: tuple[str, ...]
    p_x: Fraction
    p_x_prime: Fraction

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
    Every other pair is decided, and SEPARATED pairs emit instances.
    Each distinct location is validated once, up front, in the order the
    pairs first meet them.
    """
    n_in, n_out = len(box.inputs), len(box.outputs)
    first = [*box.outputs[:1], *box.inputs, *box.outputs[1:]]
    for e in dict.fromkeys(s.location for s in first):
        order.validate_event(e)
    emitted: dict[tuple, list[ConstraintInstance]] = {}
    # Bit masks (F, G) of the pairs found NOT_SEPARATED; only minimal
    # ones are ever added, because every other one is skipped.
    blocked: list[tuple[int, int]] = []
    alphabets = tuple(s.alphabet for s in box.inputs)
    avoids: dict[tuple[int, ...], list[Event]] = {}
    for size_g in range(1, n_out + 1):
        for G in itertools.combinations(range(n_out), size_g):
            g_mask = sum(1 << g for g in G)
            gather = list(dict.fromkeys(box.outputs[g].location for g in G))
            for size_f in range(1, n_in + 1):
                for F in itertools.combinations(range(n_in), size_f):
                    f_mask = sum(1 << f for f in F)
                    if any(
                        f0 & f_mask == f0 and g0 & g_mask == g0
                        for f0, g0 in blocked
                    ):
                        continue
                    if F not in avoids:
                        avoid = dict.fromkeys(box.inputs[f].location for f in F)
                        avoids[F] = list(avoid)
                    result = _separated(order, gather, avoids[F])
                    if result.verdict is Verdict.NOT_SEPARATED:
                        blocked.append((f_mask, g_mask))
                        continue
                    emitted[F, G] = [
                        ConstraintInstance(F, G, x, y, result)
                        for x, y in _move_pairs(alphabets, F)
                    ]
    # Each (F, G) already lists its moves in _move_pairs' sorted order.
    return [inst for key in sorted(emitted) for inst in emitted[key]]


def _violations(
    box: CorrelationBox, instances: Iterable[ConstraintInstance]
) -> Iterator[ViolationReport]:
    """One report per violated instance, in the given order, each carrying
    the first differing outcome in canonical order.

    Marginals are compared as integer vectors over the box's common
    denominator, read from the box's vector table for each output set
    G, so each distinct (G, x) vector is computed once; the first
    difference of each distinct violated (G, x, x') is found once.
    Nothing is computed ahead of the report asked for.
    """
    diffs: dict = {}
    G = table = None
    for inst in instances:
        if inst.G != G:
            G = inst.G
            table = _vectors(box, G)
        left, right = table[inst.x], table[inst.x_prime]
        if left != right:
            key = (G, inst.x, inst.x_prime)
            diff = diffs.get(key)
            if diff is None:
                diff = diffs[key] = _first_difference(box, G, left, right)
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

    def all_instances(self) -> list[ConstraintInstance]:
        return [inst for line in self.lines for inst in line.instances]

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

