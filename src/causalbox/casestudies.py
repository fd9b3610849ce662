"""Three-output causal mechanisms and the embeddings that stress them.

Builds the pad, jamming and loop mechanisms over outputs (A, B, C) as
chained intervention boxes, reports which forcing sets move which
marginals, and runs two embedding studies on the loop table: a collapsed
layout where the constraint checker extracts a working signalling
protocol, and a relocated layout where the identical table passes every
generated constraint.  A final exact symbolic derivation shows that two
switchable jammers sharing output B cannot coexist with the constraint
family of the two-jammer compass layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxes import (
    IDLE,
    MODELS,
    Alphabet,
    CorrelationBox,
    InterventionExtension,
    Srv,
    do_label,
    extend_with_intervention,
    marginalize,
    undo_label,
)
from .geometry import CausalOrder, Event, Minkowski
from .ons import (
    ConstraintInstance,
    LayoutMismatch,
    ViolationReport,
    check_instances,
    check_ons,
    enumerate_constraints,
    named_constraints,
)
from .protocol import SignallingProtocol, build_protocol
from .rational import format_rational, parse_rational
from .separation import SeparationResult, Verdict, separated

_BITS = Alphabet.binary()


# ----------------------------------------------------------------------
# structural mechanisms


@dataclass(frozen=True)
class CausalMechanism:
    """Structural assignments for one of the stock three-output models.

    A pattern is a triple over {None, 0, 1}: None leaves the variable to
    its assignment, a bit pins it.  The pad model draws A and C from
    independent fair coins and sets B to their parity; the jamming model
    draws a hidden coin copied into A and adds it to B (itself a free
    coin) to produce C.  The loop model has no free-running structure of
    its own and is evaluated only through the acyclic structure left
    after the pattern is applied: forcing B selects the jamming
    assignments, otherwise the pad runs.
    """

    name: str

    def __post_init__(self):
        if self.name not in MODELS:
            raise ValueError(f"unknown mechanism {self.name!r}")

    def effective(self, pattern: Sequence[int | None]) -> str:
        if self.name != "loop":
            return self.name
        return "jam" if pattern[1] is not None else "otp"

    def row(self, pattern: Sequence[int | None]) -> dict[tuple[str, str, str], Fraction]:
        pattern = tuple(pattern)
        if len(pattern) != 3 or any(v not in (None, 0, 1) for v in pattern):
            raise ValueError(f"bad intervention pattern {pattern!r}")
        kind = self.effective(pattern)
        out: dict[tuple[str, str, str], Fraction] = {}
        for u, v in itertools.product((0, 1), repeat=2):
            if kind == "otp":
                # u pads A and v pads C; B copies their parity.
                a = u if pattern[0] is None else pattern[0]
                c = v if pattern[2] is None else pattern[2]
                b = a ^ c if pattern[1] is None else pattern[1]
            else:
                # u is the shared hidden bit, v is B's own coin; C adds
                # the hidden bit to whatever B came out as.
                a = u if pattern[0] is None else pattern[0]
                b = v if pattern[1] is None else pattern[1]
                c = b ^ u if pattern[2] is None else pattern[2]
            key = (str(a), str(b), str(c))
            out[key] = out.get(key, Fraction(0)) + Fraction(1, 4)
        return out


# ----------------------------------------------------------------------
# layouts


@dataclass(frozen=True)
class LoopLayout:
    """Six events hosting the model: forcings at p, outputs at q."""

    order: CausalOrder
    p: tuple[Event, Event, Event]
    q: tuple[Event, Event, Event]


def degenerate_layout() -> LoopLayout:
    """All six points collapsed onto one event.

    Forcing and readout happen at the same place, so every output tuple
    gathers right there while no forcing point strictly precedes it; the
    checker generates every constraint the scenario can express.
    """
    omega = Event.at(0, 0)
    return LoopLayout(Minkowski(1), (omega,) * 3, (omega,) * 3)


def fig5_layout() -> LoopLayout:
    """Relocated embedding where the loop table is unexceptional.

    Each forcing strictly precedes its own output, B's output sits deep
    enough in the future to be reachable from both outer forcings, and
    any point gathering the outer outputs also lies above the middle
    forcing.
    """
    order = Minkowski(1)
    p = (Event.at(0, -2), Event.at(0, 0), Event.at(0, 2))
    q = (Event.at(1, -2), Event.at(3, 0), Event.at(1, 2))
    return LoopLayout(order, p, q)


# ----------------------------------------------------------------------
# model assembly


def _as_pattern(labels: Sequence[str]) -> tuple[int | None, ...]:
    pattern: list[int | None] = []
    for lab in labels:
        if lab == IDLE:
            pattern.append(None)
            continue
        value = undo_label(lab)
        if value is None:
            raise ValueError(f"not an intervention label: {lab!r}")
        pattern.append(int(value))
    return tuple(pattern)


def build_model(which: str = "loop", layout: LoopLayout | None = None) -> InterventionExtension:
    """Assemble a mechanism as a chain of intervention extensions.

    The returned extension's box carries inputs (I_A, I_B, I_C), one per
    output and in that order, and the mechanism's exact table on all 27
    settings.  The chained table is re-checked against direct evaluation
    of the structural assignments before returning.
    """
    mech = CausalMechanism(which)
    layout = layout if layout is not None else degenerate_layout()
    outputs = tuple(Srv(n, _BITS, layout.q[i]) for i, n in enumerate("ABC"))
    box = CorrelationBox(
        inputs=(), outputs=outputs, table={(): mech.row((None, None, None))}
    )
    ext: InterventionExtension | None = None
    for j in range(3):
        post: dict = {}
        for x in box.settings():
            prefix = _as_pattern(x)
            for forced in ("0", "1"):
                pattern = (*prefix, int(forced), *(None,) * (2 - j))
                dist: dict[tuple[str, ...], Fraction] = {}
                for key, prob in mech.row(pattern).items():
                    rest = tuple(v for k, v in enumerate(key) if k != j)
                    dist[rest] = dist.get(rest, Fraction(0)) + prob
                post[(forced, x)] = dist
        ext = extend_with_intervention(layout.order, box, j, layout.p[j], post)
        box = ext.box
    assert ext is not None
    for x in box.settings():
        if box.row(x) != mech.row(_as_pattern(x)):
            raise AssertionError(f"extension chain diverged from the mechanism at {x}")
    return ext


# ----------------------------------------------------------------------
# influence report


@dataclass(frozen=True)
class AffectsRelation:
    """Whether forcing the sources moves the targets' joint marginal."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]
    affects: bool
    witness: tuple[str, ...] | None


@dataclass(frozen=True)
class AffectsReport:
    relations: tuple[AffectsRelation, ...]

    def lookup(self, sources: Sequence[str], targets: Sequence[str]) -> AffectsRelation:
        want = (tuple(sources), tuple(targets))
        for r in self.relations:
            if (r.sources, r.targets) == want:
                return r
        raise KeyError(want)


def _forced_output(box: CorrelationBox, i: int) -> int:
    srv = box.inputs[i]
    if not srv.alphabet.is_intervention or not srv.name.startswith("I_"):
        raise ValueError(f"input {srv.name!r} is not an intervention input")
    return box.output_index(srv.name[2:])


def affects_relations(box: CorrelationBox) -> AffectsReport:
    """Exact influence report for a box of intervention inputs.

    For every nonempty forcing set S and every nonempty output set T
    disjoint from S's targets, compares T's marginal on each setting
    that forces exactly S against the all-idle row.  The first moved
    setting, in canonical label order, is kept as the witness.
    """
    targets_of = [_forced_output(box, i) for i in range(len(box.inputs))]
    n_in, n_out = len(box.inputs), len(box.outputs)
    idle = (IDLE,) * n_in
    relations: list[AffectsRelation] = []
    for size_s in range(1, n_in + 1):
        for S in itertools.combinations(range(n_in), size_s):
            forced = {targets_of[i] for i in S}
            spare = [g for g in range(n_out) if g not in forced]
            choices = [
                [do_label(v) for v in box.inputs[i].alphabet.target.labels]
                if i in S
                else [IDLE]
                for i in range(n_in)
            ]
            settings = list(itertools.product(*choices))
            for size_t in range(1, len(spare) + 1):
                for T in itertools.combinations(spare, size_t):
                    base = marginalize(box, T, idle)
                    witness = None
                    for x in settings:
                        if marginalize(box, T, x) != base:
                            witness = x
                            break
                    relations.append(
                        AffectsRelation(
                            sources=tuple(box.outputs[targets_of[i]].name for i in S),
                            targets=tuple(box.outputs[g].name for g in T),
                            affects=witness is not None,
                            witness=witness,
                        )
                    )
    return AffectsReport(tuple(relations))


# ----------------------------------------------------------------------
# embedding study 1: the collapsed layout leaks


@dataclass(frozen=True)
class DegenerateReport:
    """The checker's findings on the collapsed loop model."""

    model: InterventionExtension
    violations: tuple[ViolationReport, ...]
    featured: ViolationReport
    separation: SeparationResult
    protocol: SignallingProtocol

    @property
    def total_variation(self) -> Fraction:
        return self.protocol.total_variation


def degenerate_embedding_check(layout: LoopLayout | None = None) -> DegenerateReport:
    """Check the loop model on the collapsed layout and package the leak.

    The featured finding is the middle output's marginal moving between
    the all-idle setting and the setting forcing both outer outputs to
    zero, together with the geometric fact that the outer outputs gather
    at a point the middle forcing cannot reach, and the signalling
    protocol assembled from the pair.
    """
    layout = layout if layout is not None else degenerate_layout()
    order = layout.order
    sep = separated(order, (layout.q[0], layout.q[2]), (layout.p[1],))
    if sep.verdict is not Verdict.SEPARATED:
        raise LayoutMismatch(
            "outer outputs must be separated from the middle forcing point"
        )
    ext = build_model("loop", layout)
    reports = tuple(check_ons(order, ext.box))
    idle = (IDLE,) * 3
    forced = (do_label("0"), IDLE, do_label("0"))
    featured = None
    for rep in reports:
        inst = rep.instance
        if inst.F == (0, 2) and inst.G == (1,) and {inst.x, inst.x_prime} == {idle, forced}:
            featured = rep
            break
    if featured is None:
        raise LayoutMismatch("expected violation on the middle output is missing")
    protocol = build_protocol(order, ext.box, featured)
    return DegenerateReport(ext, reports, featured, sep, protocol)


# ----------------------------------------------------------------------
# embedding study 2: the relocated layout passes


@dataclass(frozen=True)
class SafeReport:
    """The checker's findings on the relocated loop model."""

    model: InterventionExtension
    instances: tuple[ConstraintInstance, ...]
    violations: tuple[ViolationReport, ...]
    joint_on_middle: bool
    middle_on_pair: bool
    constrained_pairs_absent: bool

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and self.joint_on_middle
            and self.middle_on_pair
            and self.constrained_pairs_absent
        )


def safe_embedding_check(layout: LoopLayout | None = None) -> SafeReport:
    """Check the loop model on the relocated layout.

    The layout must satisfy the relocation relations: each forcing
    strictly precedes its own output, both outer forcings strictly
    precede the middle output, and the outer outputs admit no gathering
    point avoiding the middle forcing.  Any failure raises
    LayoutMismatch.  On the valid layout the checker generates no
    constraint touching the two influences the table actually uses, and
    no generated constraint is violated.
    """
    layout = layout if layout is not None else fig5_layout()
    order, p, q = layout.order, layout.p, layout.q
    for i in range(3):
        if not order.strictly_precedes(p[i], q[i]):
            raise LayoutMismatch(f"forcing point {i} does not precede its output")
    if not (order.strictly_precedes(p[0], q[1]) and order.strictly_precedes(p[2], q[1])):
        raise LayoutMismatch("middle output escapes an outer forcing's reach")
    sep = separated(order, (q[0], q[2]), (p[1],))
    if sep.verdict is not Verdict.NOT_SEPARATED:
        raise LayoutMismatch(
            "outer outputs must not be separable from the middle forcing"
        )
    ext = build_model("loop", layout)
    box = ext.box
    instances = tuple(enumerate_constraints(order, box))
    violations = tuple(check_instances(box, instances))
    pairs = {(inst.F, inst.G) for inst in instances}
    absent = ((1,), (0, 2)) not in pairs and ((0, 2), (1,)) not in pairs
    idle = (IDLE,) * 3
    joint_on_middle = marginalize(
        box, (1,), (do_label("0"), IDLE, do_label("0"))
    ) != marginalize(box, (1,), idle)
    middle_on_pair = marginalize(
        box, (0, 2), (IDLE, do_label("0"), IDLE)
    ) != marginalize(box, (0, 2), idle)
    return SafeReport(ext, instances, violations, joint_on_middle, middle_on_pair, absent)


# ----------------------------------------------------------------------
# the compass derivation


def compass_layout() -> tuple[CausalOrder, tuple[Srv, ...], tuple[Srv, ...]]:
    """Two jammer stations interleaved with three receivers on a slice.

    Inputs X, X_m sit at the station between A and B, inputs Y, Y_m at
    the station between B and C; all five points are mutually spacelike
    and each station is reachable exactly by its own output pair.
    """
    order = Minkowski(1)
    p1, p2 = Event.at(1, 2), Event.at(1, 6)
    q1, q2, q3 = Event.at(0, 0), Event.at(0, 4), Event.at(0, 8)
    inputs = (
        Srv("X", _BITS, p1),
        Srv("X_m", _BITS, p1),
        Srv("Y", _BITS, p2),
        Srv("Y_m", _BITS, p2),
    )
    outputs = (Srv("A", _BITS, q1), Srv("B", _BITS, q2), Srv("C", _BITS, q3))
    return order, inputs, outputs


@dataclass(frozen=True)
class TraceStep:
    """One derived equality and where it came from."""

    statement: str
    source: str


@dataclass(frozen=True)
class ContradictionTrace:
    """Outcome of replaying the compass derivation at fixed weights.

    The trace replays one specific derivation script; `contradiction`
    reports whether that script still reaches its terminal pair, not
    whether some other route to an inconsistency exists.
    """

    lam: Fraction
    mu: Fraction
    ablated: str | None
    steps: tuple[TraceStep, ...]
    terminal: tuple[str, str] | None

    @property
    def contradiction(self) -> bool:
        return self.terminal is not None


def _xor_indicator(b: int, c: int, value: int) -> Fraction:
    return Fraction(1) if (b ^ c) == value else Fraction(0)


def compass_contradiction(
    lam, mu, *, ablate: str | None = None
) -> ContradictionTrace:
    """Derive the terminal weight clash of the two-jammer compass model.

    With the X jammer on and driven by 0, the full row factors through
    the C marginal; the setting-free C marginal then forces the rows at
    the two Y drives to agree, and equating the Y jammer's two forms of
    those rows pins mu to 0 and to 1 at once.  The clash survives every
    rational weight pair, so no table satisfies all the assumptions.

    `ablate` names one constraint family line to withhold from the
    derivation.  Withholding the C-marginal line stops the script before
    the rows can be compared; every other line either goes uncited or is
    replaced by per-side normalization, so the clash persists.
    """
    lam = parse_rational(lam)
    mu = parse_rational(mu)
    if not 0 <= lam <= 1 or not 0 <= mu <= 1:
        raise ValueError("jammer weights must lie in [0, 1]")
    order, inputs, outputs = compass_layout()
    family = named_constraints("compass", order, inputs, outputs)
    labels = tuple(line.label for line in family.lines)
    if ablate is not None and ablate not in labels:
        raise ValueError(f"ablate must be one of {labels}, got {ablate!r}")

    steps: list[TraceStep] = []
    f_lam, f_mu, f_com = format_rational(lam), format_rational(mu), format_rational(1 - mu)
    steps.append(
        TraceStep(
            "with the X jammer on and driven by 0: P(a,b,c | 0,1,y,1) = "
            f"[a xor b = 0] * {f_lam} * P(c | 0,1,y,1), for y in {{0, 1}}",
            "mechanism:X",
        )
    )
    if ablate == "c_setting_free":
        steps.append(
            TraceStep(
                "the C-marginal equality is withheld, so the rows at y = 0 "
                "and y = 1 cannot be compared; the derivation stops open",
                "ablation",
            )
        )
        return ContradictionTrace(lam, mu, ablate, tuple(steps), None)
    if ablate is not None and ablate != "a_setting_free":
        steps.append(
            TraceStep(f"withheld line {ablate} is never cited below", "ablation")
        )
    steps.append(
        TraceStep(
            "the C marginal is setting-free: P(c | 0,1,0,1) = P(c | 0,1,1,1)",
            "family:c_setting_free",
        )
    )
    steps.append(
        TraceStep(
            "substituting it into the X form: P(a,b,c | 0,1,0,1) = "
            "P(a,b,c | 0,1,1,1) for all a, b, c",
            "substitution",
        )
    )
    steps.append(
        TraceStep(
            "with the Y jammer on: P(a,b,c | 0,1,0,1) = "
            f"[b xor c = 0] * {f_mu} * P(a | 0,1,0,1) and "
            f"P(a,b,c | 0,1,1,1) = [b xor c = 1] * {f_com} * P(a | 0,1,1,1)",
            "mechanism:Y",
        )
    )
    steps.append(
        TraceStep(
            f"equating the two Y forms: [b xor c = 0] * {f_mu} * P(a | 0,1,0,1) "
            f"= [b xor c = 1] * {f_com} * P(a | 0,1,1,1) for all a, b, c",
            "substitution",
        )
    )
    if ablate != "a_setting_free":
        steps.append(
            TraceStep(
                "the A marginal is setting-free: P(a | 0,1,0,1) = P(a | 0,1,1,1)",
                "family:a_setting_free",
            )
        )
        sum_note = "summing over a"
    else:
        sum_note = "summing over a, each side's A marginal adding to 1 on its own"
    steps.append(
        TraceStep(
            f"{sum_note}: [b xor c = 0] * {f_mu} = [b xor c = 1] * {f_com} "
            "for all b, c",
            "normalization",
        )
    )
    # instantiate the summed identity at the two pinning value pairs
    terminal = []
    for b, c, forced in ((0, 0, "mu = 0"), (0, 1, "mu = 1")):
        left = _xor_indicator(b, c, 0) * mu
        right = _xor_indicator(b, c, 1) * (1 - mu)
        holds = "holds" if left == right else "fails"
        steps.append(
            TraceStep(
                f"at (b, c) = ({b}, {c}): {format_rational(left)} = "
                f"{format_rational(right)}, demanding {forced} "
                f"({holds} at the supplied mu)",
                "instantiation",
            )
        )
        terminal.append(forced)
    steps.append(
        TraceStep(
            "mu = 0 and mu = 1 cannot both hold, so no table satisfies "
            "every assumption",
            "contradiction",
        )
    )
    return ContradictionTrace(lam, mu, ablate, tuple(steps), tuple(terminal))
