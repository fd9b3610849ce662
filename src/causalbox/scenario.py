"""Shared JSON scenario format, presets, and report serialization.

Every piece of JSON the package reads or emits goes through this
module: the scenario file format (backend, SRVs, table), the named
layout presets that expand to concrete coordinates, the tiny game
f-table format, and one serializer per report type.  Rationals travel
as "num/den" strings so exactness survives the round trip; emission is
canonical (sorted keys, fixed indentation) so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .boxes import Alphabet, CorrelationBox, Srv, canonical_box
from .geometry import (
    CausalOrder,
    Event,
    FiniteOrder,
    GeometryError,
    Minkowski,
    TerminatedDiagram,
)
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from .casestudies import (
        AffectsReport,
        ContradictionTrace,
        DegenerateReport,
        SafeReport,
    )
    from .intervals import Enclosure
    from .jamming import NJamConfig, VerdictBundle
    from .monogamy import GameValueReport, XorGame
    from .ons import ConstraintInstance, FamilyLine, NamedFamily, ViolationReport
    from .protocol import SignallingProtocol, SimulationResult
    from .separation import SeparationResult


class ScenarioError(ValueError):
    """A structurally valid JSON document that is not a usable scenario."""


# ----------------------------------------------------------------------
# primitives


def rat_str(value) -> str:
    return format_rational(parse_rational(value))


def _join(labels: Sequence[str]) -> str:
    for lab in labels:
        if "," in lab:
            raise ScenarioError(f"label {lab!r} contains a comma")
    return ",".join(labels)


def _split(key: str) -> tuple[str, ...]:
    return () if key == "" else tuple(key.split(","))


def event_to_json(e: Event):
    if e.is_point():
        assert e.x is not None
        return [rat_str(c) for c in (e.t, *e.x)]
    return e.label


def event_from_json(obj, order: CausalOrder) -> Event:
    """The event a scenario names, checked against its backend here where
    it enters; a short point or an unknown element raises GeometryError."""
    if isinstance(order, FiniteOrder):
        event = Event.named(obj)
    elif not isinstance(obj, list) or not obj:
        raise ScenarioError(f"point event must be a coordinate list, got {obj!r}")
    else:
        event = Event.at(obj[0], *obj[1:])
    order.validate_event(event)
    return event


def order_to_json(order: CausalOrder) -> dict:
    if isinstance(order, Minkowski):
        return {"kind": "minkowski", "dim": order.dim}
    if isinstance(order, TerminatedDiagram):
        return {
            "kind": "terminated_diagram",
            "vertices": [[rat_str(x), rat_str(s)] for x, s in order.vertices],
        }
    if isinstance(order, FiniteOrder):
        elements = list(order.elements)
        relations = sorted(
            (
                [a, b]
                for a in order.elements
                for b in order.elements
                if a != b and order.strictly_precedes(Event.named(a), Event.named(b))
            ),
            key=repr,
        )
        return {"kind": "finite_order", "elements": elements, "relations": relations}
    raise ScenarioError(f"unknown backend {type(order).__name__}")


def _json_int(value, what: str, size: int | None = None) -> int:
    """An integer field, below size when one is given.  A JSON 1.5 or
    true is rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    if size is not None and not 0 <= value < size:
        raise ScenarioError(f"{what} {value} out of range for {size} entries")
    return value


def order_from_json(obj: Mapping) -> CausalOrder:
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ScenarioError("backend needs a 'kind' field") from None
    if kind == "minkowski":
        return Minkowski(_json_int(obj["dim"], "minkowski dim"))
    if kind == "terminated_diagram":
        return TerminatedDiagram([tuple(v) for v in obj["vertices"]])
    if kind == "finite_order":
        relations = [tuple(r) for r in obj.get("relations", [])]
        return FiniteOrder(relations, obj.get("elements", []))
    raise ScenarioError(f"unknown backend kind {kind!r}")


def alphabet_to_json(a: Alphabet):
    if a.is_intervention:
        assert a.target is not None
        return {"intervention_of": list(a.target.labels)}
    return list(a.labels)


def alphabet_from_json(obj) -> Alphabet:
    if isinstance(obj, Mapping):
        return Alphabet.interventions(Alphabet.of(*obj["intervention_of"]))
    return Alphabet.of(*obj)


def srv_to_json(s: Srv) -> dict:
    return {
        "name": s.name,
        "alphabet": alphabet_to_json(s.alphabet),
        "point": event_to_json(s.location),
    }


def srv_from_json(obj: Mapping, order: CausalOrder) -> Srv:
    return Srv(
        str(obj["name"]),
        alphabet_from_json(obj["alphabet"]),
        event_from_json(obj["point"], order),
    )


def box_to_json(order: CausalOrder, box: CorrelationBox) -> dict:
    table = {}
    for x, row in box.table.items():
        table[_join(x)] = {_join(a): rat_str(p) for a, p in row.items()}
    return {
        "backend": order_to_json(order),
        "inputs": [srv_to_json(s) for s in box.inputs],
        "outputs": [srv_to_json(s) for s in box.outputs],
        "pairing": [[i, j] for i, j in sorted(box.pairing.items())],
        "table": table,
    }


def box_from_json(obj: Mapping) -> tuple[CausalOrder, CorrelationBox]:
    try:
        order = order_from_json(obj["backend"])
        inputs = tuple(srv_from_json(s, order) for s in obj.get("inputs", []))
        outputs = tuple(srv_from_json(s, order) for s in obj.get("outputs", []))
        pairing = {
            _json_int(i, "pairing input", len(inputs)): _json_int(
                j, "pairing output", len(outputs)
            )
            for i, j in obj.get("pairing", [])
        }
        table = {
            _split(x): {_split(a): p for a, p in row.items()}
            for x, row in obj.get("table", {}).items()
        }
        box = CorrelationBox(inputs=inputs, outputs=outputs, table=table, pairing=pairing)
    except (KeyError, TypeError, ValueError, AttributeError, GeometryError) as exc:
        raise ScenarioError(f"bad scenario document: {exc}") from exc
    return order, box


# ----------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class Scenario:
    """A backend plus whatever the preset pins down.

    Box presets carry a full correlation box, and a scenario with a box
    takes its inputs and outputs from it; layout presets carry only
    SRVs and the named constraint family they feed.  The n-receiver
    jamming ring is not a scenario: `causalbox jam-geometry` builds it.
    """

    name: str
    order: CausalOrder
    box: CorrelationBox | None = None
    inputs: tuple[Srv, ...] = ()
    outputs: tuple[Srv, ...] = ()
    family: str | None = None

    def __post_init__(self):
        if self.box is not None:
            object.__setattr__(self, "inputs", self.box.inputs)
            object.__setattr__(self, "outputs", self.box.outputs)


PRESETS = (
    "bell_standard",
    "jamming_triangle",
    "fig5",
    "degenerate_loop",
    "six_config",
    "compass",
)

_BITS = Alphabet.binary()


def _bell_scenario() -> Scenario:
    locations = {
        "p1": Event.at(0, 0),
        "p2": Event.at(0, 6),
        "q1": Event.at(1, 0),
        "q2": Event.at(1, 6),
    }
    box = canonical_box("pr_box", locations)
    return Scenario("bell_standard", Minkowski(1), box=box)


def _jamming_triangle_scenario() -> Scenario:
    # one jammer input between two spacelike readers, outputs locked to
    # opposite parity when the input is 1
    ins = (Srv("X", _BITS, Event.at(0, 0)),)
    outs = (Srv("A1", _BITS, Event.at(0, -2)), Srv("A2", _BITS, Event.at(0, 2)))
    table = {
        (x,): {
            (a1, a2): Fraction(1, 2)
            for a1, a2 in itertools.product("01", repeat=2)
            if int(a1) ^ int(a2) == int(x)
        }
        for x in "01"
    }
    box = CorrelationBox(inputs=ins, outputs=outs, table=table)
    return Scenario("jamming_triangle", Minkowski(1), box=box)


def _loop_scenario(name: str) -> Scenario:
    from .casestudies import build_model, degenerate_layout, fig5_layout

    layout = fig5_layout() if name == "fig5" else degenerate_layout()
    ext = build_model("loop", layout)
    return Scenario(name, layout.order, box=ext.box)


def _six_config_scenario() -> Scenario:
    points = {
        "A": Event.at(0, 0, 0),
        "B": Event.at(0, 4, 0),
        "C": Event.at(0, 2, 3),
        "x": Event.at(0, 3, Fraction(3, 2)),
        "y": Event.at(0, 1, Fraction(3, 2)),
        "z": Event.at(0, 2, 0),
    }
    inputs = tuple(Srv(n, _BITS, points[n]) for n in ("x", "y", "z"))
    outputs = tuple(Srv(n, _BITS, points[n.upper()]) for n in ("a", "b", "c"))
    return Scenario(
        "six_config",
        Minkowski(2),
        inputs=inputs,
        outputs=outputs,
        family="six_config_triangle",
    )


def _compass_scenario() -> Scenario:
    from .casestudies import compass_layout

    order, inputs, outputs = compass_layout()
    return Scenario("compass", order, inputs=inputs, outputs=outputs, family="compass")


def preset(name: str) -> Scenario:
    """Expand a named preset to concrete coordinates."""
    if name not in PRESETS:
        raise ScenarioError(f"unknown preset {name!r}; choose from {PRESETS}")
    if name == "bell_standard":
        return _bell_scenario()
    if name == "jamming_triangle":
        return _jamming_triangle_scenario()
    if name in ("fig5", "degenerate_loop"):
        return _loop_scenario(name)
    if name == "six_config":
        return _six_config_scenario()
    return _compass_scenario()


def load_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse a scenario document from JSON text."""
    obj = json.loads(text)
    order, box = box_from_json(obj)
    return Scenario(name, order, box=box)


# ----------------------------------------------------------------------
# report serializers


def separation_to_json(result: SeparationResult) -> dict:
    return {
        "verdict": result.verdict.value,
        "witness": None if result.witness is None else event_to_json(result.witness),
        "reason": result.reason,
        "detail": result.detail,
    }


def _move_to_json(inst: ConstraintInstance) -> dict:
    return {
        "F": list(inst.F),
        "G": list(inst.G),
        "x": _join(inst.x),
        "x_prime": _join(inst.x_prime),
    }


def instance_to_json(inst: ConstraintInstance) -> dict:
    return {
        **_move_to_json(inst),
        "certificate": separation_to_json(inst.certificate),
    }


def violation_to_json(v: ViolationReport) -> dict:
    return {
        **_move_to_json(v.instance),
        "a": _join(v.outcome),
        "p1": rat_str(v.p_x),
        "p2": rat_str(v.p_x_prime),
    }


def check_report_to_json(
    instances: Sequence[ConstraintInstance], violations: Sequence[ViolationReport]
) -> dict:
    return {
        "instances": len(instances),
        "violations": [violation_to_json(v) for v in violations],
    }


def family_to_json(family: NamedFamily) -> dict:
    def line(ln: FamilyLine) -> dict:
        return {
            "label": ln.label,
            "F": list(ln.F),
            "G": list(ln.G),
            "certificate": separation_to_json(ln.certificate),
            "instances": len(ln.instances),
        }

    return {"family": family.family, "lines": [line(ln) for ln in family.lines]}


def protocol_to_json(p: SignallingProtocol) -> dict:
    def dist(d: Mapping) -> dict:
        return {_join(a): rat_str(q) for a, q in sorted(d.items())}

    return {
        "sender": p.sender,
        "sender_values": list(p.sender_values),
        "setting_a": _join(p.setting_a),
        "setting_b": _join(p.setting_b),
        "G": list(p.G),
        "gathering_point": event_to_json(p.gathering_point),
        "dist_a": dist(p.dist_a),
        "dist_b": dist(p.dist_b),
        "total_variation": rat_str(p.total_variation),
    }


def simulation_to_json(r: SimulationResult) -> dict:
    return {
        "trials": r.trials,
        "seed": r.seed,
        "counts_a": {_join(a): c for a, c in sorted(r.counts_a.items())},
        "counts_b": {_join(a): c for a, c in sorted(r.counts_b.items())},
        "empirical_tv": rat_str(r.empirical_tv),
        "statistic": r.statistic,
        "p_value": r.p_value,
        "alpha": rat_str(r.alpha),
        "reject": r.reject,
        "method": r.method,
    }


def affects_to_json(report: AffectsReport) -> dict:
    return {
        "relations": [
            {
                "sources": list(r.sources),
                "targets": list(r.targets),
                "affects": r.affects,
                "witness": None if r.witness is None else _join(r.witness),
            }
            for r in report.relations
        ]
    }


def trace_to_json(trace: ContradictionTrace) -> dict:
    return {
        "lam": rat_str(trace.lam),
        "mu": rat_str(trace.mu),
        "ablated": trace.ablated,
        "contradiction": trace.contradiction,
        "terminal": None if trace.terminal is None else list(trace.terminal),
        "steps": [{"statement": s.statement, "source": s.source} for s in trace.steps],
    }


def degenerate_report_to_json(report: DegenerateReport) -> dict:
    return {
        "violations": [violation_to_json(v) for v in report.violations],
        "featured": violation_to_json(report.featured),
        "separation": separation_to_json(report.separation),
        "protocol": protocol_to_json(report.protocol),
        "total_variation": rat_str(report.total_variation),
    }


def safe_report_to_json(report: SafeReport) -> dict:
    return {
        "ok": report.ok,
        "instances": len(report.instances),
        "violations": [violation_to_json(v) for v in report.violations],
        "joint_on_middle": report.joint_on_middle,
        "middle_on_pair": report.middle_on_pair,
        "constrained_pairs_absent": report.constrained_pairs_absent,
    }


# ----------------------------------------------------------------------
# games


def game_to_json(game: XorGame) -> dict:
    return {"m": game.m, "f": [list(row) for row in game.f]}


def game_from_json(obj: Mapping) -> XorGame:
    from .monogamy import XorGame

    try:
        f = [[_json_int(v, "game table entry") for v in row] for row in obj["f"]]
        return XorGame(_json_int(obj["m"], "game m"), f)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad game document: {exc}") from exc


def _behavior_to_json(witness: Mapping) -> dict:
    out: dict = {}
    for xyz, entry in sorted(witness.items()):
        key = ",".join(str(v) for v in xyz)
        if isinstance(entry, Mapping):
            out[key] = {
                ",".join(str(v) for v in abc): rat_str(p)
                for abc, p in sorted(entry.items())
            }
        else:
            out[key] = ",".join(str(v) for v in entry)
    return out


def game_report_to_json(report: GameValueReport) -> dict:
    return {
        "value": rat_str(report.value),
        "theory": report.theory,
        "detail": report.detail,
        "witness": None if report.witness is None else _behavior_to_json(report.witness),
        "lp_objective": None if report.lp is None else rat_str(report.lp.value),
    }


# ----------------------------------------------------------------------
# interval geometry


def enclosure_to_json(enc: Enclosure) -> dict:
    return {"lo": rat_str(enc.lo), "hi": rat_str(enc.hi)}


def njam_config_to_json(config: NJamConfig) -> dict:
    return {
        "n": config.n,
        "h": rat_str(config.h),
        "prec": config.prec,
        "h_in_range": config.h_in_range,
        "receivers": [
            [enclosure_to_json(cx), enclosure_to_json(cy)] for cx, cy in config.points
        ],
    }


def bundle_to_json(bundle: VerdictBundle) -> dict:
    return {
        "config": njam_config_to_json(bundle.config),
        "closed_form": {
            "full": bundle.closed_form.full.value,
            "subtuples": [v.value for v in bundle.closed_form.subtuples],
        },
        "oracle": {
            "full": bundle.oracle.full.value,
            "subtuples": [v.value for v in bundle.oracle.subtuples],
        },
        "agreement": bundle.agreement,
        "ok": bundle.ok,
        "detail": bundle.detail,
        "sweep": None
        if bundle.sweep is None
        else [{"J": list(J), "verdict": v.value} for J, v in bundle.sweep],
    }


# ----------------------------------------------------------------------
# canonical emission


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one trailing
    newline, so identical reports are byte-identical."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
