"""Exact causal-separation verdicts, correlation-box constraint checks,
and supporting geometry over flat spacetimes, finite orders, and
terminated diagrams.

Submodules load on first use: `import causalbox` imports none of them,
and each public name is looked up in its defining module on every
access (PEP 562), so a caller pays only for the modules it reaches and
always sees that module's current attribute.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports at package level
_EXPORTS = {
    "boxes": (
        "IDLE",
        "Alphabet",
        "CorrelationBox",
        "InterventionExtension",
        "Srv",
        "ValidationError",
        "ValidationReport",
        "do_label",
        "extend_with_intervention",
        "marginalize",
        "undo_label",
        "validate_box",
    ),
    "casestudies": (
        "affects_relations",
        "build_model",
        "compass_contradiction",
        "degenerate_embedding_check",
        "safe_embedding_check",
    ),
    "geometry": (
        "CausalOrder",
        "CycleError",
        "DomainError",
        "Event",
        "FiniteOrder",
        "GeometryError",
        "Minkowski",
        "TerminatedDiagram",
    ),
    "intervals": ("Enclosure", "IntervalSession", "refine"),
    "jamming": (
        "NJamConfig",
        "Unsupported",
        "VerdictBundle",
        "build_config",
        "verify_config",
    ),
    "monogamy": (
        "GameValueReport",
        "XorGame",
        "brute_force_signalling",
        "classify",
        "entropic_probe",
        "ns_monogamy_lp",
        "signalling_monogamy",
        "specific_input_value",
    ),
    "ons": (
        "ConstraintInstance",
        "LayoutMismatch",
        "UndecidableScenario",
        "ViolationReport",
        "check_instances",
        "check_ons",
        "enumerate_constraints",
        "named_constraints",
    ),
    "poincare": ("PoincareMap", "find_loop_transform"),
    "protocol": (
        "PreconditionViolated",
        "SignallingProtocol",
        "SimulationResult",
        "build_protocol",
        "exhaustive_protocol_search",
        "loop_paradox_certificate",
        "simulate",
    ),
    "rational": ("format_rational", "parse_rational"),
    "separation": (
        "SeparationResult",
        "Verdict",
        "separated",
        "verify_separation_witness",
    ),
    "simplex": (
        "InfeasibleError",
        "LpResult",
        "UnboundedError",
        "solve_lp",
        "verify_lp_certificate",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset((*_EXPORTS, "cli", "scenario", "svg"))

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # The value is not stored in the package namespace: a wrapper patched
    # onto the defining module would otherwise outlive its removal here.
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f".{module}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
