"""Span tracer that wraps causalbox's public functions from outside.

Each wrapper replaces an attribute where callers look the name up: a
method on its class, or a module-level function in every causalbox
module that imported it by name.  The package itself is never edited.

A span records its name, start, end, parent span and op id, plus a tag
derived from the call (backend, verdict, branch).  Spans of one op stay
in memory until the op ends; `end_op` then folds them into totals per
(name, tag, parent name): count, inclusive time and self time.  So a
long traced run holds one op's spans at a time.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import causalbox.boxes as boxes
import causalbox.casestudies as casestudies
import causalbox.cli as cli
import causalbox.intervals as intervals
import causalbox.jamming as jamming
import causalbox.monogamy as monogamy
import causalbox.ons as ons
import causalbox.poincare as poincare
import causalbox.protocol as protocol
import causalbox.scenario as scenario
import causalbox.separation as separation
import causalbox.simplex as simplex
import causalbox.svg as svg
from causalbox.geometry import FiniteOrder, Minkowski, TerminatedDiagram
from causalbox.intervals import IntervalSession
from causalbox.rational import QuadExt

# Span record layout: [name, start, end, parent index, op id, tag].
_NAME, _START, _END, _PARENT, _OP, _TAG = range(6)
_RELATION = "geometry.strictly_precedes"

# n whose cos(k*pi/n) are quadratic surds; jamming certifies them exactly.
EXACT_COS_N = (3, 4, 6)


def _engine(order) -> str:
    if isinstance(order, FiniteOrder):
        return "finite"
    if isinstance(order, Minkowski) and order.dim >= 2:
        return "plane"
    return "quadrant"


def _separated_tag(args, kwargs, result):
    return (_engine(args[0]), result.verdict.value)


def _jamming_tag(n: int) -> str:
    return "exact_n" if n in EXACT_COS_N else "interval_n"


def _build_config_tag(args, kwargs, result):
    return _jamming_tag(result.n)


def _verify_config_tag(args, kwargs, result):
    return _jamming_tag(result.config.n)


_DEFAULT_MC_ROUNDS = inspect.signature(protocol.simulate).parameters["mc_rounds"].default


def _simulate_tag(args, kwargs, result):
    return (result.method, result.trials, kwargs.get("mc_rounds", _DEFAULT_MC_ROUNDS))


def _bool_tag(args, kwargs, result):
    return bool(result)


def _targets():
    """(owner, attribute, span name, tag function) for every wrapped call.

    An owner is a class (the method is replaced there) or a module (the
    function is replaced in every causalbox module holding it).
    """
    targets = [
        (Minkowski, "strictly_precedes", "geometry.strictly_precedes.minkowski", None),
        (TerminatedDiagram, "strictly_precedes", "geometry.strictly_precedes.terminated", None),
        (FiniteOrder, "strictly_precedes", "geometry.strictly_precedes.finite", None),
        (separation, "separated", "separation.separated", _separated_tag),
        (separation, "verify_separation_witness", "separation.verify_separation_witness", _bool_tag),
        (ons, "enumerate_constraints", "ons.enumerate_constraints", None),
        (ons, "check_instances", "ons.check_instances", None),
        (boxes, "marginalize", "boxes.marginalize", None),
        (boxes, "validate_box", "boxes.validate_box", None),
        (protocol, "exhaustive_protocol_search", "protocol.exhaustive_protocol_search", None),
        (protocol, "build_protocol", "protocol.build_protocol", None),
        (protocol, "loop_paradox_certificate", "protocol.loop_paradox_certificate", None),
        (protocol, "simulate", "protocol.simulate", _simulate_tag),
        (poincare, "find_loop_transform", "poincare.find_loop_transform", None),
        (QuadExt, "cmp", "rational.QuadExt.cmp", None),
        (intervals, "refine", "intervals.refine", None),
        (IntervalSession, "__init__", "intervals.IntervalSession", None),
        (jamming, "build_config", "jamming.build_config", _build_config_tag),
        (jamming, "verify_config", "jamming.verify_config", _verify_config_tag),
        (simplex, "solve_lp", "simplex.solve_lp", None),
        (simplex, "verify_lp_certificate", "simplex.verify_lp_certificate", None),
        (monogamy, "build_ns_lp", "monogamy.build_ns_lp", None),
        (monogamy, "ns_monogamy_lp", "monogamy.ns_monogamy_lp", None),
        (monogamy, "signalling_monogamy", "monogamy.signalling_monogamy", None),
        (monogamy, "brute_force_signalling", "monogamy.brute_force_signalling", None),
        (monogamy, "specific_input_value", "monogamy.specific_input_value", None),
        (monogamy, "entropic_probe", "monogamy.entropic_probe", None),
        (scenario, "dumps", "scenario.dumps", None),
        (cli, "main", "cli.main", None),
    ]
    for name in (
        "axes_only",
        "cone_diagram",
        "spatial_scatter",
        "disc_timeslice",
        "terminated_figure",
        "hasse_diagram",
    ):
        targets.append((svg, name, "svg", None))
    for name in (
        "affects_relations",
        "build_model",
        "compass_contradiction",
        "compass_layout",
        "degenerate_embedding_check",
        "degenerate_layout",
        "fig5_layout",
        "safe_embedding_check",
    ):
        targets.append((casestudies, name, "casestudies", None))
    return targets


class Tracer:
    """Collects spans for the ops run between `install` and `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.validate_calls = 0
        self._validate_depth = 0
        # (name, tag, parent name) -> [count, inclusive seconds, self seconds]
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.unattributed_s = 0.0
        self._patches = self._build_patches()

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, name, tag):
        spans, stack, tracer = self.spans, self.stack, self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[_TAG] = tag(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn):
        tracer = self

        # validate_event is too frequent for a span; count outermost calls
        # (TerminatedDiagram validates through its ambient Minkowski).
        def wrapper(*args, **kwargs):
            if tracer._validate_depth == 0:
                tracer.validate_calls += 1
            tracer._validate_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._validate_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _build_patches(self):
        patches = []
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "causalbox" or key.startswith("causalbox."))
        ]
        for owner, attr, name, tag in _targets():
            if isinstance(owner, type):
                fn = owner.__dict__[attr]
                patches.append((owner, attr, fn, self._span_wrapper(fn, name, tag)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._span_wrapper(fn, name, tag)
            for module in modules:
                for key, value in vars(module).items():
                    if value is fn:
                        patches.append((module, key, fn, wrapper))
        for cls in (Minkowski, TerminatedDiagram, FiniteOrder):
            fn = cls.__dict__["validate_event"]
            patches.append((cls, "validate_event", fn, self._count_wrapper(fn)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- per-op bookkeeping -------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.spans.clear()
        self.stack.clear()
        self.op_id = op_id
        self.install()

    def end_op(self, op_seconds: float) -> None:
        """Fold this op's spans into the totals; op_seconds is the op's
        wall time, of which spans cover part and the rest is
        unattributed."""
        self.uninstall()
        self.ops += 1
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_END] - rec[_START]
        covered = 0.0
        totals = self.totals
        for i, rec in enumerate(spans):
            name, dur = rec[_NAME], rec[_END] - rec[_START]
            own = dur - child[i]
            parent = spans[rec[_PARENT]][_NAME] if rec[_PARENT] >= 0 else None
            entry = totals[(name, rec[_TAG], parent)]
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            if parent is None:
                covered += dur
        self.unattributed_s += op_seconds - covered
        spans.clear()

    # -- readout -------------------------------------------------------

    def total(self, name: str, field: int = 0, tag=None, parent=None):
        """Sum of one field (0 count, 1 inclusive s, 2 self s) over the
        spans called `name`, optionally filtered by predicates on the tag
        and on the parent span's name.  A call that raised has no tag and
        matches no tag predicate."""
        return sum(
            v[field]
            for (n, t, p), v in self.totals.items()
            if n == name
            and (tag is None or (t is not None and tag(t)))
            and (parent is None or parent(p))
        )


ENGINES = ("finite", "quadrant", "plane")
BACKENDS = ("minkowski", "terminated", "finite")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-module metrics from a traced run.  calls_per_op and self_ms
    are per op; `.us` is the mean inclusive time of one call.  A layer
    the workload never reaches reads 0."""
    ops = max(tracer.ops, 1)
    t = tracer.total
    out: dict = {}

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    def mean_us(seconds: float, calls: int) -> float:
        return 1e6 * seconds / calls if calls else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def outer(p) -> bool:
        # a terminated-diagram query runs an ambient Minkowski query;
        # only the outermost query of a nest counts
        return not (p or "").startswith(_RELATION)

    for backend in BACKENDS:
        name = f"{_RELATION}.{backend}"
        calls = t(name, 0, parent=outer)
        out[f"geometry.strictly_precedes.calls_per_op.{backend}"] = calls / ops
        out[f"geometry.strictly_precedes.us.{backend}"] = mean_us(t(name, 1, parent=outer), calls)
    out["geometry.validate_event.calls_per_op"] = tracer.validate_calls / ops

    sep = "separation.separated"
    for engine in ENGINES:
        is_engine = lambda tag, e=engine: tag[0] == e
        out[f"separation.separated.calls_per_op.{engine}"] = t(sep, 0, tag=is_engine) / ops
        out[f"separation.separated.self_ms.{engine}"] = per_op_ms(t(sep, 2, tag=is_engine))
    witness = "separation.verify_separation_witness"
    in_sep = lambda p: p == sep
    candidates = t(witness, 0, parent=in_sep)
    searching = t(sep, 0, tag=lambda tag: tag[0] in ("finite", "plane"))
    out["separation.witness_candidates_per_call"] = ratio(candidates, searching)
    out["separation.witness_hit_ratio"] = ratio(
        t(witness, 0, tag=lambda tag: tag is True, parent=in_sep), candidates
    )
    out["separation.unknown_ratio"] = ratio(
        t(sep, 0, tag=lambda tag: tag[1] == "unknown"), t(sep, 0)
    )

    enum = "ons.enumerate_constraints"
    in_enum = lambda p: p == enum
    tried = t(sep, 0, parent=in_enum)
    out["ons.enumerate_constraints.self_ms"] = per_op_ms(t(enum, 2))
    out["ons.pairs_tried_per_box"] = ratio(tried, t(enum, 0))
    out["ons.pairs_emitting_ratio"] = ratio(
        t(sep, 0, tag=lambda tag: tag[1] == "separated", parent=in_enum), tried
    )
    out["ons.check_instances.self_ms"] = per_op_ms(t("ons.check_instances", 2))

    marg = "boxes.marginalize"
    out["boxes.marginalize.calls_per_op"] = t(marg, 0) / ops
    out["boxes.marginalize.us"] = mean_us(t(marg, 1), t(marg, 0))
    out["boxes.validate_box.self_ms"] = per_op_ms(t("boxes.validate_box", 2))

    for name in ("protocol.exhaustive_protocol_search", "protocol.build_protocol"):
        out[f"{name}.self_ms"] = per_op_ms(t(name, 2))
    sim = "protocol.simulate"
    for method in ("chi2", "exact_mc"):
        out[f"protocol.simulate.self_ms.{method}"] = per_op_ms(
            t(sim, 2, tag=lambda tag, m=method: tag[0] == m)
        )
    out["protocol.simulate.share_exact_mc"] = ratio(
        t(sim, 0, tag=lambda tag: tag[0] == "exact_mc"), t(sim, 0)
    )
    draws = 0
    for (name, tag, _), v in tracer.totals.items():
        if name == sim and tag is not None:
            method, trials, rounds = tag
            draws += v[0] * 2 * trials * (1 + (rounds if method == "exact_mc" else 0))
    out["protocol.simulate.draws_per_s"] = ratio(draws, t(sim, 1))

    out["poincare.find_loop_transform.self_ms"] = per_op_ms(t("poincare.find_loop_transform", 2))
    cmp_ = "rational.QuadExt.cmp"
    out["rational.QuadExt.cmp.calls_per_op"] = t(cmp_, 0) / ops
    out["rational.QuadExt.cmp.us"] = mean_us(t(cmp_, 1), t(cmp_, 0))

    refine, session = "intervals.refine", "intervals.IntervalSession"
    out["intervals.refine.calls_per_op"] = t(refine, 0) / ops
    out["intervals.refine.rungs_per_call"] = ratio(
        t(session, 0, parent=lambda p: p == refine), t(refine, 0)
    )
    out["intervals.IntervalSession.created_per_op"] = t(session, 0) / ops

    for name in ("jamming.build_config", "jamming.verify_config"):
        for route in ("exact_n", "interval_n"):
            out[f"{name}.self_ms.{route}"] = per_op_ms(t(name, 2, tag=lambda tag, r=route: tag == r))
    for name in (
        "simplex.solve_lp",
        "simplex.verify_lp_certificate",
        "monogamy.build_ns_lp",
        "monogamy.entropic_probe",
        "scenario.dumps",
        "svg",
        "casestudies",
    ):
        out[f"{name}.self_ms"] = per_op_ms(t(name, 2))
    out["unattributed.self_ms"] = per_op_ms(tracer.unattributed_s)
    return out
