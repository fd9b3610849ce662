"""Command line front end.

Exit codes: 0 when the requested check passes or a value is computed,
1 when a violation or contradiction is found (expected in the demo
studies), 3 for usage errors including malformed input, 4 for an
internal error (an uncaught exception, reported as one line rather than
a traceback).

All reports go to stdout as canonical JSON; figures are written
atomically under --out.  The only randomized subcommand is simulate and
it requires an explicit --seed, so every invocation is reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import TYPE_CHECKING

# Only what the box commands share is imported here; every other module
# is imported by the command that runs it, so a child process compiles
# only what its command needs.
from . import scenario as sc
from .boxes import MODELS, validate_box
from .ons import check_instances, enumerate_constraints, named_constraints
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from fractions import Fraction

    from .jamming import NJamConfig
    from .monogamy import XorGame

PASS = 0
FOUND = 1
USAGE = 3
INTERNAL = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _fail(code: int, message: str):
    raise _CliError(code, message)


class _Parser(argparse.ArgumentParser):
    # usage errors are exit 3, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj) -> None:
    sys.stdout.write(sc.dumps(obj))


# ----------------------------------------------------------------------
# input loading


def _load_scenario(args) -> sc.Scenario:
    path = getattr(args, "scenario", None)
    name = getattr(args, "preset", None)
    if (path is None) == (name is None):
        _fail(USAGE, "provide exactly one of --scenario FILE or --preset NAME")
    if name is not None:
        try:
            return sc.preset(name)
        except sc.ScenarioError as exc:
            _fail(USAGE, str(exc))
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _fail(USAGE, f"cannot read {path}: {exc}")
    stem = os.path.splitext(os.path.basename(path))[0]
    return _parse(path, lambda: sc.load_scenario(text, name=stem))


def _parse(source: str, parse):
    """parse(), with malformed JSON and unusable documents reported as
    usage errors that name their source."""
    try:
        return parse()
    except json.JSONDecodeError as exc:
        _fail(
            USAGE,
            f"{source}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
        )
    except sc.ScenarioError as exc:
        _fail(USAGE, f"{source}: {exc}")


def _require_box(scen: sc.Scenario):
    if scen.box is None:
        _fail(USAGE, f"scenario {scen.name!r} carries no correlation box")
    return scen.box


def _validated_box(scen: sc.Scenario):
    box = _require_box(scen)
    report = validate_box(box, scen.order)
    if not report.ok:
        issues = "; ".join(f"{i.kind} at {i.where}" for i in report.issues)
        _fail(USAGE, f"scenario box failed validation: {issues}")
    return box


_GAMES = ("chsh", "constant0", "constant1", "input_copy")


def _load_game(spec: str) -> XorGame:
    if spec in _GAMES:
        from .monogamy import XorGame

        if spec.startswith("constant"):
            return XorGame.constant(int(spec[-1]))
        return getattr(XorGame, spec)()
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        names = ", ".join(_GAMES)
        _fail(USAGE, f"game {spec!r} is neither one of [{names}] nor a readable file ({exc})")
    return _parse(spec, lambda: sc.game_from_json(json.loads(text)))


# ----------------------------------------------------------------------
# figures


def _scenario_points(scen: sc.Scenario) -> list[tuple]:
    return [(s.name, s.location, "input") for s in scen.inputs] + [
        (s.name, s.location, "output") for s in scen.outputs
    ]


def _njam_figure(config: NJamConfig, t: Fraction) -> str:
    from . import svg

    receivers = [
        (float(cx.midpoint), float(cy.midpoint)) for cx, cy in config.points
    ]
    return svg.disc_timeslice(
        config.n,
        receivers,
        float(config.h),
        float(t),
        f"reach discs, n={config.n}",
    )


def _figure_for(scen: sc.Scenario) -> str:
    from . import svg
    from .geometry import FiniteOrder, TerminatedDiagram

    points = _scenario_points(scen)
    if isinstance(scen.order, FiniteOrder):
        return svg.hasse_diagram(scen.order, scen.name)
    if isinstance(scen.order, TerminatedDiagram):
        return svg.terminated_figure(scen.order, points, scen.name)
    if not points:
        return svg.axes_only(scen.name)
    if scen.order.dim == 1:
        return svg.cone_diagram(points, scen.name)
    return svg.spatial_scatter(points, scen.name)


def _safe_name(text: str) -> str:
    return "".join(c if c.isalnum() or c in "._" else "_" for c in text)


def _write_svg(out_dir: str, filename: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


# ----------------------------------------------------------------------
# subcommands


def cmd_check(args) -> int:
    scen = _load_scenario(args)
    box = _validated_box(scen)
    instances = enumerate_constraints(scen.order, box)
    violations = check_instances(box, instances)
    _emit(sc.check_report_to_json(instances, violations))
    return FOUND if violations else PASS


def cmd_constraints(args) -> int:
    scen = _load_scenario(args)
    family = args.family or scen.family
    if family is not None:
        if not scen.inputs or not scen.outputs:
            _fail(USAGE, f"scenario {scen.name!r} has no SRVs to build a family over")
        fam = named_constraints(family, scen.order, scen.inputs, scen.outputs)
        _emit(sc.family_to_json(fam))
        return PASS
    box = _require_box(scen)
    instances = enumerate_constraints(scen.order, box)
    _emit({"instances": [sc.instance_to_json(i) for i in instances]})
    return PASS


def _find_protocol(args):
    """The scenario box's violations and the protocol built from the
    first, as a report, and that protocol (None without a violation)."""
    scen = _load_scenario(args)
    box = _validated_box(scen)
    instances = enumerate_constraints(scen.order, box)
    violations = check_instances(box, instances)
    proto = None
    if violations:
        from .protocol import build_protocol

        proto = build_protocol(scen.order, box, violations[0])
    report = {
        "violations": [sc.violation_to_json(v) for v in violations],
        "protocol": None if proto is None else sc.protocol_to_json(proto),
    }
    return report, proto


def cmd_protocol(args) -> int:
    report, _ = _find_protocol(args)
    _emit(report)
    return FOUND if report["violations"] else PASS


def cmd_simulate(args) -> int:
    if not 0 <= args.seed < 2**64:
        _fail(USAGE, "--seed must fit in an unsigned 64-bit integer")
    if args.trials <= 0:
        _fail(USAGE, "--trials must be positive")
    alpha = parse_rational(args.alpha)
    report, proto = _find_protocol(args)
    report["simulation"] = None
    if proto is not None:
        from .protocol import simulate

        result = simulate(proto, args.trials, args.seed, alpha=alpha)
        report["simulation"] = sc.simulation_to_json(result)
    _emit(report)
    return FOUND if report["violations"] else PASS


def cmd_jam_geometry(args) -> int:
    from .jamming import build_config, verify_config

    h, t = parse_rational(args.h), parse_rational(args.t)
    config = build_config(args.n, h)
    bundle = verify_config(config, full_subset_sweep=args.sweep)
    figure = _njam_figure(config, t)
    name = f"njam-n{args.n}-h{format_rational(h)}-t{format_rational(t)}"
    filename = _safe_name(name) + ".svg"
    path = _write_svg(args.out, filename, figure)
    _emit({"bundle": sc.bundle_to_json(bundle), "svg": path})
    return PASS if bundle.agreement else FOUND


def cmd_monogamy(args) -> int:
    from .monogamy import ns_monogamy_lp, signalling_monogamy, specific_input_value

    game = _load_game(args.game)
    if args.theory == "signalling":
        report = signalling_monogamy(game)
    elif args.theory == "ns":
        report = ns_monogamy_lp(game)
    else:
        fixed = None
        if args.inputs is not None:
            parts = args.inputs.split(",")
            if len(parts) != 3:
                _fail(USAGE, "--inputs needs three comma-separated values")
            fixed = tuple(int(p) for p in parts)
        else:
            fixed = (0, 0, 0)
        report = specific_input_value(game, fixed)
    _emit(sc.game_report_to_json(report))
    return PASS


def cmd_case_study(args) -> int:
    from .casestudies import (
        affects_relations,
        build_model,
        compass_contradiction,
        degenerate_embedding_check,
        safe_embedding_check,
    )

    if args.study == "loop":
        if args.layout == "degenerate":
            report = degenerate_embedding_check()
            _emit(sc.degenerate_report_to_json(report))
            return FOUND
        report = safe_embedding_check()
        _emit(sc.safe_report_to_json(report))
        return PASS if report.ok else FOUND
    if args.study == "compass":
        trace = compass_contradiction(args.lam, args.mu, ablate=args.ablate)
        _emit(sc.trace_to_json(trace))
        return FOUND if trace.contradiction else PASS
    ext = build_model(args.model)
    _emit(sc.affects_to_json(affects_relations(ext.box)))
    return PASS


def cmd_render(args) -> int:
    scen = _load_scenario(args)
    path = _write_svg(args.out, _safe_name(scen.name) + ".svg", _figure_for(scen))
    _emit({"written": path})
    return PASS


# ----------------------------------------------------------------------
# parser


def _scenario_flags(p) -> None:
    p.add_argument("--scenario", metavar="FILE", help="scenario JSON document")
    p.add_argument("--preset", choices=sc.PRESETS, help="named built-in layout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="causalbox",
        description="Operational causal-separation constraints on correlation boxes.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("check", help="test every gatherable constraint of a box")
    _scenario_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("constraints", help="list constraint instances or a named family")
    _scenario_flags(p)
    p.add_argument("--family", help="named family label, defaults to the scenario's")
    p.set_defaults(func=cmd_constraints)

    p = sub.add_parser("protocol", help="extract a signalling protocol from a violation")
    _scenario_flags(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("simulate", help="run both arms of the extracted protocol")
    _scenario_flags(p)
    p.add_argument("--seed", type=int, required=True, help="unsigned 64-bit RNG seed")
    p.add_argument("--trials", type=int, default=10000, help="samples per arm")
    p.add_argument("--alpha", default="1/100", metavar="RAT", help="test level")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("jam-geometry", help="certify an n-receiver jamming layout")
    p.add_argument("--n", type=int, required=True, help="receiver count")
    p.add_argument("--h", required=True, metavar="RAT", help="jammer delay")
    p.add_argument("--t", default="2", metavar="RAT", help="time slice to draw")
    p.add_argument("--sweep", action="store_true", help="also verdict every subset")
    p.add_argument("--out", default=".", metavar="DIR", help="figure directory")
    p.set_defaults(func=cmd_jam_geometry)

    p = sub.add_parser("monogamy", help="optimal pairwise sums of a three-party game")
    p.add_argument(
        "--game",
        default="chsh",
        help="chsh, input_copy, constant0, constant1, or a JSON file",
    )
    p.add_argument(
        "--theory",
        choices=("signalling", "ns", "specific"),
        default="signalling",
        help="which resource bounds the optimum",
    )
    p.add_argument("--inputs", metavar="X,Y,Z", help="pinned inputs for --theory specific")
    p.set_defaults(func=cmd_monogamy)

    p = sub.add_parser("case-study", help="run one of the packaged studies")
    p.add_argument("study", choices=("loop", "compass", "affects"))
    p.add_argument(
        "--layout",
        choices=("degenerate", "fig5"),
        default="degenerate",
        help="embedding for the loop study",
    )
    p.add_argument("--lam", default="1/3", metavar="RAT", help="first jammer weight")
    p.add_argument("--mu", default="2/5", metavar="RAT", help="second jammer weight")
    p.add_argument("--ablate", metavar="LABEL", help="compass line to withhold")
    p.add_argument(
        "--model", choices=MODELS, default="loop", help="mechanism for the affects study"
    )
    p.set_defaults(func=cmd_case_study)

    p = sub.add_parser("render", help="draw a scenario as a deterministic SVG")
    _scenario_flags(p)
    p.add_argument("--out", default=".", metavar="DIR", help="figure directory")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as err:
        print(err.message, file=sys.stderr)
        return err.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
