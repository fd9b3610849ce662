#!/usr/bin/env python3
"""causalbox benchmark: seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py --workload ons_scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's src/.  --trace 0 measures the end-to-end metrics, with op
times normalised to a nominal host speed (see harness.normalised_times);
--trace 1 runs the same ops untraced and then traced, checks that both
produce the same outcomes, and reports the per-module metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys
from time import perf_counter

import harness
from harness import ROOT, SRC

WORKLOADS = ("cli", "ons_scan", "simulate", "certify")
SETUP_SAMPLES = 3
SETUP_PROBES = 5

# Metric name -> unit, for every metric this benchmark can print.
UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "error_rate": "ratio",
    "undecided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "import_s": "s",
    "ops": "count",
    "passes": "count",
    "wall.setup_s": "s",
    "wall.ops_per_s": "1/s",
    "wall.op_ms.p50": "ms",
    "wall.op_ms.p90": "ms",
    "probe_ms.p50": "ms",
}
END_TO_END = ("setup_s", "ops_per_s", "op_ms.p50", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: time one set-up in a fresh process; print its seconds "
        "and the speed probes before and after it",
    )
    return parser.parse_args(argv)


def _set_up(name: str, seed: int):
    """Import, input generation and one untimed warm-up op, with the
    host's speed probed just before and just after."""
    before = _probe()
    start = perf_counter()
    module = importlib.import_module(f"wl_{name}")
    workload = module.Workload(seed)
    warm = harness.run_op(workload, workload.warmup_spec())
    seconds = perf_counter() - start
    if warm.errors:
        raise RuntimeError(f"warm-up op failed: {warm.errors[0]}")
    return workload, (seconds, before, _probe())


def _probe() -> float:
    return harness.median([harness.speed_probe() for _ in range(SETUP_PROBES)])


def _setup_seconds(args, first: tuple) -> tuple[float, float]:
    """Median set-up time over this process's set-up and fresh-process
    repeats: at the nominal host speed (see harness.normalised_times),
    and in plain wall time."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        child = harness.run_child(
            [
                sys.executable,
                str(ROOT / "perfbench" / "run.py"),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ]
        )
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.decode()[-400:]}")
        samples.append(tuple(map(float, child.stdout.decode().split()[-3:])))
    norm = [t * harness.PROBE_NOMINAL_S / ((a + b) / 2) for t, a, b in samples]
    return harness.median(norm), harness.median([t for t, _, _ in samples])


def _metric(name: str, value) -> dict:
    return {"value": value, "unit": UNITS.get(name) or _layer_unit(name)}


def _layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".self_ms")) or ".self_ms." in name or name.startswith("cli."):
        return "ms"
    if name.endswith(".us") or ".us." in name:
        return "us"
    if name.endswith("_ratio") or name.startswith("protocol.simulate.share"):
        return "ratio"
    if name.endswith("draws_per_s"):
        return "1/s"
    return "count"


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (SRC / "causalbox" / "__init__.py").is_file():
        print(f"error: no causalbox sources under {SRC}", file=sys.stderr)
        return 2
    harness.ensure_hermetic([str(ROOT / "perfbench" / "run.py"), *argv])

    if args.setup_probe:
        _, sample = _set_up(args.workload, args.seed)
        print(*sample)
        return 0

    workload, first_setup = _set_up(args.workload, args.seed)
    import causalbox

    if not causalbox.__file__.startswith(str(SRC)):
        print(f"error: imported causalbox from {causalbox.__file__}", file=sys.stderr)
        return 2

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": harness.HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "run": harness.describe_run(),
    }
    if args.trace:
        records, extra_errors, layer = _traced(workload, args.seconds)
        metrics = {name: _metric(name, value) for name, value in layer.items()}
    else:
        records, passes = harness.closed_loop(workload, args.seconds)
        extra_errors = workload.finish(records)
        e2e = harness.loop_metrics(records, len(workload.ops))
        e2e.update(workload.extra_metrics(records) if hasattr(workload, "extra_metrics") else {})
        e2e["setup_s"], e2e["wall.setup_s"] = _setup_seconds(args, first_setup)
        e2e["passes"] = passes
        e2e.setdefault("peak_rss_mb", harness.peak_rss_mb())
        report["end_to_end"] = {k: _metric(k, v) for k, v in sorted(e2e.items())}
        report["pass_ops_per_s"] = harness.pass_rates(records)
        metrics = {name: _metric(name, e2e[name]) for name in END_TO_END}
    report["input_shares"] = workload.shares(records)
    failures = [e for rec in records for e in rec.errors] + extra_errors
    # A failed aggregate check or a traced/untraced mismatch implicates
    # every op of the run.
    failed = len(records) if extra_errors else sum(rec.status == "failed" for rec in records)
    report["failures"] = failures[:20]
    print(json.dumps(report, indent=1, sort_keys=True))
    shutil.rmtree(harness.OUT_DIR, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _traced(workload, seconds: float):
    """Run every op untraced and then traced, back to back, so that both
    see the same machine speed and the overhead is not swamped by it.

    The cli workload's untraced op is a child process, while its traced
    op calls cli.main in-process; an untraced in-process call in between
    is the baseline for the tracing overhead."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    children = hasattr(workload, "in_process")

    def step(wl, spec, op_id, pass_no):
        child = harness.run_op(wl, spec, op_id, pass_no) if children else None
        if children:
            wl.in_process = True
        # Alternate which of the pair runs first, so that caches the first
        # call warms (mpmath's constants, for one) favour neither side.
        if op_id % 2:
            traced = harness.run_op(wl, spec, op_id, pass_no, tracer)
            base = harness.run_op(wl, spec, op_id, pass_no)
        else:
            base = harness.run_op(wl, spec, op_id, pass_no)
            traced = harness.run_op(wl, spec, op_id, pass_no, tracer)
        if children:
            wl.in_process = False
        return (child if children else base), base, traced

    triples, _ = harness.closed_loop(workload, seconds, step, whole_first_pass=False)
    plain, base, traced = (list(p) for p in zip(*triples))
    errors = workload.finish(plain) + workload.finish(traced)
    for i, (a, b, c) in enumerate(triples):
        if not a.digest == b.digest == c.digest:
            errors.append(f"op {i} ({a.label}): traced outcome differs from untraced")
    layer = layer_metrics(tracer)
    layer["trace.overhead_ratio"] = (
        sum(rec.seconds for rec in traced) / sum(rec.seconds for rec in base) - 1.0
    )
    layer.update(harness.cli_layer([rec.seconds for rec in plain] if children else None))
    records = plain + (base if children else []) + traced
    return records, errors, layer


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
