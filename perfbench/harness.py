"""Closed-loop runner, statistics and run description shared by every
workload.  Standard library only, so that set-up time is causalbox's
import and not the benchmark's."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import selectors
import subprocess
import sys
import tomllib
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / ".run"

# Seed reserved for confirming a claimed gain; never used while tuning.
HOLDOUT_SEED = 7919
# Work in one speed_probe() call: under a millisecond on a 2020s core.
PROBE_STEPS = 60
# speed_probe() seconds that normalised op times are scaled to.
PROBE_NOMINAL_S = 0.0004
# A child that runs longer is killed, so a run stays within its time limit.
CHILD_TIMEOUT_S = 120.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_RECORDED_PRECISION = "PERFBENCH_RECORDED_CAUSALBOX_PRECISION"


# ----------------------------------------------------------------------
# environment


def ensure_hermetic(argv: list[str]) -> None:
    """Re-execute this script, unless already done, in the environment
    that it and every process it starts use: the checkout's src on the
    path, no precision override (the value found is recorded), one BLAS
    and OpenMP thread, a fixed hash seed, and no bytecode writes, so
    every run imports src the same way.

    The hash seed and thread limits only take effect at interpreter
    start, hence the exec rather than an in-place update."""
    if os.environ.get("PERFBENCH_HERMETIC") == "1":
        return
    env = dict(os.environ)
    env[_RECORDED_PRECISION] = env.pop("CAUSALBOX_PRECISION", "")
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in _THREAD_VARS:
        env[var] = "1"
    env["PERFBENCH_HERMETIC"] = "1"
    os.execve(sys.executable, [sys.executable, *argv], env)


# ----------------------------------------------------------------------
# child processes


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    maxrss_mb: float


def run_child(argv: list[str]) -> ChildResult:
    """Run one child to completion, timed from spawn to exit, and return
    its output with its own peak memory (from wait4)."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                remaining = CHILD_TIMEOUT_S - (perf_counter() - start)
                ready = sel.select(max(remaining, 0.0))
                if not ready:
                    raise TimeoutError(f"{argv!r} ran longer than {CHILD_TIMEOUT_S} s")
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        seconds,
        usage.ru_maxrss / 1024.0,
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of nonempty values."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# the closed loop


@dataclass
class Outcome:
    """What one op produced.  `summary` is compared between the traced
    and untraced runs; `payload` carries objects for the checks."""

    status: str  # "ok" or "undecided"
    summary: tuple
    detail: dict = field(default_factory=dict)
    payload: object = None


@dataclass
class Record:
    """One attempted op: which pass it ran in, how long, and what it
    produced."""

    pass_no: int
    label: str
    seconds: float
    status: str  # "ok", "undecided" or "failed"
    digest: str
    errors: list[str] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    probe: float = 0.0  # speed_probe() seconds just before the op


def speed_probe() -> float:
    """Seconds taken by a fixed pure-Python kernel (Fraction arithmetic,
    tuple keys, a dict) that uses no causalbox code: the host's speed at
    the moment, on the kind of work causalbox does."""
    start = perf_counter()
    third = Fraction(1, 3)
    seen = {}
    acc = Fraction(0)
    for i in range(PROBE_STEPS):
        q = Fraction(i % 7 + 1, i % 11 + 2) * third + Fraction(1, i % 5 + 2)
        seen[(i % 13, q)] = q < acc
        acc = q if q > acc else acc - q
    return perf_counter() - start


def run_op(workload, spec, op_id: int = 0, pass_no: int = 0, tracer=None) -> Record:
    """Probe the host's speed, then prepare (untimed), run (timed) and
    check (untimed) one op."""
    probe = speed_probe()
    args = workload.prepare(spec)
    if tracer is not None:
        tracer.begin_op(op_id)
    start = perf_counter()
    try:
        outcome = workload.run(args)
        error = None
    except Exception as exc:  # any undocumented exception fails the op
        outcome = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.end_op(seconds)
    label = workload.label(spec)
    if error is not None:
        return Record(pass_no, label, seconds, "failed", "error", [f"{label}: {error}"], probe=probe)
    errors = [f"{label}: {e}" for e in workload.check(spec, args, outcome)]
    status = "failed" if errors else outcome.status
    digest = hashlib.sha1(repr(outcome.summary).encode()).hexdigest()[:16]
    return Record(pass_no, label, seconds, status, digest, errors, outcome.detail, probe=probe)


def closed_loop(workload, seconds: float, step=run_op, whole_first_pass: bool = True):
    """One client, one op at a time, cycling through the workload's
    fixed pass of ops (`workload.ops`).

    The next op starts only while its previous duration still fits in
    `seconds`, so a run ends a little before `seconds` and its last pass
    may be partial; the first op, and with `whole_first_pass` the whole
    first pass, always runs.  Op i is slot i mod len(ops) of pass
    i // len(ops).  step(workload, spec, op_id, pass) runs one op and
    returns what it recorded."""
    ops = workload.ops
    results: list = []
    last = [0.0] * len(ops)
    start = perf_counter()
    while True:
        slot = len(results) % len(ops)
        must = len(results) < (len(ops) if whole_first_pass else 1)
        if not must and perf_counter() - start + last[slot] > seconds:
            break
        began = perf_counter()
        results.append(step(workload, ops[slot], len(results), len(results) // len(ops)))
        last[slot] = perf_counter() - began
    return results, -(-len(results) // len(ops))


def pass_rates(records: list[Record]) -> list[float]:
    """Ops per second of op time in each pass: how much the machine's
    speed moved within the run."""
    passes: dict = {}
    for rec in records:
        passes.setdefault(rec.pass_no, []).append(rec.seconds)
    return [len(ts) / sum(ts) for ts in passes.values()]


def normalised_times(records: list[Record]) -> list[float]:
    """Each op's time at the nominal host speed: its wall time scaled by
    PROBE_NOMINAL_S over the median of the speed probes taken just before
    it, just after it, and one op further on each side.  The shared
    host's speed swings by up to 60 % within seconds and drifts over
    minutes; the probe runs in the same process in the same moments, so
    the ratio keeps the program's cost and drops most of the host's."""
    probes = [rec.probe for rec in records]
    return [
        rec.seconds * PROBE_NOMINAL_S / median(probes[max(i - 1, 0) : i + 3])
        for i, rec in enumerate(records)
    ]


def loop_metrics(records: list[Record], pass_len: int) -> dict:
    """Throughput and percentiles over one pass at the nominal host
    speed: each slot's time is the mean of its normalised times, so every
    op of the pass counts once whether or not the last pass was whole.
    Checks run between ops and are not timed.  The `wall.` figures use
    every op's plain wall time."""
    norm = normalised_times(records)
    slots = [sum(norm[s::pass_len]) / len(norm[s::pass_len]) for s in range(pass_len)]
    wall = [rec.seconds for rec in records]
    n = len(records)
    out = {
        "ops": n,
        "ops_per_s": pass_len / sum(slots),
        "op_ms.p50": 1000.0 * median(slots),
        "wall.ops_per_s": n / sum(wall),
        "wall.op_ms.p50": 1000.0 * median(wall),
        "probe_ms.p50": 1000.0 * median([rec.probe for rec in records]),
        "error_rate": sum(rec.status == "failed" for rec in records) / n,
        "undecided_ratio": sum(rec.status == "undecided" for rec in records) / n,
    }
    # A percentile is reported only with at least ten samples beyond it.
    if pass_len >= 100:
        out["op_ms.p90"] = 1000.0 * percentile(slots, 0.9)
    if n >= 100:
        out["wall.op_ms.p90"] = 1000.0 * percentile(wall, 0.9)
    return out


# ----------------------------------------------------------------------
# start-up cost of the command line

THIRD_PARTY = ("numpy", "scipy", "mpmath")


def import_profile() -> tuple[float, float]:
    """(total, third-party) import milliseconds from `python -X
    importtime`: the cumulative time of causalbox, and the summed
    cumulative times of the outermost numpy, scipy and mpmath imports."""
    child = run_child([sys.executable, "-X", "importtime", "-c", "import causalbox"])
    entries = []
    for line in child.stderr.decode().splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total = third = 0
    parents: list[tuple[int, str]] = []
    # importtime prints children before their parent; walk backwards so
    # each entry meets its parent first.
    for depth, name, cumulative in reversed(entries):
        while parents and parents[-1][0] >= depth:
            parents.pop()
        root = name.split(".")[0]
        parent_root = parents[-1][1].split(".")[0] if parents else None
        if name == "causalbox" and not parents:
            total = cumulative
        if root in THIRD_PARTY and parent_root not in THIRD_PARTY:
            third += cumulative
        parents.append((depth, name))
    return total / 1000.0, third / 1000.0


def cli_layer(op_seconds: list[float] | None) -> dict:
    """Interpreter start, import and (for `python -m causalbox` ops) the
    rest of the op wall time, which is the command itself."""
    interpreter = 1000.0 * median(
        [run_child([sys.executable, "-c", "pass"]).seconds for _ in range(5)]
    )
    profiles = [import_profile() for _ in range(3)]
    import_ms = median([p[0] for p in profiles])
    command = 1000.0 * median(op_seconds) - interpreter - import_ms if op_seconds else 0.0
    return {
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": import_ms,
        "cli.import_ms.third_party": median([p[1] for p in profiles]),
        "cli.command_ms": command,
    }


# ----------------------------------------------------------------------
# run description


def describe_run() -> dict:
    versions = {}
    for pkg in THIRD_PARTY:
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    lines = 0
    digest = hashlib.sha256()
    for path in sorted((SRC / "causalbox").glob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.name.encode() + b"\0" + data)
    with open(ROOT / "pyproject.toml", "rb") as handle:
        deps = tomllib.load(handle).get("project", {}).get("dependencies", [])
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "packages": versions,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
        "runtime_dependencies": deps,
        "env": {
            "PYTHONPATH": os.environ.get("PYTHONPATH"),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "threads": {v: os.environ.get(v) for v in _THREAD_VARS},
            "CAUSALBOX_PRECISION_at_start": os.environ.get(_RECORDED_PRECISION) or None,
        },
    }


def _commit() -> str | None:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None
