"""cli: one `python -m causalbox <cmd>` child process per op.

A pass runs every subcommand once on a preset, one child at a time,
each timed from spawn to exit.  Interpreter start-up and import dominate
these ops, so this is the workload where import cost shows per op.  The
traced run calls causalbox.cli.main(argv) in-process on the same
commands, which is where the scenario, svg and casestudies layers show.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import harness
from harness import OUT_DIR, Outcome


def _canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _check_degenerate(doc):
    if doc["instances"] != 4158 or not doc["violations"]:
        return "expected 4158 instances and some violations"


def _check_simulation(trials):
    def check(doc):
        sim = doc["simulation"]
        if doc["protocol"]["total_variation"] != "1/2":
            return "protocol total variation is not 1/2"
        if sim["trials"] != trials or sum(sim["counts_a"].values()) != trials:
            return "simulation counts do not sum to the trial count"
        if sum(sim["counts_b"].values()) != trials or not sim["reject"]:
            return "second arm miscounted or the violating protocol was not rejected"

    return check


def _check_written(doc):
    path = Path(doc["written"])
    if path.parent != OUT_DIR or not path.read_text().lstrip().startswith("<"):
        return "figure not written under the output directory"


# (label, argv after `-m causalbox`, expected exit code, check of the
# parsed report returning an error message or None).  Exit codes: 0 pass,
# 1 violation or contradiction found.
def _commands(sim_seed: int, trials: int):
    out = str(OUT_DIR)
    return (
        ("check/bell_standard", ["check", "--preset", "bell_standard"], 0,
         lambda d: None if d == {"instances": 4, "violations": []} else "unexpected report"),
        ("check/degenerate_loop", ["check", "--preset", "degenerate_loop"], 1, _check_degenerate),
        ("constraints/compass", ["constraints", "--preset", "compass"], 0,
         lambda d: None if d["family"] == "compass" and len(d["lines"]) == 5 else "expected 5 compass lines"),
        ("protocol/jamming_triangle", ["protocol", "--preset", "jamming_triangle"], 0,
         lambda d: None if d == {"protocol": None, "violations": []} else "unexpected protocol"),
        ("simulate/degenerate_loop",
         ["simulate", "--preset", "degenerate_loop", "--seed", str(sim_seed), "--trials", str(trials)],
         1, _check_simulation(trials)),
        ("jam-geometry/n5", ["jam-geometry", "--n", "5", "--h", "4/5", "--out", out], 0,
         lambda d: None if d["bundle"]["ok"] and d["bundle"]["agreement"] else "bundle not ok"),
        ("monogamy/ns", ["monogamy", "--theory", "ns"], 0,
         lambda d: None if d["value"] == "3/2" == d["lp_objective"] else "CHSH value is not 3/2"),
        ("case-study/compass", ["case-study", "compass"], 1,
         lambda d: None if d["contradiction"] is True else "no contradiction found"),
        ("render/six_config", ["render", "--preset", "six_config", "--out", out], 0, _check_written),
    )


class Workload:
    TRIALS = 400

    def __init__(self, seed: int):
        rng = random.Random(f"cli:{seed}")
        self.ops = list(_commands(rng.randrange(2**32), self.TRIALS))
        rng.shuffle(self.ops)
        self.in_process = False
        self.first_stdout: dict = {}
        self.child_rss_mb = 0.0
        OUT_DIR.mkdir(parents=True, exist_ok=True)

    def warmup_spec(self):
        return self.ops[0]

    def label(self, spec) -> str:
        return spec[0]

    def prepare(self, spec):
        return spec[1]

    def run(self, argv) -> Outcome:
        if self.in_process:
            import causalbox.cli

            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = causalbox.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            stdout = out.getvalue()
        else:
            child = harness.run_child([sys.executable, "-m", "causalbox", *argv])
            self.child_rss_mb = max(self.child_rss_mb, child.maxrss_mb)
            code, stdout = child.code, child.stdout.decode("utf-8")
        return Outcome("undecided" if code == 2 else "ok", (code, stdout), {}, (code, stdout))

    def check(self, spec, args, outcome: Outcome) -> list[str]:
        label, _, expected, check_doc = spec
        code, stdout = outcome.payload
        if code != expected:
            return [f"exit code {code}, expected {expected}"]
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not JSON: {exc}"]
        if _canonical(doc) != stdout:
            return ["stdout is not canonical JSON"]
        first = self.first_stdout.setdefault(label, stdout)
        if first != stdout:
            return ["stdout differs from an earlier run of the same command"]
        problem = check_doc(doc)
        return [problem] if problem else []

    def finish(self, records) -> list[str]:
        return []

    def extra_metrics(self, records) -> dict:
        samples = [
            harness.run_child([sys.executable, "-c", "import causalbox"]).seconds for _ in range(5)
        ]
        return {"import_s": harness.median(samples), "peak_rss_mb": self.child_rss_mb}

    def shares(self, records) -> dict:
        return {"commands_per_pass": len(self.ops), "commands": [c[0] for c in self.ops]}
