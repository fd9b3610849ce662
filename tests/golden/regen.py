"""Regenerate the golden CLI outputs under tests/golden/<corpus>/.

Four corpora share this harness:

- jam: `jam-geometry <args> --out fig` for each case in jam/cases.json;
- ons: the full argument list of each case in ons/cases.json (`check`,
  `constraints` and `protocol` on the built-in presets, and on a 3+1
  jamming scenario file);
- simulate: the full argument list of each case in simulate/cases.json
  (both test branches, a clean box, an out-of-range seed and a
  four-cell exact_mc case on a scenario file);
- monogamy: the full argument list of each case in monogamy/cases.json
  (every theory on the four named games, and the no-signalling LP on a
  3x3 game file).

In the ons, simulate and monogamy corpora an argument ending in `.json` names
a file in the corpus directory and is passed on as its absolute path.

Each case runs through the CLI from a fresh working directory, so the
relative figure directory `fig` keeps the `svg` path in a report stable.
Stdout is stored byte for byte as <case>.stdout and the exit code as
<case>.exit.  tests/test_golden_jam.py, tests/test_golden_ons.py,
tests/test_golden_simulate.py and tests/test_golden_monogamy.py compare
the current CLI against these files.

Run from the repository root, naming the corpora to rewrite (default:
all of them):

    PYTHONPATH=src python tests/golden/regen.py [jam] [ons] [simulate] [monogamy]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent
OUT_DIR = "fig"


def _with_corpus_files(corpus: str):
    """Argument mapper that resolves each `.json` argument in corpus/."""
    return lambda args: [
        str(GOLDEN_DIR / corpus / a) if a.endswith(".json") else a for a in args
    ]


# Corpus name -> the CLI argument list of one case's stored arguments.
CORPORA = {
    "jam": lambda args: ["jam-geometry", *args, "--out", OUT_DIR],
    "ons": _with_corpus_files("ons"),
    "simulate": _with_corpus_files("simulate"),
    "monogamy": _with_corpus_files("monogamy"),
}


def load_cases(corpus: str) -> dict[str, list[str]]:
    path = GOLDEN_DIR / corpus / "cases.json"
    return json.loads(path.read_text(encoding="utf-8"))


def run_case(corpus: str, args: list[str], workdir: str) -> tuple[int, str]:
    """Exit code and stdout of one case of `corpus` run in workdir."""
    from causalbox.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(CORPORA[corpus](args))
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def expected(corpus: str, name: str) -> tuple[int, bytes]:
    """Stored exit code and stdout bytes of one case."""
    base = GOLDEN_DIR / corpus / name
    code = int(base.with_suffix(".exit").read_text(encoding="utf-8"))
    return code, base.with_suffix(".stdout").read_bytes()


def regenerate(corpus: str) -> None:
    for name, args in load_cases(corpus).items():
        with tempfile.TemporaryDirectory() as workdir:
            code, out = run_case(corpus, args, workdir)
        base = GOLDEN_DIR / corpus / name
        base.with_suffix(".stdout").write_bytes(out.encode("utf-8"))
        base.with_suffix(".exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{corpus}/{name}: exit {code}", file=sys.stderr)


def main(argv: list[str]) -> int:
    unknown = [c for c in argv if c not in CORPORA]
    if unknown:
        print(f"unknown corpus: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for corpus in argv or CORPORA:
        regenerate(corpus)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
