"""Regenerate the golden `jam-geometry` outputs under tests/golden/jam/.

Each case in jam/cases.json is run through the CLI from a fresh working
directory with the relative figure directory `fig`, so the `svg` path in
the report is stable.  Stdout is stored byte for byte as <case>.stdout
and the exit code as <case>.exit.  tests/test_golden_jam.py compares the
current CLI against these files.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen_jam.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

JAM_DIR = Path(__file__).resolve().parent / "jam"
OUT_DIR = "fig"


def load_cases() -> dict[str, list[str]]:
    return json.loads((JAM_DIR / "cases.json").read_text(encoding="utf-8"))


def run_case(args: list[str], workdir: str) -> tuple[int, str]:
    """Exit code and stdout of `jam-geometry <args> --out fig` run in workdir."""
    from causalbox.cli import main

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(["jam-geometry", *args, "--out", OUT_DIR])
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue()


def main() -> int:
    for name, args in load_cases().items():
        with tempfile.TemporaryDirectory() as workdir:
            code, out = run_case(args, workdir)
        (JAM_DIR / f"{name}.stdout").write_bytes(out.encode("utf-8"))
        (JAM_DIR / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
