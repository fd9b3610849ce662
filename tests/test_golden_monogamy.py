"""Golden `monogamy` outputs: stdout and exit code, byte for byte.

The cases cover the signalling closed form, the no-signalling LP and
the fixed-bystander optimum on the four named games, and the
no-signalling LP on a 3x3 game file.  The LP witness is the primal
vertex the exact simplex ends on, so these files pin its basis
sequence.  The expected files are written by tests/golden/regen.py; a
change to them is a declared change of the canonical output.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)

CASES = regen.load_cases("monogamy")


@pytest.mark.parametrize("name", sorted(CASES))
def test_monogamy_matches_golden(name, tmp_path):
    code, out = regen.run_case("monogamy", CASES[name], str(tmp_path))
    expected_code, expected_out = regen.expected("monogamy", name)
    assert out.encode("utf-8") == expected_out
    assert code == expected_code
