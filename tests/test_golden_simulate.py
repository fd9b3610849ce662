"""Golden `simulate` outputs: stdout and exit code, byte for byte.

The cases cover the chi2 branch (the default 10 000 trials), the
exact_mc branch (8 trials) on the two-cell degenerate_loop preset and on
a four-cell scenario file with non-dyadic tables, the README example, a
box with no violation and a seed outside the unsigned 64-bit range.  The expected files are
written by tests/golden/regen.py; a change to them is a declared change
of the mapping from seed to counts or of the canonical output.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)

CASES = regen.load_cases("simulate")


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_matches_golden(name, tmp_path):
    code, out = regen.run_case("simulate", CASES[name], str(tmp_path))
    expected_code, expected_out = regen.expected("simulate", name)
    assert out.encode("utf-8") == expected_out
    assert code == expected_code
