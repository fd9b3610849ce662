"""Golden `check`, `constraints` and `protocol` outputs on the presets:
stdout and exit code, byte for byte.

The expected files are written by tests/golden/regen.py; a change to
them is a declared change of the canonical output.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "regen", Path(__file__).parent / "golden" / "regen.py"
)
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)

CASES = regen.load_cases("ons")


@pytest.mark.parametrize("name", sorted(CASES))
def test_ons_command_matches_golden(name, tmp_path):
    code, out = regen.run_case("ons", CASES[name], str(tmp_path))
    expected_code, expected_out = regen.expected("ons", name)
    assert out.encode("utf-8") == expected_out
    assert code == expected_code
