"""Golden `jam-geometry` outputs: stdout and exit code, byte for byte.

The expected files are written by tests/golden/regen_jam.py; a change to
them is a declared change of the canonical output.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "regen_jam", Path(__file__).parent / "golden" / "regen_jam.py"
)
regen_jam = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen_jam)

CASES = regen_jam.load_cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_jam_geometry_matches_golden(name, tmp_path):
    code, out = regen_jam.run_case(CASES[name], str(tmp_path))
    expected_out = (regen_jam.JAM_DIR / f"{name}.stdout").read_bytes()
    expected_code = int((regen_jam.JAM_DIR / f"{name}.exit").read_text())
    assert out.encode("utf-8") == expected_out
    assert code == expected_code
