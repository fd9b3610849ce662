"""Malformed-input fuzzer: mutated preset scenarios and games through
every command that reads them.

Each mutation changes one spot of a valid document: a value of the
wrong type, a missing key, a list grown or cut short (wrong arity,
short or long points), or an index out of range.  Whatever the damage,
the command must exit with a documented code other than 4, a usage
error must be one line on stderr, and exit 1 must come with the
violations it reports.
"""

import contextlib
import copy
import io
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from causalbox import scenario as sc
from causalbox.cli import main

BOX_PRESETS = ("bell_standard", "jamming_triangle", "degenerate_loop")
GAMES = ({"m": 2, "f": [[0, 0], [0, 1]]}, {"m": 2, "f": [[0, 0], [1, 1]]})
WRONG = (None, True, 1.5, -1, 7, "x", "1/0", [], {}, ["0"], {"kind": "minkowski"})
SCENARIO_COMMANDS = (
    ("check",),
    ("constraints",),
    ("protocol",),
    ("simulate", "--seed", "3", "--trials", "40"),
    ("render",),
)


def _preset_document(name):
    scen = sc.preset(name)
    return json.loads(sc.dumps(sc.box_to_json(scen.order, scen.box)))


DOCUMENTS = {name: _preset_document(name) for name in BOX_PRESETS}


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, path + (i,))


def _mutate(doc, data):
    """One damaged copy of doc, with the damage drawn from data."""
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]), label="path")
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    target = parent[key]
    ops = ["wrong_type", "drop"]
    if isinstance(target, list):
        ops += ["grow", "shrink"]
    if isinstance(target, int) and not isinstance(target, bool):
        ops.append("out_of_range")
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "wrong_type":
        parent[key] = data.draw(st.sampled_from(WRONG), label="value")
    elif op == "drop":
        del parent[key]
    elif op == "grow":
        target.append(copy.deepcopy(target[-1]) if target else "0")
    elif op == "shrink":
        if target:
            target.pop()
        else:
            del parent[key]
    else:
        parent[key] = data.draw(st.sampled_from((-1, 99)), label="index")
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _check_outcome(command, code, out, err):
    assert code in (0, 1, 2, 3), (command, code, err)
    if code == 3:
        assert len(err.strip().splitlines()) == 1, (command, err)
    if code == 1:
        assert json.loads(out)["violations"], (command, out)


@settings(
    max_examples=40,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.sampled_from(BOX_PRESETS), st.data())
def test_mutated_scenarios_exit_cleanly(name, data):
    doc = _mutate(DOCUMENTS[name], data)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/mutated.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in SCENARIO_COMMANDS:
            argv = (*command, "--scenario", path)
            if command[0] == "render":
                argv += ("--out", tmp)
            _check_outcome(command[0], *_run(argv))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.sampled_from(range(len(GAMES))), st.data())
def test_mutated_games_exit_cleanly(index, data):
    doc = _mutate(GAMES[index], data)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/game.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for theory in ("signalling", "ns", "specific"):
            _check_outcome("monogamy", *_run(("monogamy", "--game", path, "--theory", theory)))


@pytest.mark.parametrize(
    "doc",
    [
        {"m": 2.9, "f": [[0, 0], [0, 1.7]]},
        {"m": 2.0, "f": [[0, 0], [0, 1]]},
        {"m": 2, "f": [[0, 0], [0, 1.0]]},
        {"m": True, "f": [[0]]},
        {"m": 2, "f": [[False, False], [False, True]]},
        {"m": "2", "f": [[0, 0], [0, 1]]},
        {"m": 2, "f": [["0", "0"], ["0", "1"]]},
        {"m": 2, "f": ["00", "01"]},
    ],
)
def test_game_file_rejects_non_integers(doc, tmp_path):
    # int() would truncate or coerce each of these into a valid game.
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for theory in ("signalling", "ns", "specific"):
        code, out, err = _run(("monogamy", "--game", str(path), "--theory", theory))
        assert code == 3, (doc, theory, out)
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
