"""Command line contract: exit codes, JSON reports, figure files."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from itertools import product

import pytest

import causalbox
from causalbox import cli
from causalbox import scenario as sc
from causalbox import svg
from causalbox.boxes import Alphabet, CorrelationBox, Srv
from causalbox.cli import main
from causalbox.geometry import Event, Minkowski

PASS, FOUND, USAGE, INTERNAL = 0, 1, 3, 4

BITS = Alphabet.binary()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def triangle_file(tmp_path):
    scen = sc.preset("jamming_triangle")
    path = tmp_path / "jamming_triangle.json"
    path.write_text(sc.dumps(sc.box_to_json(scen.order, scen.box)))
    return str(path)


@pytest.fixture
def joint_avoidance_file(tmp_path):
    # 3+1 dimensions, two avoided events flanking the joint future: the
    # bisector half-spaces force y < -7.5 and y > 7.5 at once, so the
    # outputs cannot be gathered while avoiding both inputs
    ins = (
        Srv("X1", BITS, Event.at(0, 0, 1, 0)),
        Srv("X2", BITS, Event.at(0, 0, -1, 0)),
    )
    outs = (
        Srv("A", BITS, Event.at(0, -4, 0, 0)),
        Srv("B", BITS, Event.at(0, 4, 0, 0)),
    )
    table = {
        (x1, x2): {(a, b): Fraction(1, 4) for a, b in product("01", repeat=2)}
        for x1, x2 in product("01", repeat=2)
    }
    box = CorrelationBox(inputs=ins, outputs=outs, table=table)
    path = tmp_path / "joint_avoidance.json"
    path.write_text(sc.dumps(sc.box_to_json(Minkowski(3), box)))
    return str(path)


class TestCheck:
    def test_triangle_file_passes(self, capsys, triangle_file):
        code, doc = out_json(capsys, "check", "--scenario", triangle_file)
        assert code == PASS
        assert doc == {"instances": 2, "violations": []}

    def test_degenerate_preset_reports_violations(self, capsys):
        code, doc = out_json(capsys, "check", "--preset", "degenerate_loop")
        assert code == FOUND
        assert doc["violations"]
        featured = [
            v
            for v in doc["violations"]
            if v["F"] == [0, 2] and v["G"] == [1] and v["p2"] == "1"
        ]
        assert featured and featured[0]["p1"] == "1/2"

    def test_preset_without_box_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "--preset", "six_config")
        assert code == USAGE
        assert "no correlation box" in err

    def test_joint_avoidance_in_space_is_decided(self, capsys, joint_avoidance_file):
        code, doc = out_json(capsys, "check", "--scenario", joint_avoidance_file)
        assert code == PASS
        # Each input alone leaves room, both together do not: 8 of the 9
        # (F, G) pairs emit instances, and the uniform box violates none.
        assert doc == {"instances": 24, "violations": []}
        code, doc = out_json(capsys, "constraints", "--scenario", joint_avoidance_file)
        pairs = {(tuple(i["F"]), tuple(i["G"])) for i in doc["instances"]}
        assert ((0, 1), (0, 1)) not in pairs
        assert len(pairs) == 8

    def test_budget_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--preset", "bell_standard", "--budget", "8"])
        assert exc.value.code == USAGE
        assert "--budget" in capsys.readouterr().err

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"backend": {"kind": "minkowski" "dim": 1}}')
        code, _, err = run(capsys, "check", "--scenario", str(path))
        assert code == USAGE
        assert "line 1 column 34" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--scenario", "/nonexistent/x.json")
        assert code == USAGE

    def test_scenario_and_preset_exclusive(self, capsys, triangle_file):
        code, _, err = run(
            capsys, "check", "--scenario", triangle_file, "--preset", "bell_standard"
        )
        assert code == USAGE
        assert "exactly one" in err
        code, _, _ = run(capsys, "check")
        assert code == USAGE

    def test_invalid_box_rejected(self, capsys, tmp_path):
        doc = {
            "backend": {"kind": "minkowski", "dim": 1},
            "inputs": [{"name": "X", "alphabet": ["0", "1"], "point": ["0", "0"]}],
            "outputs": [{"name": "A", "alphabet": ["0", "1"], "point": ["1", "0"]}],
            "pairing": [[0, 0]],
            "table": {"0": {"0": "1/3"}, "1": {"0": "1/2", "1": "1/2"}},
        }
        path = tmp_path / "lopsided.json"
        path.write_text(sc.dumps(doc))
        code, _, err = run(capsys, "check", "--scenario", str(path))
        assert code == USAGE
        assert "failed validation" in err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("pairing", [[0, 99]]),
            ("backend", {"kind": "minkowski", "dim": 1.5}),
            # a 1+1 point with no spatial coordinate
            (
                "inputs",
                [
                    {"name": "X", "alphabet": ["0", "1"], "point": ["0"]},
                    {"name": "Y", "alphabet": ["0", "1"], "point": ["0", "6"]},
                ],
            ),
            # a null probability; it once escaped as TypeError, exit 4
            ("table", {"0,0": {"0,0": None}}),
        ],
    )
    def test_malformed_field_is_usage_error(self, capsys, tmp_path, field, value):
        scen = sc.preset("bell_standard")
        doc = sc.box_to_json(scen.order, scen.box)
        doc[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(sc.dumps(doc))
        for command in ("check", "constraints", "protocol", "render"):
            argv = [command, "--scenario", str(path)]
            if command == "render":
                argv += ["--out", str(tmp_path / "fig")]
            code, out, err = run(capsys, *argv)
            assert code == USAGE, command
            assert out == ""
            assert len(err.strip().splitlines()) == 1
            assert "Traceback" not in err


class TestConstraints:
    def test_box_scenario_lists_instances(self, capsys, triangle_file):
        code, doc = out_json(capsys, "constraints", "--scenario", triangle_file)
        assert code == PASS
        assert len(doc["instances"]) == 2
        for inst in doc["instances"]:
            assert inst["F"] == [0]
            assert inst["certificate"]["verdict"] == "separated"

    def test_compass_preset_uses_named_family(self, capsys):
        code, doc = out_json(capsys, "constraints", "--preset", "compass")
        assert code == PASS
        assert doc["family"] == "compass"
        assert [ln["label"] for ln in doc["lines"]] == [
            "ab_setting_free",
            "bc_setting_free",
            "a_setting_free",
            "b_setting_free",
            "c_setting_free",
        ]

    def test_six_config_has_six_lines(self, capsys):
        code, doc = out_json(capsys, "constraints", "--preset", "six_config")
        assert code == PASS
        assert len(doc["lines"]) == 6

    def test_family_layout_mismatch_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "constraints", "--preset", "bell_standard", "--family", "compass"
        )
        assert code == USAGE


class TestProtocol:
    def test_degenerate_yields_protocol(self, capsys):
        code, doc = out_json(capsys, "protocol", "--preset", "degenerate_loop")
        assert code == FOUND
        # first protocol the exhaustive search finds, not necessarily the
        # featured one, but always a genuine gap
        assert doc["protocol"] is not None
        assert Fraction(doc["protocol"]["total_variation"]) > 0
        assert doc["violations"]

    def test_clean_box_yields_none(self, capsys):
        code, doc = out_json(capsys, "protocol", "--preset", "bell_standard")
        assert code == PASS
        assert doc == {"protocol": None, "violations": []}


class TestSimulate:
    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--preset", "degenerate_loop"])
        assert exc.value.code == USAGE

    def test_degenerate_run_rejects_null(self, capsys):
        code, doc = out_json(
            capsys,
            "simulate",
            "--preset",
            "degenerate_loop",
            "--seed",
            "11",
            "--trials",
            "400",
        )
        assert code == FOUND
        assert doc["simulation"]["reject"] is True
        assert doc["simulation"]["trials"] == 400
        assert doc["simulation"]["seed"] == 11

    def test_identical_seed_identical_bytes(self, capsys):
        argv = ("simulate", "--preset", "degenerate_loop", "--seed", "3", "--trials", "200")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_clean_box_simulates_nothing(self, capsys):
        code, doc = out_json(
            capsys, "simulate", "--preset", "bell_standard", "--seed", "1"
        )
        assert code == PASS
        assert doc["simulation"] is None

    def test_bad_seed_trials_alpha(self, capsys):
        code, _, _ = run(
            capsys, "simulate", "--preset", "bell_standard", "--seed", str(2**64)
        )
        assert code == USAGE
        code, _, _ = run(
            capsys, "simulate", "--preset", "bell_standard", "--seed", "1", "--trials", "0"
        )
        assert code == USAGE
        code, _, _ = run(
            capsys,
            "simulate",
            "--preset",
            "bell_standard",
            "--seed",
            "1",
            "--alpha",
            "huh",
        )
        assert code == USAGE


class TestJamGeometry:
    def test_jammed_layout(self, capsys, tmp_path):
        code, doc = out_json(
            capsys, "jam-geometry", "--n", "3", "--h", "1/2", "--out", str(tmp_path)
        )
        assert code == PASS
        assert doc["bundle"]["ok"] is True
        assert doc["bundle"]["closed_form"]["full"] == "not_separated"
        content = open(doc["svg"], encoding="utf-8").read()
        assert content.startswith("<svg")

    def test_escaping_layout_still_passes(self, capsys, tmp_path):
        # h outside the jamming window: decided cleanly, just not jammed
        code, doc = out_json(
            capsys, "jam-geometry", "--n", "3", "--h", "3/4", "--out", str(tmp_path)
        )
        assert code == PASS
        assert doc["bundle"]["ok"] is False
        assert doc["bundle"]["closed_form"]["full"] == "separated"

    def test_two_receivers_unsupported(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "jam-geometry", "--n", "2", "--h", "1/2", "--out", str(tmp_path)
        )
        assert code == USAGE

    def test_precision_variable_changes_nothing(self, capsys, tmp_path, monkeypatch):
        # CAUSALBOX_PRECISION=8 used to cap the closed form at 8 bits and
        # exit 2; every comparison is exact now, so the variable is ignored.
        argv = ("jam-geometry", "--n", "5", "--h", "3/10", "--out", str(tmp_path))
        monkeypatch.delenv("CAUSALBOX_PRECISION", raising=False)
        code, plain, _ = run(capsys, *argv)
        monkeypatch.setenv("CAUSALBOX_PRECISION", "8")
        capped_code, capped, _ = run(capsys, *argv)
        assert code == capped_code == PASS
        assert capped == plain
        bundle = json.loads(capped)["bundle"]
        assert bundle["closed_form"]["full"] == "not_separated"
        assert bundle["agreement"] is True

    def test_ring_figure(self, capsys, tmp_path):
        code, doc = out_json(
            capsys, "jam-geometry", "--n", "5", "--h", "7/10", "--t", "2",
            "--out", str(tmp_path),
        )
        assert code == PASS
        assert doc["svg"] == str(tmp_path / "njam_n5_h7_10_t2.svg")
        content = open(doc["svg"], encoding="utf-8").read()
        # unit circle + 5 reach discs + escape disc + 5 dots
        assert content.count("<circle") == 12

    def test_figure_named_by_reduced_fractions(self, capsys, tmp_path):
        # One ring gets one name, however its h and t are spelled.
        paths = set()
        for h, t in (("0.7", "2"), ("7/10", "4/2"), ("14/20", "2.0")):
            code, doc = out_json(
                capsys, "jam-geometry", "--n", "5", "--h", h, "--t", t,
                "--out", str(tmp_path),
            )
            assert code == PASS
            paths.add(doc["svg"])
        assert paths == {str(tmp_path / "njam_n5_h7_10_t2.svg")}
        assert os.listdir(tmp_path) == ["njam_n5_h7_10_t2.svg"]

    def test_bad_t_rejected_before_certification(self, capsys, tmp_path, monkeypatch):
        import causalbox.jamming

        def refuse(*args, **kwargs):
            raise AssertionError("verify_config ran")

        monkeypatch.setattr(causalbox.jamming, "verify_config", refuse)
        code, out, err = run(
            capsys, "jam-geometry", "--n", "5", "--h", "7/10", "--t", "x",
            "--out", str(tmp_path),
        )
        assert code == USAGE
        assert out == "" and "'x'" in err
        assert os.listdir(tmp_path) == []

    def test_deterministic_output(self, capsys, tmp_path):
        argv = ("jam-geometry", "--n", "4", "--h", "7/10", "--out", str(tmp_path))
        code, out1, _ = run(capsys, *argv)
        assert code == PASS
        data1 = open(tmp_path / "njam_n4_h7_10_t2.svg", "rb").read()
        _, out2, _ = run(capsys, *argv)
        data2 = open(tmp_path / "njam_n4_h7_10_t2.svg", "rb").read()
        assert out1 == out2
        assert data1 == data2


class TestMonogamy:
    def test_chsh_ns_is_three_halves(self, capsys):
        code, doc = out_json(capsys, "monogamy", "--game", "chsh", "--theory", "ns")
        assert code == PASS
        assert doc["value"] == "3/2"
        assert doc["lp_objective"] == "3/2"

    def test_default_signalling_chsh(self, capsys):
        code, doc = out_json(capsys, "monogamy")
        assert code == PASS
        assert doc["value"] == "5/2"
        assert doc["theory"] == "signalling"

    def test_specific_theory(self, capsys):
        code, doc = out_json(capsys, "monogamy", "--theory", "specific")
        assert code == PASS
        assert doc["value"] == "3"

    def test_game_from_file(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text('{"m": 2, "f": [[0, 0], [0, 1]]}')
        code, doc = out_json(capsys, "monogamy", "--game", str(path))
        assert code == PASS
        assert doc["value"] == "5/2"

    def test_unknown_game_name(self, capsys):
        code, _, err = run(capsys, "monogamy", "--game", "tilted")
        assert code == USAGE
        assert "chsh" in err

    def test_malformed_game_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"m": 2,}')
        code, _, err = run(capsys, "monogamy", "--game", str(path))
        assert code == USAGE
        assert "line 1" in err

    def test_bad_inputs_flag(self, capsys):
        code, _, _ = run(
            capsys, "monogamy", "--theory", "specific", "--inputs", "0,0"
        )
        assert code == USAGE
        code, _, _ = run(
            capsys, "monogamy", "--theory", "specific", "--inputs", "0,0,5"
        )
        assert code == USAGE


class TestCaseStudy:
    def test_loop_degenerate_exits_one(self, capsys):
        code, doc = out_json(capsys, "case-study", "loop", "--layout", "degenerate")
        assert code == FOUND
        assert doc["featured"]["p1"] == "1/2"
        assert doc["featured"]["p2"] == "1"
        assert doc["protocol"]["total_variation"] == "1/2"

    def test_loop_fig5_exits_zero(self, capsys):
        code, doc = out_json(capsys, "case-study", "loop", "--layout", "fig5")
        assert code == PASS
        assert doc["ok"] is True
        assert doc["violations"] == []

    def test_compass_contradiction(self, capsys):
        code, doc = out_json(capsys, "case-study", "compass")
        assert code == FOUND
        assert doc["contradiction"] is True
        assert doc["terminal"] == ["mu = 0", "mu = 1"]

    def test_compass_ablation_opens_derivation(self, capsys):
        code, doc = out_json(
            capsys, "case-study", "compass", "--ablate", "c_setting_free"
        )
        assert code == PASS
        assert doc["contradiction"] is False

    def test_compass_bad_weight(self, capsys):
        code, _, _ = run(capsys, "case-study", "compass", "--mu", "7/5")
        assert code == USAGE
        code, _, _ = run(capsys, "case-study", "compass", "--ablate", "nope")
        assert code == USAGE

    def test_affects_study(self, capsys):
        code, doc = out_json(capsys, "case-study", "affects", "--model", "jam")
        assert code == PASS
        hits = [
            (tuple(r["sources"]), tuple(r["targets"]))
            for r in doc["relations"]
            if r["affects"]
        ]
        assert hits == [(("B",), ("A", "C"))]


class TestRender:
    @pytest.mark.parametrize(
        "preset",
        [
            "bell_standard",
            "jamming_triangle",
            "fig5",
            "degenerate_loop",
            "six_config",
            "compass",
        ],
    )
    def test_presets_render(self, capsys, tmp_path, preset):
        code, doc = out_json(
            capsys, "render", "--preset", preset, "--out", str(tmp_path)
        )
        assert code == PASS
        content = open(doc["written"], encoding="utf-8").read()
        assert content.startswith("<svg")
        assert content.endswith("</svg>\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("render", "--preset", "njam"), "invalid choice: 'njam'"),
            (("render", "--preset", "six_config", "--t", "2"), "unrecognized arguments: --t 2"),
            (("check", "--preset", "bell_standard", "--n", "3"), "unrecognized arguments: --n 3"),
        ],
        ids=["njam_preset", "render_t", "check_n"],
    )
    def test_ring_options_are_not_scenario_options(
        self, capsys, tmp_path, monkeypatch, argv, message
    ):
        # jam-geometry alone draws the n-receiver ring
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(list(argv))
        assert excinfo.value.code == USAGE
        assert message in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_finite_order_renders_layered_diagram(self, capsys, tmp_path):
        doc = {
            "backend": {
                "kind": "finite_order",
                "elements": ["a", "b", "c", "d"],
                "relations": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]],
            },
            "inputs": [{"name": "X", "alphabet": ["0", "1"], "point": "a"}],
            "outputs": [{"name": "A", "alphabet": ["0", "1"], "point": "d"}],
            "pairing": [[0, 0]],
            "table": {
                "0": {"0": "1/2", "1": "1/2"},
                "1": {"0": "1/2", "1": "1/2"},
            },
        }
        path = tmp_path / "finite.json"
        path.write_text(sc.dumps(doc))
        code, report = out_json(
            capsys, "render", "--scenario", str(path), "--out", str(tmp_path)
        )
        assert code == PASS
        content = open(report["written"], encoding="utf-8").read()
        assert content.count("<circle") == 4
        assert content.count("<line") == 4

    def test_empty_scenario_renders_axes_only(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(
            '{"backend": {"kind": "minkowski", "dim": 1}, "inputs": [],'
            ' "outputs": [], "pairing": [], "table": {}}'
        )
        code, report = out_json(
            capsys, "render", "--scenario", str(path), "--out", str(tmp_path)
        )
        assert code == PASS
        content = open(report["written"], encoding="utf-8").read()
        assert content == svg.axes_only("empty")

    def test_terminated_diagram_renders_boundary(self, capsys, tmp_path):
        doc = {
            "backend": {
                "kind": "terminated_diagram",
                "vertices": [["-4", "3"], ["0", "1"], ["4", "3"]],
            },
            "inputs": [{"name": "X", "alphabet": ["0", "1"], "point": ["0", "-2"]}],
            "outputs": [{"name": "A", "alphabet": ["0", "1"], "point": ["1/2", "2"]}],
            "pairing": [[0, 0]],
            "table": {
                "0": {"0": "1/2", "1": "1/2"},
                "1": {"0": "1/2", "1": "1/2"},
            },
        }
        path = tmp_path / "bh.json"
        path.write_text(sc.dumps(doc))
        code, report = out_json(
            capsys, "render", "--scenario", str(path), "--out", str(tmp_path)
        )
        assert code == PASS
        content = open(report["written"], encoding="utf-8").read()
        assert "<polyline" in content

    def test_render_is_deterministic(self, capsys, tmp_path):
        argv = ("render", "--preset", "fig5", "--out", str(tmp_path))
        run(capsys, *argv)
        first = open(tmp_path / "fig5.svg", "rb").read()
        run(capsys, *argv)
        assert open(tmp_path / "fig5.svg", "rb").read() == first

    def test_out_directory_created(self, capsys, tmp_path):
        target = tmp_path / "nested" / "figs"
        code, doc = out_json(
            capsys, "render", "--preset", "compass", "--out", str(target)
        )
        assert code == PASS
        assert target.is_dir()


class TestInternalError:
    def test_uncaught_exception_exits_four_with_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_check", broken)
        code, out, err = run(capsys, "check", "--preset", "bell_standard")
        assert code == INTERNAL
        assert out == ""
        assert err.startswith("internal error: RuntimeError(")
        assert len(err.strip().splitlines()) == 1

    def test_interval_logic_fault_exits_four(self, capsys, monkeypatch):
        # An out-of-order enclosure is a fault in causalbox, not in the
        # input, so it must not pass for a usage error.
        from causalbox.intervals import Enclosure

        def faulty(order, box):
            Enclosure(Fraction(1), Fraction(0))

        monkeypatch.setattr(cli, "enumerate_constraints", faulty)
        code, out, err = run(capsys, "check", "--preset", "bell_standard")
        assert code == INTERNAL
        assert out == ""
        assert err.startswith("internal error: ArithmeticError(")
        assert len(err.strip().splitlines()) == 1


def test_check_imports_neither_numpy_nor_mpmath():
    # numpy serves only the entropic probe and mpmath only the interval
    # and chi-square paths, so a plain `check` must not pay for either.
    script = (
        "import sys, causalbox, causalbox.cli\n"
        "causalbox.cli.main(['check', '--preset', 'bell_standard'])\n"
        "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))\n"
    )
    src = str(Path(causalbox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
