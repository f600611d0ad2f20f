"""End-to-end command-line behaviour: happy paths, exit codes, and output
artifacts. Commands run in-process through main(); one smoke test runs the
entry point declared in pyproject.toml in a fresh interpreter, as the
installed console script would."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from eskin import load_dataset, write_frames
from eskin.cli import main
from eskin.config import ENV_CONFIG
from eskin.learners import svm

from .entry_point import (
    PYPROJECT,
    eskin_command,
    eskin_env,
    parse_scripts_table,
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG, raising=False)


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """One generated-and-trained workspace shared by the CLI tests."""
    os.environ.pop(ENV_CONFIG, None)
    root = tmp_path_factory.mktemp("cli")
    out_dir = root / "out"
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "single_protocol": {"reps_per_cell": 1},
                "two_protocol": {"node_axes": [1, 6]},
                "pipeline": {"node_axes": [1, 6]},
                "k_single": 2,
                "k_two": 2,
                "out_dir": str(out_dir),
            }
        )
    )
    env = {"root": root, "cfg": str(cfg), "out": out_dir}

    rc, stdout, _ = run_cli("generate", "--config", str(cfg))
    assert rc == 0
    env["generate_single_stdout"] = stdout
    env["single_csv"] = out_dir / "dataset_single.csv"

    rc, stdout, _ = run_cli("generate", "--config", str(cfg), "--mode", "two")
    assert rc == 0
    env["generate_two_stdout"] = stdout
    env["two_csv"] = out_dir / "dataset_two.csv"

    rc, stdout, _ = run_cli(
        "train", str(env["single_csv"]), "--config", str(cfg)
    )
    assert rc == 0
    env["train_single_stdout"] = stdout
    env["single_bundle"] = out_dir / "bundle_single.json"

    rc, stdout, _ = run_cli(
        "train", str(env["two_csv"]), "--config", str(cfg), "--mode", "two"
    )
    assert rc == 0
    env["two_bundle"] = out_dir / "bundle_two.json"

    ds = load_dataset(env["single_csv"])
    env["frames_csv"] = root / "frames.csv"
    with open(env["frames_csv"], "w") as f:
        write_frames(ds.x[[0, 5, 7]], f)
    env["empty_frames_csv"] = root / "frames_empty.csv"
    with open(env["empty_frames_csv"], "w") as f:
        write_frames(ds.x[:0], f)
    return env


class TestGenerate:
    def test_fixture_counts_and_files(self, cli_env):
        assert cli_env["generate_single_stdout"].strip() == "1212"
        assert cli_env["generate_two_stdout"].strip() == "108"
        assert cli_env["single_csv"].exists()
        assert cli_env["single_csv"].with_suffix(".csv.meta.json").exists()
        assert cli_env["two_csv"].exists()

    def test_default_protocol_rep20_count(self, tmp_path):
        rc, stdout, _ = run_cli(
            "generate", "--reps", "20", "--out", str(tmp_path / "big.csv")
        )
        assert rc == 0
        assert stdout.strip() == "24240"

    def test_default_two_protocol_count(self, tmp_path):
        rc, stdout, _ = run_cli(
            "generate", "--mode", "two", "--out", str(tmp_path / "two.csv")
        )
        assert rc == 0
        assert stdout.strip() == "648"

    def test_same_seed_byte_identical(self, cli_env, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc, _, _ = run_cli("generate", "--config", cli_env["cfg"], "--out", str(path))
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_frames(self, cli_env, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("generate", "--config", cli_env["cfg"], "--out", str(a))
        run_cli("generate", "--config", cli_env["cfg"], "--out", str(b), "--seed", "9")
        assert a.read_bytes() != b.read_bytes()

    def test_zero_reps_is_usage_error(self, cli_env, tmp_path):
        rc, _, err = run_cli(
            "generate",
            "--config",
            cli_env["cfg"],
            "--reps",
            "0",
            "--out",
            str(tmp_path / "x.csv"),
        )
        assert rc == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "mode, override, message",
        [
            ("single", {"single_protocol": {"forces": [0, -1]}}, "force level -1 must"),
            ("single", {"single_protocol": {"forces": [0, math.nan]}}, "force level nan"),
            ("single", {"single_protocol": {"stretches": [0.9]}}, "stretch level 0.9"),
            ("two", {"two_protocol": {"forces": [0, math.inf]}}, "force level inf"),
            ("single", {"model": {"noise_sigma": math.nan}}, "noise_sigma must be"),
            ("single", {"model": {"force_scale": math.nan}}, "force_scale must be"),
        ],
    )
    def test_bad_level_or_model_is_usage_error(self, tmp_path, mode, override, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        out = tmp_path / "x.csv"
        rc, _, err = run_cli(
            "generate", "--config", str(cfg), "--mode", mode, "--out", str(out)
        )
        assert rc == 1
        assert err.startswith("error:") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, field",
        [
            ({"single_protocol": {"reps_per_cell": 1.0}}, "single_protocol.reps_per_cell"),
            ({"pipeline": {"gp_search": "false"}}, "pipeline.gp_search"),
            ({"pipeline": {"forest": {"n_trees": 2.0}}}, "pipeline.forest.n_trees"),
            ({"k_single": "3"}, "k_single"),
        ],
    )
    def test_wrong_config_type_is_usage_error(self, tmp_path, override, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        out = tmp_path / "x.csv"
        rc, _, err = run_cli("generate", "--config", str(cfg), "--out", str(out))
        assert rc == 1
        assert err.startswith(f"error: invalid config file {cfg}: {field}: expected")
        assert "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_bundle_written_and_path_printed(self, cli_env):
        assert cli_env["train_single_stdout"].strip() == str(cli_env["single_bundle"])
        assert cli_env["single_bundle"].exists()
        assert cli_env["two_bundle"].exists()
        d = json.loads(cli_env["single_bundle"].read_text())
        assert d["bundle_schema"] == 3
        assert d["mode"] == "single"

    def test_nan_gp_hyperparameter_is_usage_error(self, cli_env, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": {"gp": {"length_scale": math.nan}}}))
        out = tmp_path / "bundle.json"
        rc, _, err = run_cli(
            "train", str(cli_env["single_csv"]), "--config", str(cfg), "--out", str(out)
        )
        assert rc == 1
        assert "length_scale must be finite and > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["c", "gamma", "tol"])
    def test_infinite_svm_hyperparameter_is_usage_error(self, cli_env, tmp_path, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": {"svm": {name: math.inf}}}))
        out = tmp_path / "bundle.json"
        rc, _, err = run_cli(
            "train", str(cli_env["single_csv"]), "--config", str(cfg), "--out", str(out)
        )
        assert rc == 1
        assert f"{name} must be finite and > 0" in err
        assert not out.exists()

    def test_mode_mismatch(self, cli_env):
        rc, _, err = run_cli(
            "train", str(cli_env["two_csv"]), "--config", cli_env["cfg"]
        )
        assert rc == 1
        assert "--mode" in err

    def test_unconverged_svm_is_numeric_error(self, cli_env, tmp_path, monkeypatch):
        monkeypatch.setattr(svm, "_ITERATIONS_PER_ROW", 0)
        out = tmp_path / "bundle.json"
        rc, stdout, err = run_cli(
            "train",
            str(cli_env["single_csv"]),
            "--config",
            cli_env["cfg"],
            "--out",
            str(out),
        )
        assert rc == 3
        assert stdout == ""
        assert re.fullmatch(r"error: SVM solver stopped at its cap of 0 [^\n]*\n", err)
        assert not out.exists()

    def test_incomplete_grid_is_data_error(self, cli_env, tmp_path):
        lines = cli_env["single_csv"].read_text().splitlines()
        kept = [lines[0]] + [
            ln
            for ln in lines[1:]
            if not (ln.split(",")[21] == "7" and ln.split(",")[22] == "4")
        ]
        assert len(kept) < len(lines)
        thin = tmp_path / "thin.csv"
        thin.write_text("\n".join(kept) + "\n")
        rc, _, err = run_cli("train", str(thin), "--config", cli_env["cfg"])
        assert rc == 2
        assert "lacks contact samples for node classes [37]" in err

    @pytest.mark.parametrize(
        "mode,column,value,message",
        [
            ("single", 21, "nan", r"node \(nan, 0\) invalid"),
            ("single", 22, "inf", r"node \(0, inf\) invalid"),
            ("single", 21, "1e400", r"node \(inf, 0\) invalid"),
            ("two", 25, "-inf", r"node \(\d+, -inf\) invalid"),
            ("two", None, None, r"two-contact sample repeats node"),
        ],
    )
    def test_bad_node_row_is_data_error(self, cli_env, tmp_path, mode, column,
                                        value, message):
        lines = cli_env[f"{mode}_csv"].read_text().splitlines()
        fields = lines[4].split(",")
        if column is None:   # second contact on the first one's node
            fields[24:26] = fields[21:23]
        else:
            fields[column] = value
        lines[4] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        rc, _, err = run_cli(
            "train", str(bad), "--config", cli_env["cfg"], "--mode", mode
        )
        assert rc == 2
        assert re.match(f"error: line 5: {message}", err)
        assert err.count("\n") == 1

    def test_missing_data_file(self, cli_env, tmp_path):
        rc, _, err = run_cli(
            "train", str(tmp_path / "absent.csv"), "--config", cli_env["cfg"]
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_sidecar_that_is_not_an_object_is_data_error(self, cli_env, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_bytes(cli_env["single_csv"].read_bytes())
        (tmp_path / "data.csv.meta.json").write_text("[1]\n")
        rc, _, err = run_cli("train", str(csv), "--config", cli_env["cfg"])
        assert rc == 2
        assert err.startswith("error: malformed dataset metadata:")
        assert "Traceback" not in err


class TestEval:
    def test_single_report_artifacts(self, cli_env):
        rc, stdout, _ = run_cli(
            "eval", str(cli_env["single_csv"]), "--config", cli_env["cfg"]
        )
        assert rc == 0
        assert stdout.startswith("mode=single k=2 ")
        report_dir = cli_env["out"] / "report_single"
        assert (report_dir / "report.json").exists()
        assert (report_dir / "cm_row.csv").exists()
        assert (report_dir / "cm_col.csv").exists()
        cli_env["single_report_dir"] = report_dir
        cli_env["single_eval_stdout"] = stdout

    def test_two_report_with_heatmaps(self, cli_env):
        rc, stdout, _ = run_cli(
            "eval",
            str(cli_env["two_csv"]),
            "--config",
            cli_env["cfg"],
            "--mode",
            "two",
            "--emit-heatmaps",
        )
        assert rc == 0
        assert stdout.startswith("mode=two k=2 ")
        report_dir = cli_env["out"] / "report_two"
        for name in ("report.json", "cm_x1.csv", "heatmap_x1.pgm", "heatmap_y2.pgm"):
            assert (report_dir / name).exists()
        assert (report_dir / "heatmap_x1.pgm").read_text().startswith("P2\n")

    def test_k1_is_usage_error(self, cli_env):
        rc, _, err = run_cli(
            "eval", str(cli_env["single_csv"]), "--config", cli_env["cfg"], "--k", "1"
        )
        assert rc == 1
        assert err.startswith("error:")

    def test_mode_mismatch(self, cli_env):
        rc, _, err = run_cli(
            "eval", str(cli_env["single_csv"]), "--config", cli_env["cfg"],
            "--mode", "two",
        )
        assert rc == 1
        assert "--mode" in err

    def test_constant_stretch_is_numeric_error(self, cli_env, tmp_path):
        cfg = tmp_path / "flat.json"
        cfg.write_text(
            json.dumps(
                {
                    "single_protocol": {"reps_per_cell": 1, "stretches": [1.0]},
                    "k_single": 2,
                    "out_dir": str(tmp_path),
                }
            )
        )
        rc, stdout, _ = run_cli("generate", "--config", str(cfg))
        assert rc == 0
        assert stdout.strip() == "404"
        rc, _, err = run_cli(
            "eval", str(tmp_path / "dataset_single.csv"), "--config", str(cfg)
        )
        assert rc == 3
        assert err.startswith("error:")


class TestInfer:
    def test_single_estimates(self, cli_env, tmp_path):
        est = tmp_path / "est.csv"
        rc, stdout, _ = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(cli_env["frames_csv"]),
            "--config",
            cli_env["cfg"],
            "--out",
            str(est),
        )
        assert rc == 0
        assert stdout.strip() == str(est)
        lines = est.read_text().splitlines()
        assert lines[0] == "stretch,detected,node_x,node_y,force_n"
        assert len(lines) == 4
        # frame 0 is a rest frame: no contact, zeroed estimate
        rest = lines[1].split(",")
        assert rest[1:] == ["0", "0", "0", "0"]
        # frame 3 is a firm press and must be detected
        firm = lines[3].split(",")
        assert firm[1] == "1"
        assert float(firm[4]) > 0.0

    def test_empty_frames_gives_header_only(self, cli_env, tmp_path):
        est = tmp_path / "est.csv"
        rc, _, _ = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(cli_env["empty_frames_csv"]),
            "--config",
            cli_env["cfg"],
            "--out",
            str(est),
        )
        assert rc == 0
        assert est.read_text() == "stretch,detected,node_x,node_y,force_n\n"

    def test_two_estimates_sorted(self, cli_env, tmp_path):
        ds = load_dataset(cli_env["two_csv"])
        frames_csv = tmp_path / "frames_two.csv"
        with open(frames_csv, "w") as f:
            write_frames(ds.x[:5], f)
        est = tmp_path / "est.csv"
        rc, _, _ = run_cli(
            "infer",
            "--bundle",
            str(cli_env["two_bundle"]),
            "--frames",
            str(frames_csv),
            "--config",
            cli_env["cfg"],
            "--mode",
            "two",
            "--out",
            str(est),
        )
        assert rc == 0
        lines = est.read_text().splitlines()
        assert lines[0] == "x1,y1,f1_n,x2,y2,f2_n"
        assert len(lines) == 6
        for ln in lines[1:]:
            x1, y1, _, x2, y2, _ = ln.split(",")
            id1 = (int(y1) - 1) * 10 + int(x1)
            id2 = (int(y2) - 1) * 10 + int(x2)
            assert id1 <= id2

    @pytest.mark.parametrize(
        "payload",
        [
            '{"bundle_schema": 2, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 1, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 3, "mode": "single", "pipeline": {}}',
        ],
    )
    def test_malformed_bundle_is_data_error(self, cli_env, tmp_path, payload):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(payload + "\n")
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(bundle),
            "--frames",
            str(cli_env["frames_csv"]),
            "--config",
            cli_env["cfg"],
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: p["force_model"]["alpha"].pop(),
                "error: malformed single model bundle: ValueError: GP train_inputs",
            ),
            (
                lambda p: p["detector"]["dual_coefs"].pop(),
                "error: malformed single model bundle: ValueError: SVM support_inputs",
            ),
            (
                lambda p: p["row_clf"]["trees"][3].update(feature=20),
                "error: split feature 20 is not an integer in 0..19",
            ),
        ],
    )
    def test_inconsistent_bundle_is_data_error(self, cli_env, tmp_path, edit, message):
        d = json.loads(cli_env["single_bundle"].read_text())
        edit(d["pipeline"])
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(d))
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(bundle),
            "--frames",
            str(cli_env["frames_csv"]),
            "--config",
            cli_env["cfg"],
        )
        assert rc == 2
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_bundle_mode_mismatch(self, cli_env):
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(cli_env["frames_csv"]),
            "--config",
            cli_env["cfg"],
            "--mode",
            "two",
        )
        assert rc == 1
        assert "single-contact pipeline" in err

    def test_labelled_csv_rejected_as_frames(self, cli_env, tmp_path):
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(cli_env["single_csv"]),
            "--config",
            cli_env["cfg"],
            "--out",
            str(tmp_path / "est.csv"),
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_missing_frames_file(self, cli_env, tmp_path):
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(tmp_path / "absent.csv"),
            "--config",
            cli_env["cfg"],
        )
        assert rc == 2
        assert err.startswith("error:")


class TestReport:
    @pytest.fixture()
    def report_dir(self, cli_env):
        path = cli_env["out"] / "report_single"
        if not (path / "report.json").exists():
            rc, _, _ = run_cli(
                "eval", str(cli_env["single_csv"]), "--config", cli_env["cfg"]
            )
            assert rc == 0
        return path

    def test_headline_matches_eval(self, cli_env, report_dir):
        rc, stdout, _ = run_cli("report", str(report_dir / "report.json"))
        assert rc == 0
        assert stdout.startswith("mode=single k=2 ")

    def test_reemit_to_new_directory(self, report_dir, tmp_path):
        out = tmp_path / "rendered"
        rc, _, _ = run_cli(
            "report",
            str(report_dir / "report.json"),
            "--out",
            str(out),
            "--emit-heatmaps",
        )
        assert rc == 0
        assert (out / "report.json").exists()
        assert (out / "cm_row.csv").exists()
        assert (out / "heatmap_col.pgm").exists()

    def test_missing_report(self, tmp_path):
        rc, _, err = run_cli("report", str(tmp_path / "absent.json"))
        assert rc == 2
        assert err.startswith("error:")

    def test_corrupt_report(self, tmp_path):
        bad = tmp_path / "report.json"
        bad.write_text("{nope")
        rc, _, err = run_cli("report", str(bad))
        assert rc == 2
        assert err.startswith("error:")

    def test_wrong_field_type_is_data_error(self, report_dir, tmp_path):
        d = json.loads((report_dir / "report.json").read_text())
        d["k"] = "three"
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        rc, _, err = run_cli("report", str(bad))
        assert rc == 2
        assert err.startswith("error: malformed report: TypeError: k: expected an int")
        assert "Traceback" not in err


class TestUsage:
    def test_unknown_flag(self):
        rc, _, err = run_cli("generate", "--bogus")
        assert rc == 1
        assert err.startswith("error:")

    def test_missing_subcommand(self):
        rc, _, err = run_cli()
        assert rc == 1
        assert err.startswith("error:")

    def test_console_script_help(self):
        proc = subprocess.run(
            eskin_command("--help"),
            capture_output=True,
            text=True,
            env=eskin_env(),
            timeout=60,
        )
        assert proc.returncode == 0
        for name in ("generate", "train", "eval", "infer", "report"):
            assert name in proc.stdout

    def test_scripts_table_parse_matches_tomllib(self):
        tomllib = pytest.importorskip("tomllib")
        text = PYPROJECT.read_text()
        expected = tomllib.loads(text)["project"]["scripts"]
        assert parse_scripts_table(text) == expected
        assert parse_scripts_table(
            '[project.scripts]\n"a-b" = \'m.n:f\'  # c\n\n[tool.x]\nz = "q:r"\n'
        ) == {"a-b": "m.n:f"}
