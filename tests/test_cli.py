"""End-to-end command-line behaviour: happy paths, exit codes, and output
artifacts. Commands run in-process through main(); one smoke test runs the
entry point declared in pyproject.toml in a fresh interpreter, as the
installed console script would."""

import contextlib
import copy
import io
import json
import math
import os
import re
import shutil
import subprocess
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eskin import evalkit, load_dataset, write_frames
from eskin.cli import main
from eskin.codec import to_dict
from eskin.config import ENV_CONFIG, RunConfig, load_config
from eskin.core import _fmt
from eskin.learners import gp_fit, log_marginal_likelihood, svm
from eskin.pipeline import (
    load_pipeline,
    predict_batch,
    save_pipeline,
    train,
    two_estimate,
)

from .entry_point import (
    PYPROJECT,
    eskin_command,
    eskin_env,
    parse_scripts_table,
)
from .payloads import edit_array
from .ranges import HUGE, names_leaf, set_leaf, sweep_cases

MALFORMED = "error: malformed model bundle: "
NOT_JSON = "error: model bundle is not valid JSON: "


def repeat_first_entry(forest: dict) -> None:
    """Give a forest's first leaf a second entry of its first class."""
    edit_array(forest, "leaf_entries", lambda a: a.__setitem__(0, a[0] + 1))
    edit_array(forest, "entry_class", lambda a: np.insert(a, 0, a[0]))
    edit_array(forest, "entry_count", lambda a: np.insert(a, 0, 1))


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

    rc, stdout, err = run_cli(
        "train", str(env["single_csv"]), "--config", str(cfg)
    )
    assert rc == 0
    env["train_single_stdout"] = stdout
    env["train_single_stderr"] = err
    env["single_bundle"] = out_dir / "bundle_single.json"

    rc, stdout, _ = run_cli("train", str(env["two_csv"]), "--config", str(cfg))
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
            ("single", {"single_protocol": {"forces": [0, -1]}},
             "single_protocol: forces[1] must be finite and >= 0, got -1\n"),
            ("single", {"single_protocol": {"stretches": [0.9]}},
             "single_protocol: stretches[0] must be finite and >= 1, got 0.9\n"),
            # JSON has no NaN or Infinity, so the reader refuses them first
            ("single", {"single_protocol": {"forces": [0, math.nan]}},
             "is not valid JSON: NaN is not a JSON number"),
            ("two", {"two_protocol": {"forces": [0, math.inf]}},
             "is not valid JSON: Infinity is not a JSON number"),
            ("single", {"model": {"noise_sigma": -math.inf}},
             "is not valid JSON: -Infinity is not a JSON number"),
            # the terminals come from the data, so the pipeline has no axes
            ("two", {"pipeline": {"node_axes": [1, 6]}},
             "unknown config key 'pipeline.node_axes'"),
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


    @pytest.mark.parametrize("name", ["stretch_gain_x", "stretch_gain_y"])
    def test_gain_that_makes_no_positive_frame_is_usage_error(self, tmp_path, name):
        # the rest level 1 - 20 * (1.07921 - 1) is below 0 at the second stretch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {name: -20}}))
        out = tmp_path / "x.csv"
        rc, stdout, err = run_cli("generate", "--config", str(cfg), "--out", str(out))
        assert (rc, stdout) == (1, "")
        assert err.startswith(
            f"error: invalid config file {cfg}: model.{name} -20 puts the noiseless "
            "rest level at stretch 1.07921 at -0.58"
        )
        assert err.endswith(", not above 0\n") and err.count("\n") == 1
        assert not out.exists()

    def test_gain_whose_rest_level_stays_positive_generates(self, tmp_path):
        # 1 - 4 * (1.15842 - 1) = 0.37 at the largest default stretch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": {"stretch_gain_x": -4}}))
        out = tmp_path / "x.csv"
        rc, stdout, err = run_cli(
            "generate", "--config", str(cfg), "--reps", "1", "--out", str(out)
        )
        assert (rc, stdout, err) == (0, "1212\n", "")
        assert out.exists()

    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'\xff\xfe{"k_single": 3}')
        out = tmp_path / "x.csv"
        rc, _, err = run_cli("generate", "--config", str(cfg), "--out", str(out))
        assert rc == 1
        assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()


class TestNegativeSeed:
    """numpy seeds its generators with ints >= 0 only, so a negative seed,
    from --seed or from any seed key of a config file, ends every command
    that reads one with exit 1 and one error line, before it reads its
    input or writes anything."""

    @staticmethod
    def run_command(cli_env, tmp_path, command, *extra):
        out = tmp_path / "out"
        inputs = {
            "generate": [],
            "train": [str(cli_env["single_csv"])],
            "eval": [str(cli_env["single_csv"])],
        }[command]
        rc, stdout, err = run_cli(command, *inputs, "--out", str(out), *extra)
        assert (rc, stdout) == (1, "")
        assert "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("command", ["generate", "train", "eval"])
    def test_seed_flag(self, cli_env, tmp_path, command):
        err = self.run_command(
            cli_env, tmp_path, command, "--config", cli_env["cfg"], "--seed", "-1"
        )
        assert err == (
            f"error: eskin {command}: argument --seed: seed must be >= 0, got -1\n"
        )

    @pytest.mark.parametrize("command", ["generate", "train", "eval"])
    @pytest.mark.parametrize(
        "override, message",
        [
            ({"seed": -5}, "invalid config file {cfg}: seed must be >= 0, got -5"),
            ({"single_protocol": {"seed": -5}},
             "invalid config file {cfg}: single_protocol: seed must be >= 0, got -5"),
            ({"two_protocol": {"seed": -5}},
             "invalid config file {cfg}: two_protocol: seed must be >= 0, got -5"),
            ({"pipeline": {"seed": -5}},
             "invalid config file {cfg}: pipeline: seed must be >= 0, got -5"),
            ({"pipeline": {"forest": {"seed": -5}}},
             "invalid config file {cfg}: pipeline.forest: seed must be >= 0, got -5"),
        ],
        ids=["seed", "single_protocol", "two_protocol", "pipeline", "forest"],
    )
    def test_config_key(self, cli_env, tmp_path, command, override, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        err = self.run_command(cli_env, tmp_path, command, "--config", str(cfg))
        assert err == f"error: {message.format(cfg=cfg)}\n"


class TestTrain:
    def test_bundle_written_and_path_printed(self, cli_env):
        assert cli_env["train_single_stdout"].strip() == str(cli_env["single_bundle"])
        assert cli_env["single_bundle"].exists()
        assert cli_env["two_bundle"].exists()
        d = json.loads(cli_env["single_bundle"].read_text())
        assert d["bundle_schema"] == 11
        assert d["pipeline"]["mode"] == "single"
        # every contact row fits under the default gp_cap, so no note
        assert cli_env["train_single_stderr"] == ""

    @pytest.mark.parametrize(
        "mode, notes",
        [
            ("single", ["force GP kept 50 of {n} contact rows (gp_cap 50)"]),
            ("two", ["force GP kept 50 of {n} contact rows (gp_cap 50)"]),
        ],
    )
    def test_gp_subsample_noted_on_stderr(self, cli_env, tmp_path, mode, notes):
        with open(cli_env["cfg"]) as f:
            cfg = json.load(f)
        cfg["pipeline"] = {"gp_cap": 50}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        data = cli_env[f"{mode}_csv"]
        ds = load_dataset(data)
        n = len(ds) if mode == "two" else int((ds.label("node_x") != 0).sum())
        out = tmp_path / "bundle.json"
        rc, stdout, err = run_cli(
            "train", str(data), "--config", str(cfg_path), "--out", str(out),
        )
        assert rc == 0
        assert stdout == f"{out}\n"
        assert err == "".join(f"{line.format(n=n)}\n" for line in notes)

    def test_nan_gp_hyperparameter_is_usage_error(self, cli_env, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": {"gp": {"length_scale": math.nan}}}))
        out = tmp_path / "bundle.json"
        rc, _, err = run_cli(
            "train", str(cli_env["single_csv"]), "--config", str(cfg), "--out", str(out)
        )
        assert rc == 1
        assert err.endswith("is not valid JSON: NaN is not a JSON number\n")
        assert not out.exists()

    def test_gp_mean_offset_is_not_a_config_key(self, cli_env, tmp_path):
        # gp_fit sets the offset from the training targets
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": {"gp": {"mean_offset": 5.0}}}))
        out = tmp_path / "bundle.json"
        rc, _, err = run_cli(
            "train", str(cli_env["single_csv"]), "--config", str(cfg), "--out", str(out)
        )
        assert rc == 1
        assert err == "error: unknown config key 'pipeline.gp.mean_offset'\n"
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
        assert err.endswith("is not valid JSON: Infinity is not a JSON number\n")
        assert not out.exists()

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
        rc, _, err = run_cli("train", str(bad), "--config", cli_env["cfg"])
        assert rc == 2
        assert re.match(f"error: line 5: {message}", err)
        assert err.count("\n") == 1

    def test_blank_second_contact_is_data_error(self, cli_env, tmp_path):
        # the two-contact schema admits a node-(0, 0) contact; training does not
        lines = cli_env["two_csv"].read_text().splitlines()
        fields = lines[4].split(",")
        fields[23:26] = ["0", "0", "0"]   # f2_n, x2, y2
        lines[4] = ",".join(fields)
        bad = tmp_path / "blank.csv"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / "bundle.json"
        rc, stdout, err = run_cli(
            "train", str(bad), "--config", cli_env["cfg"], "--out", str(out)
        )
        assert (rc, stdout) == (2, "")
        assert err == (
            "error: row 3 has a contact at node (0, 0), but two-contact "
            "training needs two pressed nodes\n"
        )
        assert not out.exists()

    def test_missing_data_file(self, cli_env, tmp_path):
        rc, _, err = run_cli(
            "train", str(tmp_path / "absent.csv"), "--config", cli_env["cfg"]
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_csv_that_is_not_utf8_is_data_error(self, cli_env, tmp_path):
        csv = tmp_path / "data.csv"
        text = cli_env["single_csv"].read_bytes()
        assert text.startswith(b"cx1,")
        csv.write_bytes(b"cx1\xff" + text[3:])
        rc, _, err = run_cli("train", str(csv), "--config", cli_env["cfg"])
        assert rc == 2
        assert err.startswith(f"error: {csv} is not UTF-8 text: 'utf-8' codec")
        assert err.count("\n") == 1

    def test_sidecar_that_is_not_an_object_is_data_error(self, cli_env, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_bytes(cli_env["single_csv"].read_bytes())
        (tmp_path / "data.csv.meta.json").write_text("[1]\n")
        rc, _, err = run_cli("train", str(csv), "--config", cli_env["cfg"])
        assert rc == 2
        assert err.startswith("error: malformed dataset metadata:")
        assert "Traceback" not in err

    def test_sidecar_with_nan_is_data_error(self, cli_env, tmp_path):
        csv = tmp_path / "data.csv"
        csv.write_bytes(cli_env["single_csv"].read_bytes())
        (tmp_path / "data.csv.meta.json").write_text('{"seed": NaN}\n')
        rc, _, err = run_cli("train", str(csv), "--config", cli_env["cfg"])
        assert rc == 2
        assert err == "error: invalid metadata JSON: NaN is not a JSON number\n"


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

    def test_two_contact_fold_without_rows_is_data_error(self, tmp_path, monkeypatch):
        # 36 node pairs of 9 rows: with 400 folds, fold 9 tests no row at all.
        # The plan is refused before any fold trains, with no numpy warning.
        data = tmp_path / "two.csv"
        rc, _, _ = run_cli("generate", "--mode", "two", "--reps", "1", "--out", str(data))
        assert rc == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a fold was trained")

        monkeypatch.setattr(evalkit, "train", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc, stdout, err = run_cli(
                "eval", str(data), "--k", "400", "--out", str(tmp_path / "report")
            )
        assert rc == 2
        assert stdout == ""
        assert err.startswith("error: fold 9 test split holds no contact rows")
        assert err.count("\n") == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "report").exists()

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


    def test_non_finite_metric_is_numeric_error(self, cli_env, tmp_path, monkeypatch):
        monkeypatch.setattr(evalkit, "mse", lambda y, yhat: math.nan)
        out = tmp_path / "report"
        rc, stdout, err = run_cli(
            "eval", str(cli_env["two_csv"]), "--config", cli_env["cfg"],
            "--out", str(out),
        )
        assert rc == 3
        assert stdout == ""
        assert err.startswith("error: cannot write a NaN or infinite value")
        assert err.count("\n") == 1
        assert not (out / "report.json").exists()


class TestGpSearch:
    """train with ``pipeline.gp_search`` on picks the force GP's
    hyperparameters by log marginal likelihood (summed over f1 and f2 for
    two contacts), and infer serves the bundle it writes."""

    GRID = [(ell, nv) for ell in (1.0, 2.0, 4.0) for nv in (1e-4, 1e-2)]

    @pytest.mark.parametrize("mode", ["single", "two"])
    def test_train_and_infer(self, cli_env, tmp_path, mode):
        with open(cli_env["cfg"]) as f:
            cfg = json.load(f)
        # at this cap f1 alone would pick length scale 1.0, the sum picks 2.0
        cfg["pipeline"] = {"gp_search": True, "gp_cap": 25, "forest": {"n_trees": 3}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        ds = load_dataset(cli_env[f"{mode}_csv"])
        bundle, frames, est = (tmp_path / n for n in ("b.json", "f.csv", "e.csv"))
        rc, stdout, _ = run_cli(
            "train", str(cli_env[f"{mode}_csv"]), "--config", str(cfg_path),
            "--out", str(bundle),
        )
        assert (rc, stdout) == (0, f"{bundle}\n")
        with open(frames, "w") as f:
            write_frames(ds.x[:5], f)
        rc, stdout, err = run_cli(
            "infer", "--bundle", str(bundle), "--frames", str(frames),
            "--config", str(cfg_path), "--out", str(est),
        )
        assert (rc, stdout, err) == (0, f"{est}\n", "")
        assert len(est.read_text().splitlines()) == 6

        if mode == "single":
            rows = ds.label("node_x") != 0
            x, y = ds.x[rows], ds.label("force_n")[rows]
        else:
            x, y = ds.x, np.column_stack((ds.label("f1_n"), ds.label("f2_n")))
        config = load_config(cfg_path).pipeline

        def lml(cell):
            hyper = replace(config.gp, length_scale=cell[0], noise_var=cell[1])
            return log_marginal_likelihood(
                gp_fit(x, y, hyper, cap=config.gp_cap, seed=config.seed)
            )

        hyper = load_pipeline(bundle).force_model.hyper
        assert (hyper.length_scale, hyper.noise_var) == max(self.GRID, key=lml)


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
            '{"bundle_schema": 4, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 5, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 6, "mode": "two", "pipeline": {}}',
            '{"bundle_schema": 7, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 8, "mode": "two", "pipeline": {}}',
            '{"bundle_schema": 9, "mode": "single", "pipeline": {}}',
            '{"bundle_schema": 10, "pipeline": {"mode": "single"}}',
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
        assert err.startswith("error: unsupported model bundle schema ")
        assert err.endswith("re-run `eskin train` to rebuild the bundle\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda p: edit_array(p["force_model"], "alpha", lambda a: a[:-1]),
                MALFORMED + "ValidationError: force_model: GP train_inputs",
            ),
            (
                lambda p: edit_array(p["detector"], "dual_coefs", lambda a: a[:-1]),
                MALFORMED + "ValidationError: detector: SVM support_inputs",
            ),
            (
                lambda p: p["force_model"].update(rows_offered=1),
                MALFORMED + "ValidationError: force_model: GP rows_offered 1",
            ),
            (
                lambda p: p["detector"].pop("iterations"),
                MALFORMED + "KeyError: 'detector.iterations'",
            ),
            (
                lambda p: p["detector"].pop("kkt_gap"),
                MALFORMED + "KeyError: 'detector.kkt_gap'",
            ),
            (
                lambda p: p["force_model"].pop("rows_offered"),
                MALFORMED + "KeyError: 'force_model.rows_offered'",
            ),
            (
                lambda p: edit_array(p["force_model"], "alpha",
                                     lambda a: a.__setitem__(0, math.nan)),
                MALFORMED + "ValidationError: force_model: GP alpha must be finite",
            ),
            (
                lambda p: p["detector"].update(kernel_gamma=-1.0),
                MALFORMED + "ValidationError: detector: "
                "kernel_gamma must be finite and > 0, "
                "got -1.0\n",
            ),
            (
                lambda p: edit_array(p["preprocessing"], "scale", lambda a: a * 0.0),
                MALFORMED + "ValidationError: preprocessing: standardizer scale must be "
                "finite and > 0",
            ),
            (
                lambda p: edit_array(p["preprocessing"], "mean",
                                     lambda a: a.__setitem__(4, -math.inf)),
                MALFORMED + "ValidationError: preprocessing: "
                "standardizer mean must be finite",
            ),
            (
                lambda p: edit_array(p["force_model"]["scaler"], "scale",
                                     lambda a: a.__setitem__(0, math.nan)),
                MALFORMED + "ValidationError: force_model.scaler: "
                "standardizer scale must "
                "be finite and > 0",
            ),
            (
                lambda p: edit_array(p["stretch_model"], "weights",
                                     lambda a: a.__setitem__(0, math.nan)),
                MALFORMED + "ValidationError: stretch_model: "
                "linear weights must be finite",
            ),
            (
                lambda p: edit_array(p["stretch_model"], "weights", lambda a: a[None, :]),
                MALFORMED + "ValidationError: stretch_model: "
                "linear weights (1, 20) must be 1-d",
            ),
            # the GP scaler one channel short of the GP's inputs
            (
                lambda p: [edit_array(p["force_model"]["scaler"], k, lambda a: a[:-1])
                           for k in ("mean", "scale")],
                MALFORMED + "ValidationError: force_model: "
                "GP scaler reads 19 features but "
                "train_inputs have 20",
            ),
            (
                lambda p: p["force_model"].update(scaler=None),
                MALFORMED + "TypeError: force_model.scaler: expected an object, got NoneType",
            ),
            # JSON has no NaN or Infinity: the reader refuses the literals
            (lambda p: p["detector"].update(bias=math.inf), NOT_JSON + "Infinity is not"),
            (lambda p: p["detector"].update(kkt_gap=math.nan), NOT_JSON + "NaN is not"),
            (
                lambda p: p["force_model"].update(mean_offset=math.nan),
                NOT_JSON + "NaN is not a JSON number",
            ),
            (
                lambda p: p["stretch_model"].update(intercept=-math.inf),
                NOT_JSON + "-Infinity is not a JSON number",
            ),
            # the standardizer one channel short of the models behind it
            (
                lambda p: [edit_array(p["preprocessing"], k, lambda a: a[:-1])
                           for k in ("mean", "scale")],
                MALFORMED + "ValidationError: pipeline models read different "
                "feature widths: ",
            ),
            (
                lambda p: edit_array(p["preprocessing"], "scale", lambda a: a[:-1]),
                MALFORMED + "ValidationError: preprocessing: standardizer mean (20,) and "
                "scale (19,) "
                "must be 1-d and of one length",
            ),
            (
                lambda p: edit_array(p["stretch_model"], "weights", lambda a: a[:-1]),
                MALFORMED + "ValidationError: pipeline models read different "
                "feature widths: ",
            ),
            # array payloads
            (
                lambda p: p["force_model"]["alpha"].update(data="AAAA!AAA"),
                MALFORMED + "ValueError: force_model.alpha.data: invalid base64",
            ),
            (
                lambda p: p["detector"]["dual_coefs"].update(
                    data=p["detector"]["dual_coefs"]["data"][4:]
                ),
                MALFORMED + "ValueError: detector.dual_coefs.data: ",
            ),
            (
                lambda p: p["forests"]["y_term"]["entry_count"].update(dtype="int64"),
                MALFORMED
                + "TypeError: forests.y_term.entry_count.dtype: 'int64' is not one of",
            ),
            (
                lambda p: p["forests"]["x_term"]["leaf_entries"].update(dtype="bool"),
                MALFORMED
                + "TypeError: forests.x_term.leaf_entries.dtype: expected int32, got bool",
            ),
            (
                lambda p: p["forests"]["x_term"]["entry_class"].update(
                    data=p["forests"]["x_term"]["entry_class"]["data"][8:]
                ),
                MALFORMED + "ValueError: forests.x_term.entry_class.data: ",
            ),
            # forest node arrays
            (
                lambda p: edit_array(p["forests"]["y_term"], "feature",
                                     lambda a: a.__setitem__(3, 20)),
                MALFORMED + "ValidationError: forests.y_term: "
                "split feature 20 is not in 0..19",
            ),
            (
                lambda p: edit_array(p["forests"]["x_term"], "threshold",
                                     lambda a: a.__setitem__(3, math.nan)),
                MALFORMED + "ValidationError: forests.x_term: "
                "split threshold nan is not finite",
            ),
            # two leaves fewer in the mask than leaf entry counts
            (
                lambda p: edit_array(p["forests"]["y_term"], "is_split",
                                     lambda a: a[:-2]),
                MALFORMED + "ValidationError: forests.y_term: forest leaf_entries are (",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "is_split",
                                     lambda a: a[None, :]),
                MALFORMED + "ValidationError: forests.y_term: "
                "forest split mask has shape (1, ",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "feature",
                                     lambda a: a[:-1]),
                MALFORMED + "ValidationError: forests.y_term: forest has ",
            ),
            # leaf entries
            (
                lambda p: edit_array(p["forests"]["x_term"], "leaf_entries",
                                     lambda a: a[:-1]),
                MALFORMED + "ValidationError: forests.x_term: forest leaf_entries are (",
            ),
            (
                lambda p: edit_array(p["forests"]["x_term"], "leaf_entries",
                                     lambda a: a.__setitem__(0, 0)),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest leaf_entries must be >= 1",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "entry_class",
                                     lambda a: a[:-1]),
                MALFORMED + "ValidationError: forests.y_term: "
                "forest leaf_entries sum to ",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "entry_count",
                                     lambda a: np.append(a, 1)),
                MALFORMED + "ValidationError: forests.y_term: "
                "forest leaf_entries sum to ",
            ),
            (
                lambda p: edit_array(p["forests"]["x_term"], "entry_class",
                                     lambda a: a.__setitem__(0, 10)),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest entry_class 10 is not in 0..9",
            ),
            (
                lambda p: edit_array(p["forests"]["x_term"], "entry_class",
                                     lambda a: a.__setitem__(0, -1)),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest entry_class -1 is not in 0..9",
            ),
            (
                lambda p: repeat_first_entry(p["forests"]["x_term"]),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest entry_class is not strictly "
                "increasing within a leaf",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "entry_count",
                                     lambda a: a.__setitem__(-1, 0)),
                MALFORMED + "ValidationError: forests.y_term: "
                "forest entry_count must be >= 1",
            ),
            (
                lambda p: edit_array(p["forests"]["x_term"], "classes",
                                     lambda a: a[::-1]),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest classes [10, 9, 8, 7, 6, 5, 4, 3, "
                "2, 1] are not one or more strictly increasing labels",
            ),
            (
                lambda p: edit_array(p["forests"]["y_term"], "classes",
                                     lambda a: a[:-1]),
                MALFORMED + "ValidationError: forests.y_term: "
                "forest entry_class 9 is not in 0..8",
            ),
            # a label no fit takes, which would fail only at a node lookup
            (
                lambda p: edit_array(p["forests"]["x_term"], "classes",
                                     lambda a: a.__setitem__(0, -5)),
                MALFORMED + "ValidationError: forests.x_term: "
                "forest classes [-5, 2, 3, 4, 5, 6, 7, 8, "
                "9, 10] hold a negative label",
            ),
            # a record nested in the bundle's config names its path
            (
                lambda p: p["config"]["forest"].update(n_trees=0),
                MALFORMED + "ValidationError: config.forest: n_trees must be >= 1, "
                "got 0\n",
            ),
            # the rules SvmConfig applies
            (
                lambda p: p["detector"].update(iterations=-1),
                MALFORMED + "ValidationError: detector: "
                "iterations must be >= 0, got -1\n",
            ),
            (
                lambda p: p["detector"]["class_weights"].__setitem__(0, 0),
                MALFORMED + "ValidationError: detector: class_weights[0] must be finite "
                "and > 0, got 0\n",
            ),
            (
                lambda p: p["detector"]["class_weights"].__setitem__(0, -1.0),
                MALFORMED + "ValidationError: detector: class_weights[0] must be finite "
                "and > 0, got -1.0\n",
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
        assert err.count("\n") == 1   # one error line, no warning beside it
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("single", lambda p, two: p.update(mode="three"),
             "pipeline mode 'three' is not single or two"),
            ("single", lambda p, two: p.update(detector=None),
             "single pipeline lacks a detector"),
            ("single", lambda p, two: p.update(stretch_model=None),
             "single pipeline lacks a stretch_model"),
            ("two", lambda p, one: p.update(detector=one["detector"]),
             "two pipeline has a detector"),
            ("two", lambda p, one: p.update(stretch_model=one["stretch_model"]),
             "two pipeline has a stretch_model"),
            ("single", lambda p, two: p["forests"].pop("y_term"),
             "single pipeline forests ['x_term'] are not ['x_term', 'y_term']"),
            ("two", lambda p, one: p["forests"].update(x3=p["forests"]["x1"]),
             "two pipeline forests ['x1', 'x2', 'x3', 'y1', 'y2'] are not "
             "['x1', 'x2', 'y1', 'y2']"),
            ("single", lambda p, two: p.update(force_model=two["force_model"]),
             "single pipeline force GP has mean_offset (2,), not (): one output "
             "per force (force)"),
            ("two", lambda p, one: p.update(force_model=one["force_model"]),
             "two pipeline force GP has mean_offset (), not (2,): one output per "
             "force (force1, force2)"),
            # one forest one channel wide: named by its path, beside the others
            ("single", lambda p, two: p["forests"]["y_term"].update(n_features=21),
             "pipeline models read different feature widths: stretch_model 20, "
             "detector 20, force_model 20, preprocessing 20, forests.x_term 20, "
             "forests.y_term 21\n"),
            ("two", lambda p, one: p["forests"]["x2"].update(n_features=21),
             "pipeline models read different feature widths: force_model 20, "
             "preprocessing 20, forests.x1 20, forests.x2 21, forests.y1 20, "
             "forests.y2 20\n"),
        ],
        ids=["mode", "single-detector", "single-stretch", "two-detector",
             "two-stretch", "missing-forest", "extra-forest", "single-gp-outputs",
             "two-gp-outputs", "single-forest-width", "two-forest-width"],
    )
    def test_pipeline_of_the_wrong_mode_is_data_error(
        self, cli_env, tmp_path, mode, edit, message
    ):
        # each edit may borrow a model from the other mode's bundle
        other = "two" if mode == "single" else "single"
        d = json.loads(cli_env[f"{mode}_bundle"].read_text())
        borrowed = json.loads(cli_env[f"{other}_bundle"].read_text())["pipeline"]
        edit(d["pipeline"], borrowed)
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(d))
        rc, stdout, err = run_cli(
            "infer", "--bundle", str(bundle), "--frames", str(cli_env["frames_csv"]),
            "--config", cli_env["cfg"], "--out", str(tmp_path / "est.csv"),
        )
        assert (rc, stdout) == (2, "")
        assert err.startswith(MALFORMED + "ValidationError: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "est.csv").exists()

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

    def test_frames_that_are_not_utf8_are_data_error(self, cli_env, tmp_path):
        frames = tmp_path / "frames.csv"
        # the first field of the first frame starts with a byte UTF-8 never uses
        text = cli_env["frames_csv"].read_bytes()
        frames.write_bytes(text.replace(b"\n", b"\n\xff", 1))
        out = tmp_path / "est.csv"
        rc, _, err = run_cli(
            "infer",
            "--bundle",
            str(cli_env["single_bundle"]),
            "--frames",
            str(frames),
            "--config",
            cli_env["cfg"],
            "--out",
            str(out),
        )
        assert rc == 2
        assert err.startswith(f"error: {frames} is not UTF-8 text: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()

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


# Every ranged int and float leaf of a single-contact bundle's models
BUNDLE_LEAVES = [
    ("detector.bias", float),
    ("detector.kernel_gamma", float, "> 0"),
    ("detector.class_weights[0]", float, "> 0"),
    ("detector.class_weights[1]", float, "> 0"),
    ("detector.iterations", int, ">= 0"),
    ("detector.kkt_gap", float),
    ("force_model.hyper.length_scale", float, "> 0", "<= 1e150"),
    ("force_model.hyper.signal_var", float, "> 0"),
    ("force_model.hyper.noise_var", float, ">= 0"),
    ("stretch_model.intercept", float),
]


class TestBundleBoundarySweep:
    """Each ranged leaf of a bundle's models set to each bound, just outside
    a closed bound, to 1e308 and to a 400-digit int: ``eskin infer`` refuses
    a value outside the range with exit 2 and one line that names the leaf,
    and a bundle with one inside it loads. The sweep is about what a load
    accepts, not about serving at extreme values. Before the ranges were
    declared on the fields, the 400-digit int in a float leaf other than
    ``bias`` and ``kkt_gap`` ended in an OverflowError traceback; every other
    case had the exit code it has now."""

    @pytest.mark.parametrize("path, value, accepted", sweep_cases(BUNDLE_LEAVES))
    def test_leaf(self, cli_env, tmp_path, path, value, accepted):
        d = json.loads(cli_env["single_bundle"].read_text())
        set_leaf(d["pipeline"], path, value)
        bundle, out = tmp_path / "bundle.json", tmp_path / "est.csv"
        bundle.write_text(json.dumps(d))
        if accepted:
            load_pipeline(bundle)
            return
        rc, _, err = run_cli(
            "infer", "--bundle", str(bundle), "--frames", str(cli_env["frames_csv"]),
            "--config", cli_env["cfg"], "--out", str(out),
        )
        assert rc == 2
        assert names_leaf(err, "error: malformed model bundle: ", path), err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value, accepted", sweep_cases([("seed", int, ">= 0")])
    )
    def test_report_seed(self, cli_env, tmp_path, path, value, accepted):
        d = json.loads(eval_report(cli_env, "single").read_text())
        set_leaf(d, path, value)
        report = tmp_path / "report.json"
        report.write_text(json.dumps(d))
        rc, _, err = run_cli("report", str(report))
        if accepted:
            assert rc == 0
            return
        assert rc == 2
        assert names_leaf(err, "error: malformed report: ", path), err


def eval_report(cli_env, mode: str):
    """The report.json of ``eskin eval`` on the workspace's dataset."""
    path = cli_env["out"] / f"report_{mode}" / "report.json"
    if not path.exists():
        rc, _, _ = run_cli(
            "eval", str(cli_env[f"{mode}_csv"]), "--config", cli_env["cfg"]
        )
        assert rc == 0
    return path


class TestReport:
    @pytest.fixture()
    def report_dir(self, cli_env):
        return eval_report(cli_env, "single").parent

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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_metric_is_data_error(self, report_dir, tmp_path, literal):
        d = json.loads((report_dir / "report.json").read_text())
        d["pooled"]["force_r2"] = 0.0
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d).replace('"force_r2": 0.0', f'"force_r2": {literal}'))
        rc, _, err = run_cli("report", str(bad))
        assert rc == 2
        assert err == f"error: report is not valid JSON: {literal} is not a JSON number\n"

    @pytest.mark.parametrize("n_samples", [-1, 0])
    def test_report_without_samples_is_data_error(self, report_dir, tmp_path, n_samples):
        d = json.loads((report_dir / "report.json").read_text())
        d["n_samples"] = n_samples
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        rc, _, err = run_cli("report", str(bad))
        assert rc == 2
        assert err == (
            "error: malformed report: ValidationError: n_samples must be >= 1, "
            f"got {n_samples}\n"
        )

    @pytest.mark.parametrize("k", [0, 1, None], ids=["0", "1", "n_samples+1"])
    def test_fold_count_no_cross_validation_writes_is_data_error(
        self, report_dir, tmp_path, k
    ):
        d = json.loads((report_dir / "report.json").read_text())
        d["k"] = k = d["n_samples"] + 1 if k is None else k
        # every per-fold list holds k values, so only the fold count is wrong
        d["per_fold"] = {name: (v * k)[:k] for name, v in d["per_fold"].items()}
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        rc, stdout, err = run_cli("report", str(bad))
        assert (rc, stdout) == (2, "")
        assert err == (
            f"error: malformed report: ValidationError: report k {k} is outside "
            f"[2, n_samples {d['n_samples']}]\n"
        )

    def test_negative_seed_is_data_error(self, report_dir, tmp_path):
        d = json.loads((report_dir / "report.json").read_text())
        d["seed"] = -4
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        rc, stdout, err = run_cli("report", str(bad))
        assert (rc, stdout) == (2, "")
        assert err == (
            "error: malformed report: ValidationError: seed must be >= 0, got -4\n"
        )


class TestReportValueRanges:
    """A report whose metric values are impossible is refused on load with
    exit 2 and one error line; a possible value, such as a negative R^2,
    still loads."""

    @staticmethod
    def run_edited(cli_env, tmp_path, mode, where, name, value):
        d = json.loads(eval_report(cli_env, mode).read_text())
        if where == "per_fold":
            d[where][name][0] = value
        else:
            d[where][name] = value
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        return run_cli("report", str(bad))

    def assert_refused(self, result, message):
        rc, stdout, err = result
        assert (rc, stdout) == (2, "")
        assert err == f"error: malformed report: ValidationError: report {message}\n"

    @pytest.mark.parametrize(
        "mode, where, name, value",
        [
            ("single", "pooled", "detection_accuracy", -0.5),
            ("single", "fold_mean", "row_accuracy", 1.5),
            ("single", "per_fold", "col_accuracy", -1.0),
            ("two", "pooled", "x2_accuracy", 1.25),
        ],
    )
    def test_accuracy_outside_0_1(self, cli_env, tmp_path, mode, where, name, value):
        self.assert_refused(
            self.run_edited(cli_env, tmp_path, mode, where, name, value),
            f"{where}.{name} {value} is outside [0, 1]",
        )

    @pytest.mark.parametrize(
        "mode, where, name, value",
        [
            ("single", "pooled", "stretch_mse", -1.0),
            ("single", "per_fold", "force_mse", -0.5),
            ("single", "fold_std", "force_r2", -0.5),
            ("two", "pooled", "force_mse_shared_axis", -1.0),
            ("two", "fold_std", "x1_accuracy", -1e-9),
        ],
    )
    def test_mse_or_std_below_0(self, cli_env, tmp_path, mode, where, name, value):
        result = self.run_edited(cli_env, tmp_path, mode, where, name, value)
        if where == "fold_std":
            self.assert_refused(result, f"{where}.{name} {value} is below 0")
        else:
            self.assert_refused(result, f"{where}.{name} {value} is outside [0, inf]")

    @pytest.mark.parametrize(
        "mode, where, name, value",
        [
            ("single", "pooled", "force_r2", 1.5),
            ("single", "per_fold", "stretch_r2", 2.0),
            ("two", "fold_mean", "force2_r2", 1.0000001),
        ],
    )
    def test_r2_above_1(self, cli_env, tmp_path, mode, where, name, value):
        self.assert_refused(
            self.run_edited(cli_env, tmp_path, mode, where, name, value),
            f"{where}.{name} {value} is outside [-inf, 1]",
        )

    @pytest.mark.parametrize(
        "mode, where, name, value",
        [
            ("single", "pooled", "stretch_mse", HUGE),
            ("single", "per_fold", "force_r2", -HUGE),
            ("single", "fold_mean", "detection_accuracy", HUGE),
            ("two", "fold_std", "force1_r2", HUGE),
        ],
        ids=["pooled", "per_fold", "fold_mean", "fold_std"],
    )
    def test_value_no_float_holds(self, cli_env, tmp_path, mode, where, name, value):
        # used to end in an OverflowError traceback while formatting
        self.assert_refused(
            self.run_edited(cli_env, tmp_path, mode, where, name, value),
            f"{where}.{name} is too large for a float",
        )

    def test_negative_r2_loads(self, cli_env, tmp_path):
        rc, stdout, err = self.run_edited(
            cli_env, tmp_path, "single", "pooled", "force_r2", -3.0
        )
        assert (rc, err) == (0, "")
        assert "force_r2=-3 " in stdout

    @pytest.mark.parametrize(
        "mode, name, index, label",
        [("single", "row", 0, 0), ("single", "col", -1, 11), ("two", "y1", 0, -1)],
    )
    def test_confusion_label_outside_1_10(self, cli_env, tmp_path, mode, name, index, label):
        d = json.loads(eval_report(cli_env, mode).read_text())
        labels = d["confusions"][name]["labels"]
        labels[index] = label
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        self.assert_refused(
            run_cli("report", str(bad)), f"confusions.{name} labels {labels} not in 1..10"
        )


def _total(cm: dict) -> int:
    return sum(map(sum, cm["counts"]))


def _bump_first_count(cm: dict) -> None:
    cm["counts"][0][0] += 1


def _single_totals_message(d: dict) -> str:
    totals = {name: _total(d["confusions"][name]) for name in ("col", "row")}
    return (f"confusions count {totals} rows: need one count of at most "
            f"n_samples {d['n_samples']}")


class TestReportConfusions:
    """A report's confusions must be the ones its mode's evaluation writes:
    single-contact row and col labelled 1..10 and counting the same rows, at
    most n_samples; two-contact matrices sharing strictly increasing labels
    and each counting n_samples. Each broken rule exits 2 with one error
    line."""

    @pytest.mark.parametrize(
        "mode, edit, message",
        [
            ("single",
             lambda d: d["confusions"]["row"]["labels"].reverse(),
             lambda d: "confusions.row labels [10, 9, 8, 7, 6, 5, 4, 3, 2, 1] "
                       "are not 1..10"),
            ("single",
             lambda d: _bump_first_count(d["confusions"]["col"]),
             _single_totals_message),
            ("single",
             lambda d: d.update(n_samples=_total(d["confusions"]["row"]) - 1),
             _single_totals_message),
            ("two",
             lambda d: d["confusions"]["y2"]["labels"].reverse(),
             lambda d: "confusions.y2 labels [6, 1] are not strictly increasing"),
            ("two",
             lambda d: d["confusions"]["x2"].update(labels=[1, 7]),
             lambda d: "confusions.x2 labels [1, 7] differ from confusions.x1 "
                       "labels [1, 6]"),
            ("two",
             lambda d: _bump_first_count(d["confusions"]["y1"]),
             lambda d: "confusions count {} rows: need one count of exactly n_samples {}".format(
                 {name: _total(d["confusions"][name]) for name in ("x1", "x2", "y1", "y2")},
                 d["n_samples"])),
        ],
        ids=["single-labels", "single-totals-differ", "single-total-above-n",
             "two-labels-order", "two-labels-differ", "two-total"],
    )
    def test_inconsistent_confusions_are_refused(self, cli_env, tmp_path, mode, edit, message):
        d = json.loads(eval_report(cli_env, mode).read_text())
        edit(d)
        bad = tmp_path / "report.json"
        bad.write_text(json.dumps(d))
        rc, stdout, err = run_cli("report", str(bad))
        assert (rc, stdout) == (2, "")
        assert err == f"error: malformed report: ValidationError: report {message(d)}\n"


class TestModeFromInput:
    """train and eval take the contact mode from the dataset, infer from the
    bundle: on two-contact inputs they write what the two-contact API
    computes."""

    def test_train(self, cli_env, tmp_path):
        # the workspace's two-contact bundle is trained without --mode
        cfg = load_config(cli_env["cfg"])
        expected = tmp_path / "expected.json"
        save_pipeline(train(load_dataset(cli_env["two_csv"]), cfg.pipeline), expected)
        assert cli_env["two_bundle"].read_bytes() == expected.read_bytes()

    def test_eval(self, cli_env):
        cfg = load_config(cli_env["cfg"])
        report = evalkit.cross_validate(
            load_dataset(cli_env["two_csv"]), cfg.k_two, seed=cfg.seed,
            config=cfg.pipeline,
        )
        assert eval_report(cli_env, "two").read_text() == report.to_json()

    def test_infer(self, cli_env, tmp_path):
        x = load_dataset(cli_env["two_csv"]).x[:5]
        frames, est = tmp_path / "frames.csv", tmp_path / "est.csv"
        with open(frames, "w") as f:
            write_frames(x, f)
        rc, _, _ = run_cli(
            "infer", "--bundle", str(cli_env["two_bundle"]), "--frames", str(frames),
            "--config", cli_env["cfg"], "--out", str(est),
        )
        assert rc == 0
        pred = predict_batch(load_pipeline(cli_env["two_bundle"]), x)
        rows = [
            ",".join(f"{n.x},{n.y},{_fmt(f)}" for n, f in two_estimate(pred, i).contacts)
            for i in range(len(x))
        ]
        assert est.read_text().splitlines() == ["x1,y1,f1_n,x2,y2,f2_n", *rows]

    @pytest.mark.parametrize("command", ["train", "eval", "infer"])
    def test_mode_option_is_refused(self, cli_env, tmp_path, command):
        inputs = {
            "train": [str(cli_env["two_csv"])],
            "eval": [str(cli_env["two_csv"])],
            "infer": ["--bundle", str(cli_env["two_bundle"]),
                      "--frames", str(cli_env["frames_csv"])],
        }[command]
        out = tmp_path / "out"
        rc, stdout, err = run_cli(
            command, *inputs, "--mode", "two", "--config", cli_env["cfg"],
            "--out", str(out),
        )
        assert (rc, stdout) == (1, "")
        assert err == "error: eskin: unrecognized arguments: --mode two\n"
        assert not out.exists()


def one_leaf_mutations(doc: dict, keys_required: bool = True) -> list:
    """Every way to change one leaf of a parsed JSON artifact, as (path,
    kind). A leaf is a scalar, a list or an array payload. Kinds: "swap" (a
    scalar of another JSON type), the "nan", "inf" and "-inf" literals,
    "delete" (the key that holds it) and "empty" (a non-empty list or array)."""
    found = []

    def walk(node, path):
        if isinstance(node, dict):
            if set(node) == {"data", "dtype", "shape"} and node["shape"][:1] != [0]:
                found.append((path, "empty"))
            for key, value in node.items():
                if keys_required:
                    found.append((path + (key,), "delete"))
                walk(value, path + (key,))
        elif isinstance(node, list):
            if node:
                found.append((path, "empty"))
            for i, value in enumerate(node):
                walk(value, path + (i,))
        else:
            found.extend((path, kind) for kind in ("swap", "nan", "inf", "-inf"))

    walk(doc, ())
    return found


def mutated(doc: dict, path: tuple, kind: str) -> str:
    """The JSON text of ``doc`` with the leaf at ``path`` changed by
    ``kind``. ``doc`` stays as it is: only the containers on the path are
    copied."""
    doc = parent = copy.copy(doc)
    *head, last = path
    for step in head:
        parent[step] = parent = copy.copy(parent[step])
    value = parent[last]
    if kind == "delete":
        del parent[last]
    elif kind == "empty" and isinstance(value, list):
        parent[last] = []
    elif kind == "empty":   # an array payload with no rows
        parent[last] = {**value, "shape": [0, *value["shape"][1:]], "data": ""}
    elif kind == "swap":
        parent[last] = 1 if isinstance(value, str) else "x"
    else:
        parent[last] = float(kind)
    return json.dumps(doc)   # writes NaN and Infinity as the bare literals


def one_per_field(mutations: list) -> list:
    """The first mutation of each (document, field path, kind), list indices
    in the path folded together: every record check a one-leaf change can
    reach, without the repeats that array elements bring. A NaN or Infinity
    literal is refused by the JSON reader before any field is read, so each
    literal is tried at the first path of each document only."""
    first = {}
    for i, path, how in mutations:
        if how in ("nan", "inf", "-inf"):
            field = ()
        else:
            field = tuple("*" if isinstance(step, int) else step for step in path)
        first.setdefault((i, field, how), (i, path, how))
    return list(first.values())


class Cases(dict):
    """A dict whose repr, which hypothesis prints for a failing example,
    names only its keys."""

    def __repr__(self):
        return f"Cases({', '.join(self)})"


@pytest.fixture(scope="module")
def corrupt_cases(cli_env):
    """Per artifact kind, its valid documents, each as (parsed JSON, file to
    write a changed copy to, argv that reads that file, exit code), and
    every one-leaf mutation of each, as (document index, path, kind)."""
    root, cfg = cli_env["root"] / "corrupt", cli_env["cfg"]
    root.mkdir()
    shutil.copy(cli_env["single_csv"], root / "data.csv")
    full_config = to_dict(RunConfig())

    infer = [
        "infer", "--bundle", str(root / "bundle.json"), "--frames",
        str(cli_env["frames_csv"]), "--config", cfg, "--out", str(root / "est.csv"),
    ]
    docs = {
        "bundle": [
            (cli_env[f"{mode}_bundle"], root / "bundle.json", infer, 2)
            for mode in ("single", "two")
        ],
        "report": [
            (eval_report(cli_env, mode), root / "report.json",
             ["report", str(root / "report.json")], 2)
            for mode in ("single", "two")
        ],
        "sidecar": [
            (cli_env["single_csv"].with_suffix(".csv.meta.json"),
             root / "data.csv.meta.json",
             ["train", str(root / "data.csv"), "--config", cfg,
              "--out", str(root / "trained.json")], 2),
        ],
        "config": [
            (full_config, root / "cfg.json",
             ["generate", "--config", str(root / "cfg.json"),
              "--out", str(root / "generated.csv")], 1),
        ],
    }
    cases = Cases()
    for kind, sources in docs.items():
        parsed = [
            (src if isinstance(src, dict) else json.loads(src.read_text()), *rest)
            for src, *rest in sources
        ]
        # a config file lists only the keys it changes, so any key may go
        mutations = [
            (i, path, how)
            for i, (doc, *_) in enumerate(parsed)
            for path, how in one_leaf_mutations(doc, keys_required=kind != "config")
        ]
        cases[kind] = (parsed, mutations)
    return cases


class TestCorruptArtifacts:
    """One changed leaf of a valid artifact ends the command that reads it
    with exit 1 (a config) or 2 (a bundle, report or dataset sidecar), one
    error line and no traceback."""

    @pytest.mark.parametrize("kind", ["bundle", "report", "sidecar", "config"])
    # clean_env, the one function-scoped fixture, holds for every example
    @settings(
        max_examples=25, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_one_changed_leaf_is_refused(self, corrupt_cases, kind, data):
        docs, mutations = corrupt_cases[kind]
        i, path, how = data.draw(st.sampled_from(mutations))
        doc, target, argv, code = docs[i]
        target.write_text(mutated(doc, path, how))
        rc, _, err = run_cli(*argv)
        assert (rc, err.count("\n")) == (code, 1), (path, how, err)
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["bundle", "report", "sidecar", "config"])
    def test_every_field_path_is_refused(self, corrupt_cases, kind):
        docs, mutations = corrupt_cases[kind]
        wrong = []
        for i, path, how in one_per_field(mutations):
            doc, target, argv, code = docs[i]
            target.write_text(mutated(doc, path, how))
            try:
                rc, _, err = run_cli(*argv)
            except Exception as exc:   # a traceback: report it with its mutation
                rc, err = None, f"{type(exc).__name__}: {exc}"
            if (rc, err.count("\n")) != (code, 1) or not err.startswith("error: "):
                wrong.append((i, path, how, rc, err))
        assert not wrong


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
