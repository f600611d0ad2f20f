"""Acceptance suite: every release criterion as one pass/fail test.

Run with ``pytest -v tests/test_acceptance.py`` to get a single verdict line
per criterion. Measured values are printed so a failing run shows how far off
it landed. The desk-scale evaluation (criterion 1) dominates the runtime at a
few minutes; everything else is seconds.
"""

import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from eskin import (
    Contact,
    NodeCoord,
    SingleForceProtocol,
    SkinModel,
    cross_validate,
    cross_validate_two,
    generate_single_force_dataset,
    simulate_frame,
)
from eskin.config import ENV_CONFIG
from eskin.learners import (
    GpHyper,
    SvmConfig,
    ForestConfig,
    forest_fit,
    gp_fit,
    gp_predict,
    ols_fit,
    svm_fit,
    svm_predict,
)

from .entry_point import eskin_command, eskin_env
from .oracles import (
    exhaustive_best_split,
    gini_split_score,
    gp_dense_oracle,
    ols_normal_oracle,
)


@pytest.fixture(scope="module")
def desk_ds():
    return generate_single_force_dataset(SkinModel(), SingleForceProtocol())


def test_criterion_1_single_contact_desk_evaluation(desk_ds):
    assert len(desk_ds) == 6060
    start = time.monotonic()
    report = cross_validate(desk_ds, k=10)
    elapsed = time.monotonic() - start
    pooled = report.pooled
    print(
        f"criterion 1: stretch_r2={pooled['stretch_r2']:.6f} "
        f"stretch_mse={pooled['stretch_mse']:.3e} "
        f"force_r2={pooled['force_r2']:.6f} "
        f"detection={pooled['detection_accuracy']:.6f} "
        f"row={pooled['row_accuracy']:.6f} col={pooled['col_accuracy']:.6f} "
        f"elapsed={elapsed:.1f}s"
    )
    assert pooled["stretch_r2"] >= 0.99
    assert pooled["stretch_mse"] <= 1e-4
    assert pooled["force_r2"] >= 0.80
    assert pooled["detection_accuracy"] >= 0.95
    assert pooled["row_accuracy"] >= 0.90
    assert pooled["col_accuracy"] >= 0.90
    assert report.confusions["row"].is_diagonal_dominant()
    assert report.confusions["col"].is_diagonal_dominant()
    assert elapsed <= 600.0


def test_criterion_2_two_contact_evaluation(two_ds):
    assert len(two_ds) == 648
    report = cross_validate_two(two_ds, k=5)
    pooled = report.pooled
    print(
        f"criterion 2: x1={pooled['x1_accuracy']:.4f} y1={pooled['y1_accuracy']:.4f} "
        f"x2={pooled['x2_accuracy']:.4f} y2={pooled['y2_accuracy']:.4f} "
        f"f1_r2={pooled['force1_r2']:.4f} f2_r2={pooled['force2_r2']:.4f} "
        f"shared_mse={pooled['force_mse_shared_axis']:.4f} "
        f"disjoint_mse={pooled['force_mse_disjoint']:.4f}"
    )
    for key in ("x1_accuracy", "y1_accuracy", "x2_accuracy", "y2_accuracy"):
        assert pooled[key] >= 0.90, key
    assert pooled["force1_r2"] >= 0.65
    assert pooled["force2_r2"] >= 0.65
    assert pooled["force_mse_shared_axis"] > pooled["force_mse_disjoint"]


def test_criterion_3_gp_against_dense_inverse():
    rng = np.random.default_rng(202)
    worst_mean = 0.0
    worst_var = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        x = rng.normal(0.0, 1.0, (n, d))
        y = rng.normal(0.0, 1.0, n)
        hyper = GpHyper(
            length_scale=float(rng.uniform(0.5, 3.0)),
            signal_var=float(rng.uniform(0.5, 2.0)),
            noise_var=float(rng.uniform(1e-4, 1e-2)),
        )
        q = rng.normal(0.0, 1.0, (4, d))
        model = gp_fit(x, y, hyper)
        mean, std = gp_predict(model, q)
        want_mean, want_std = gp_dense_oracle(
            x, y, q, hyper.length_scale, hyper.signal_var, hyper.noise_var
        )
        worst_mean = max(worst_mean, float(np.max(np.abs(mean - want_mean))))
        worst_var = max(
            worst_var, float(np.max(np.abs(std**2 - want_std**2)))
        )
    print(
        f"criterion 3: worst mean err={worst_mean:.3e} "
        f"worst variance err={worst_var:.3e} over 50 problems"
    )
    assert worst_mean <= 1e-9
    assert worst_var <= 1e-9


def test_criterion_4_ols_against_normal_equations():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d + 2, 51))
        x = rng.normal(0.0, 1.0, (n, d))
        w = rng.normal(0.0, 2.0, d)
        y = x @ w + float(rng.normal(0.0, 1.0)) + rng.normal(0.0, 0.05, n)
        model = ols_fit(x, y)
        ow, ob = ols_normal_oracle(x, y)
        worst = max(
            worst,
            float(np.max(np.abs(np.array(model.weights) - ow))),
            abs(model.intercept - ob),
        )
    print(f"criterion 4: worst coefficient err={worst:.3e} over 50 problems")
    assert worst <= 1e-10


def _split_fixtures():
    rng = np.random.default_rng(404)
    fixtures = [
        # the 4-sample reference case
        (np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0, 0, 1, 1])),
        # 1-d, 6 samples, interleaved tail
        (np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [5.0]]),
         np.array([0, 0, 1, 1, 0, 1])),
        # 2-d xor: no single split beats the base node
        (np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
         np.array([0, 0, 1, 1])),
        # constant feature next to an informative one
        (np.column_stack([np.full(8, 3.0), np.arange(8.0)]),
         np.array([0, 0, 0, 0, 1, 1, 1, 1])),
        # duplicated feature values force midpoint handling
        (np.array([[0.0], [0.0], [1.0], [1.0], [2.0], [2.0]]),
         np.array([0, 0, 0, 1, 1, 1])),
        # three classes in 2-d
        (np.array([[0.0, 0.0], [0.1, 0.4], [1.0, 1.2], [1.1, 0.9],
                   [2.2, 2.0], [2.0, 2.3]]),
         np.array([0, 0, 1, 1, 2, 2])),
    ]
    for _ in range(6):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(1, 4))
        x = np.round(rng.normal(0.0, 1.0, (n, d)), 2)
        y = rng.integers(0, 3, n)
        if len(np.unique(y)) < 2:
            y[0] = (y[0] + 1) % 3
        fixtures.append((x, y))
    return fixtures


def test_criterion_5_forest_root_splits_match_exhaustive_gini():
    checked = 0
    for x, y in _split_fixtures():
        assert len(y) <= 20
        cfg = ForestConfig(
            n_trees=1, bootstrap=False, features_per_split=x.shape[1]
        )
        root = forest_fit(x, y, cfg).trees[0]
        best_score, ties = exhaustive_best_split(x, y)
        if "counts" in root:
            assert not ties, "tree refused a split the oracle found"
        else:
            assert (root["feature"], root["threshold"]) in ties
            mask = x[:, root["feature"]] <= root["threshold"]
            achieved = gini_split_score(y[mask], y[~mask], int(y.max()) + 1)
            assert achieved == pytest.approx(best_score, abs=1e-9)
        checked += 1
    print(f"criterion 5: {checked} fixtures, all root splits optimal")


def test_criterion_6_svm_duals_and_separable_fits():
    rng = np.random.default_rng(505)
    fixtures = [
        (
            np.array([[-2.0], [-1.9], [1.9], [2.0]]),
            np.array([-1.0, -1.0, 1.0, 1.0]),
            SvmConfig(),
        ),
        (
            np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([-1.0, -1.0, 1.0, 1.0]),
            SvmConfig(c=10.0, gamma=1.0),
        ),
    ]
    for seed in range(3):
        n_neg = int(rng.integers(10, 25))
        n_pos = int(rng.integers(10, 25))
        x = np.vstack(
            [
                rng.normal(-2.0, 0.35, (n_neg, 2)),
                rng.normal(2.0, 0.35, (n_pos, 2)),
            ]
        )
        y = np.concatenate([-np.ones(n_neg), np.ones(n_pos)])
        fixtures.append((x, y, SvmConfig()))

    worst_sum = 0.0
    for x, y, config in fixtures:
        model = svm_fit(x, y, config)
        dual_sum = abs(float(model.dual_coefs.sum()))
        worst_sum = max(worst_sum, dual_sum)
        assert dual_sum <= 1e-6
        w_neg, w_pos = model.class_weights
        assert np.all(model.dual_coefs <= config.c * w_pos + 1e-9)
        assert np.all(model.dual_coefs >= -(config.c * w_neg) - 1e-9)
        assert np.array_equal(svm_predict(model, x), y)
    print(
        f"criterion 6: {len(fixtures)} fixtures, worst |sum alpha_i y_i|="
        f"{worst_sum:.2e}, all training fits exact"
    )


def _random_model(rng):
    return SkinModel(
        baseline=float(rng.uniform(0.5, 2.0)),
        stretch_gain_x=float(rng.uniform(0.0, 5.0)),
        stretch_gain_y=float(rng.uniform(0.0, 5.0)),
        force_scale=float(rng.uniform(0.05, 0.5)),
        force_sat=float(rng.uniform(0.5, 5.0)),
        neighbor_decay=float(rng.uniform(0.1, 0.9)),
        neighbor_reach=int(rng.integers(0, 5)),
        noise_sigma=0.0,
        edge_taper=float(rng.uniform(0.0, 0.8)),
    )


def _random_node(rng):
    return NodeCoord(int(rng.integers(1, 11)), int(rng.integers(1, 11)))


def test_criterion_7_simulator_properties():
    rng = np.random.default_rng(606)
    trials = 120

    for _ in range(trials):   # determinism
        model = _random_model(rng)
        contacts = [Contact(_random_node(rng), float(rng.uniform(0.0, 10.0)))]
        stretch = float(rng.uniform(1.0, 1.2))
        seed = int(rng.integers(0, 2**31))
        assert simulate_frame(model, stretch, contacts, seed) == simulate_frame(
            model, stretch, contacts, seed
        )

    for _ in range(trials):   # stretch linearity
        model = _random_model(rng)
        stretch = float(rng.uniform(1.0, 1.2))
        rest = simulate_frame(model, 1.0, [], 0)
        pulled = simulate_frame(model, stretch, [], 0)
        dx = np.array(pulled.cx) - np.array(rest.cx)
        dy = np.array(pulled.cy) - np.array(rest.cy)
        assert np.allclose(dx, model.stretch_gain_x * (stretch - 1.0), atol=1e-9)
        assert np.allclose(dy, model.stretch_gain_y * (stretch - 1.0), atol=1e-9)

    for _ in range(trials):   # force monotonicity
        model = _random_model(rng)
        node = _random_node(rng)
        f1 = float(rng.uniform(0.0, 8.0))
        f2 = f1 + float(rng.uniform(0.1, 5.0))
        lo = simulate_frame(model, 1.0, [Contact(node, f1)], 0).as_vector()
        hi = simulate_frame(model, 1.0, [Contact(node, f2)], 0).as_vector()
        assert np.all(hi >= lo - 1e-12)
        assert hi[node.x - 1] > lo[node.x - 1]
        assert hi[10 + node.y - 1] > lo[10 + node.y - 1]

    for _ in range(trials):   # locality
        model = _random_model(rng)
        node = _random_node(rng)
        stretch = float(rng.uniform(1.0, 1.2))
        rest = simulate_frame(model, stretch, [], 0)
        touched = simulate_frame(
            model, stretch, [Contact(node, float(rng.uniform(0.1, 10.0)))], 0
        )
        for i in range(10):
            if abs((i + 1) - node.x) > model.neighbor_reach:
                assert touched.cx[i] == rest.cx[i]
            if abs((i + 1) - node.y) > model.neighbor_reach:
                assert touched.cy[i] == rest.cy[i]

    for _ in range(trials):   # superposition
        model = _random_model(rng)
        stretch = float(rng.uniform(1.0, 1.2))
        n1 = _random_node(rng)
        n2 = _random_node(rng)
        if n1 == n2:
            n2 = NodeCoord(n1.x % 10 + 1, n1.y)
        f1 = float(rng.uniform(0.0, 10.0))
        f2 = float(rng.uniform(0.0, 10.0))
        rest = simulate_frame(model, stretch, [], 0).as_vector()
        s1 = simulate_frame(model, stretch, [Contact(n1, f1)], 0).as_vector()
        s2 = simulate_frame(model, stretch, [Contact(n2, f2)], 0).as_vector()
        both = simulate_frame(
            model, stretch, [Contact(n1, f1), Contact(n2, f2)], 0
        ).as_vector()
        assert np.allclose(both, rest + (s1 - rest) + (s2 - rest), atol=1e-9)

    print(f"criterion 7: 5 properties x {trials} random parameterisations")


def _run_chain(workdir: Path) -> dict[str, bytes]:
    env = eskin_env({k: v for k, v in os.environ.items() if k != ENV_CONFIG})
    ds = workdir / "ds.csv"
    bundle = workdir / "bundle.json"
    report_dir = workdir / "report"
    steps = [
        eskin_command("generate", "--reps", "1", "--out", str(ds)),
        eskin_command("train", str(ds), "--out", str(bundle)),
        eskin_command("eval", str(ds), "--k", "3", "--out", str(report_dir)),
    ]
    for cmd in steps:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=600
        )
        assert proc.returncode == 0, f"{cmd}: {proc.stderr}"
    return {
        "dataset": ds.read_bytes(),
        "bundle": bundle.read_bytes(),
        "report": (report_dir / "report.json").read_bytes(),
        "cm_row": (report_dir / "cm_row.csv").read_bytes(),
        "cm_col": (report_dir / "cm_col.csv").read_bytes(),
    }


def test_criterion_8_chain_reproducibility(tmp_path):
    first = _run_chain(tmp_path / "run1")
    second = _run_chain(tmp_path / "run2")
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    print(
        "criterion 8: generate/train/eval chain byte-identical across runs "
        f"({len(first)} artifacts compared)"
    )
