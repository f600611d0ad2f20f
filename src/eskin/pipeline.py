"""Decoupling pipelines: stretch OLS, contact detector SVM, row/column
forests and force GP, composed for single- and two-contact inference.

Training fits one standardizer on the training split; the SVM and the
forests consume standardized features, the GP standardizes internally on its
own (contact-positive) subset, and the stretch OLS reads raw capacitances.
Detection gates localisation and force at inference: a negative detection
reports node 0 and force 0 without running the classifiers or the GP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .codec import dumps, from_dict, loads, to_dict
from .core import (
    SCHEMA_SINGLE,
    SCHEMA_TWO,
    CapacitanceFrame,
    Dataset,
    NodeCoord,
    NODE_ZERO,
    atomic_write_text,
)
from .errors import CoverageError, SchemaError, ValidationError
from .learners import (
    ForestConfig,
    ForestModel,
    ForestTable,
    GpHyper,
    GpModel,
    LinearModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    compile_forests,
    fit_forests,
    forest_fit,   # unused; perfbench/tracer.py patches eskin.pipeline.forest_fit
    forest_predict,
    gp_fit,
    gp_grid_search,
    gp_predict,
    ols_fit,
    ols_predict,
    svm_fit,
    svm_predict,
)

# 2: force models no longer store their Cholesky factor
# 3: the SVM config no longer stores seed or max_passes
# 4: compact JSON; SVM iterations and KKT gap, GP rows offered
# 5: arrays as base64 bytes; forests as node arrays in queue order
# 6: the GP mean offset on the model; forests without config or n_classes
# 7: one two-output force GP for two contacts; the GP mean offset an array
# 8: standardizer statistics and OLS weights as arrays; every GP has a scaler
# 9: each forest stores its class labels; the config names no grid axes
BUNDLE_SCHEMA_VERSION = 9


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters for every stage."""

    svm: SvmConfig = field(default_factory=SvmConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    # shorter length scale than the GP default: force decoding must condition
    # on contact position, and 2.0 oversmooths across neighbouring placements
    gp: GpHyper = field(default_factory=lambda: GpHyper(length_scale=1.0))
    gp_cap: int = 2000
    gp_search: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.gp_cap < 1:
            raise ValidationError("gp_cap must be >= 1")


def _check_feature_widths(p: TrainedPipeline | TrainedTwoPipeline) -> None:
    """Raise ValidationError unless every model of ``p`` reads the same
    number of frame channels: a mismatch would otherwise surface as a numpy
    broadcast error on the first frame served."""
    widths = {}
    for f in fields(p):
        value = getattr(p, f.name)
        if isinstance(value, Standardizer):
            widths[f.name] = value.mean.shape[0]
        elif isinstance(value, LinearModel):
            widths[f.name] = value.weights.shape[0]
        elif isinstance(value, SvmModel):
            widths[f.name] = value.support_inputs.shape[1]
        elif isinstance(value, ForestModel):
            widths[f.name] = value.n_features
        elif isinstance(value, GpModel):
            widths[f.name] = value.train_inputs.shape[1]   # its scaler's too
    if len(set(widths.values())) > 1:
        raise ValidationError(
            "pipeline models read different feature widths: "
            + ", ".join(f"{name} {width}" for name, width in widths.items())
        )


@dataclass(frozen=True)
class TrainedPipeline:
    """The single-contact model stack plus its preprocessing statistics."""

    stretch_model: LinearModel
    detector: SvmModel
    row_clf: ForestModel      # classes: the y terminals it was trained on
    col_clf: ForestModel      # classes: the x terminals it was trained on
    force_model: GpModel
    preprocessing: Standardizer
    config: PipelineConfig

    def __post_init__(self):
        _check_feature_widths(self)

    @cached_property
    def forests(self) -> ForestTable:
        """(col_clf, row_clf) as one node table, built on first use."""
        return compile_forests((self.col_clf, self.row_clf))


@dataclass(frozen=True)
class TrainedTwoPipeline:
    """Four coordinate forests and one force GP with outputs (f1, f2) for
    simultaneous contacts.

    Each classifier's classes are the terminals its coordinate took in
    training; contact 1 is the smaller node_id at training time.
    """

    x1_clf: ForestModel
    y1_clf: ForestModel
    x2_clf: ForestModel
    y2_clf: ForestModel
    force_model: GpModel
    preprocessing: Standardizer
    config: PipelineConfig

    def __post_init__(self):
        _check_feature_widths(self)

    @cached_property
    def forests(self) -> ForestTable:
        """(x1_clf, y1_clf, x2_clf, y2_clf) as one node table, built on first use."""
        return compile_forests((self.x1_clf, self.y1_clf, self.x2_clf, self.y2_clf))


@dataclass(frozen=True)
class ContactEstimate:
    """Single-frame output; an undetected contact is node 0 with force 0."""

    stretch: float
    contact_detected: bool
    node: NodeCoord
    force: float

    def __post_init__(self):
        if not self.contact_detected and (
            self.node != NODE_ZERO or self.force != 0.0
        ):
            raise ValidationError(
                "undetected contact must report node 0 and force 0"
            )
        if self.force < 0:
            raise ValidationError("estimated force must be >= 0")


@dataclass(frozen=True)
class TwoContactEstimate:
    """Up to two (node, force) pairs sorted by node_id.

    Ground truth always has distinct nodes; predictions may coincide on a
    hard frame because the coordinate classifiers are independent.
    """

    contacts: tuple[tuple[NodeCoord, float], ...]

    def __post_init__(self):
        if len(self.contacts) > 2:
            raise ValidationError("at most 2 contacts")
        ids = [n.node_id for n, _ in self.contacts]
        if ids != sorted(ids):
            raise ValidationError("contacts must be sorted by node_id")
        if any(f < 0 for _, f in self.contacts):
            raise ValidationError("estimated forces must be >= 0")


def _fit_force_gp(x: np.ndarray, y: np.ndarray, config: PipelineConfig) -> GpModel:
    """The force GP on (x, y), its hyperparameters picked by marginal
    likelihood when config.gp_search is set."""
    if config.gp_search:
        model, _ = gp_grid_search(
            x, y, base=config.gp, cap=config.gp_cap, seed=config.seed
        )
        return model
    return gp_fit(x, y, config.gp, cap=config.gp_cap, seed=config.seed)


def train_single(train: Dataset, config: PipelineConfig | None = None) -> TrainedPipeline:
    """Fit the four-model stack on one training split.

    Localiser classes are the terminals of the contact rows; a full
    protocol dataset yields the 10 row and 10 column classes.
    """
    config = config or PipelineConfig()
    train.require(SCHEMA_SINGLE)
    x = train.x
    contact = train.label("node_x") != 0
    if not np.any(contact):
        raise CoverageError(
            "no contact-positive samples: every node class 1..100 is absent"
        )

    stretch_model = ols_fit(x, train.label("lambda"))
    scaler = Standardizer.fit(x)
    z = scaler.transform(x)

    det_labels = np.where(contact, 1.0, -1.0)
    detector = svm_fit(z, det_labels, config.svm)

    pos = np.flatnonzero(contact)
    col_clf, row_clf = fit_forests(
        z[pos], (train.label("node_x")[pos], train.label("node_y")[pos]), config.forest
    )
    return TrainedPipeline(
        stretch_model=stretch_model,
        detector=detector,
        row_clf=row_clf,
        col_clf=col_clf,
        force_model=_fit_force_gp(x[pos], train.label("force_n")[pos], config),
        preprocessing=scaler,
        config=config,
    )


def predict_single_batch(p: TrainedPipeline, x: np.ndarray) -> dict[str, np.ndarray]:
    """Raw per-model outputs for a feature matrix (n, 20).

    ``x_term``/``y_term``/``force`` are the ungated estimates for every row;
    composing with ``detected`` is the caller's choice (infer_single gates).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = p.preprocessing.transform(x)
    stretch = ols_predict(p.stretch_model, x)
    detected = svm_predict(p.detector, z) > 0
    x_term, y_term = forest_predict(p.forests, z)
    force_mean, _ = gp_predict(p.force_model, x, std=False)
    return {
        "stretch": stretch,
        "detected": detected,
        "x_term": x_term,
        "y_term": y_term,
        "force": np.maximum(force_mean, 0.0),
    }


def single_estimate(out: dict[str, np.ndarray], i: int) -> ContactEstimate:
    """Row ``i`` of :func:`predict_single_batch` output, gated by detection."""
    stretch = float(out["stretch"][i])
    if out["detected"][i]:
        node = NodeCoord(int(out["x_term"][i]), int(out["y_term"][i]))
        return ContactEstimate(stretch, True, node, float(out["force"][i]))
    return ContactEstimate(stretch, False, NODE_ZERO, 0.0)


def infer_single(p: TrainedPipeline, frame: CapacitanceFrame) -> ContactEstimate:
    return single_estimate(predict_single_batch(p, frame.as_vector()[None, :]), 0)


def train_two(train: Dataset, config: PipelineConfig | None = None) -> TrainedTwoPipeline:
    config = config or PipelineConfig()
    train.require(SCHEMA_TWO)
    if len(train) == 0:
        raise CoverageError("empty two-contact dataset: every axis class is absent")
    blank = np.flatnonzero((train.label("x1") == 0) | (train.label("x2") == 0))
    if blank.size:
        raise ValidationError(
            f"row {blank[0]} has a contact at node (0, 0), but two-contact "
            "training needs two pressed nodes"
        )
    x = train.x
    scaler = Standardizer.fit(x)
    z = scaler.transform(x)
    forces = np.column_stack((train.label("f1_n"), train.label("f2_n")))
    labels = tuple(train.label(name) for name in ("x1", "y1", "x2", "y2"))
    x1_clf, y1_clf, x2_clf, y2_clf = fit_forests(z, labels, config.forest)
    return TrainedTwoPipeline(
        x1_clf=x1_clf,
        y1_clf=y1_clf,
        x2_clf=x2_clf,
        y2_clf=y2_clf,
        force_model=_fit_force_gp(x, forces, config),
        preprocessing=scaler,
        config=config,
    )


def predict_two_batch(p: TrainedTwoPipeline, x: np.ndarray) -> dict[str, np.ndarray]:
    """Ungated per-model outputs; coordinates are terminals."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = p.preprocessing.transform(x)
    out = dict(zip(("x1", "y1", "x2", "y2"), forest_predict(p.forests, z)))
    mean, _ = gp_predict(p.force_model, x, std=False)
    out["force1"], out["force2"] = (np.maximum(m, 0.0) for m in mean.T)
    return out


def two_estimate(out: dict[str, np.ndarray], i: int) -> TwoContactEstimate:
    """Row ``i`` of :func:`predict_two_batch` output, contacts in node order."""
    pairs = [
        (NodeCoord(int(out["x1"][i]), int(out["y1"][i])), float(out["force1"][i])),
        (NodeCoord(int(out["x2"][i]), int(out["y2"][i])), float(out["force2"][i])),
    ]
    pairs.sort(key=lambda nf: nf[0].node_id)
    return TwoContactEstimate(contacts=tuple(pairs))


def infer_two(p: TrainedTwoPipeline, frame: CapacitanceFrame) -> TwoContactEstimate:
    return two_estimate(predict_two_batch(p, frame.as_vector()[None, :]), 0)


def _bundle_dict(p: TrainedPipeline | TrainedTwoPipeline) -> dict:
    return {
        "bundle_schema": BUNDLE_SCHEMA_VERSION,
        "mode": pipeline_mode(p),
        "pipeline": to_dict(p),
    }


def save_pipeline(p: TrainedPipeline | TrainedTwoPipeline, path: str | Path) -> None:
    """Canonical JSON on one line (sorted keys, no whitespace, arrays as
    the base64 of their bytes), written atomically, so equal pipelines
    always serialise byte-identically. Without ``indent`` CPython encodes in
    C. A NaN or infinite scalar raises NonFiniteError."""
    text = dumps(_bundle_dict(p), sort_keys=True, separators=(",", ":"))
    atomic_write_text(path, text + "\n")


def load_pipeline(path: str | Path) -> TrainedPipeline | TrainedTwoPipeline:
    try:
        d = loads(Path(path).read_text())
    except ValueError as exc:
        raise SchemaError(f"model bundle is not valid JSON: {exc}")
    if not isinstance(d, dict):
        raise SchemaError("model bundle must be a JSON object")
    if d.get("bundle_schema") != BUNDLE_SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported model bundle schema {d.get('bundle_schema')!r} "
            f"(this eskin reads schema {BUNDLE_SCHEMA_VERSION}); "
            "re-run `eskin train` to rebuild the bundle"
        )
    mode = d.get("mode")
    if mode == "single":
        cls = TrainedPipeline
    elif mode == "two":
        cls = TrainedTwoPipeline
    else:
        raise SchemaError(f"unknown bundle mode {mode!r}")
    try:
        return from_dict(cls, d["pipeline"])
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"malformed {mode} model bundle: {type(exc).__name__}: {exc}")


def pipeline_mode(p: TrainedPipeline | TrainedTwoPipeline) -> str:
    return "single" if isinstance(p, TrainedPipeline) else "two"
