"""Decoupling pipelines: stretch OLS, contact detector SVM, row/column
forests and force GP, composed for single- and two-contact inference.

Training fits one standardizer on the training split; the SVM and the
forests consume standardized features, the GP standardizes internally on its
own (contact-positive) subset, and the stretch OLS reads raw capacitances.
Detection gates localisation and force at inference: a negative detection
reports node 0 and force 0 without running the classifiers or the GP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    GpHyper,
    GpModel,
    LinearModel,
    Standardizer,
    SvmConfig,
    SvmModel,
    forest_fit,
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
BUNDLE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Hyperparameters for every stage; node_axes only matters for the
    two-contact variant."""

    svm: SvmConfig = field(default_factory=SvmConfig)
    forest: ForestConfig = field(default_factory=ForestConfig)
    # shorter length scale than the GP default: force decoding must condition
    # on contact position, and 2.0 oversmooths across neighbouring placements
    gp: GpHyper = field(default_factory=lambda: GpHyper(length_scale=1.0))
    gp_cap: int = 2000
    gp_search: bool = False
    node_axes: tuple[int, ...] = (1, 6, 10)
    seed: int = 0

    def __post_init__(self):
        if self.gp_cap < 1:
            raise ValidationError("gp_cap must be >= 1")
        for a in self.node_axes:
            if not 1 <= a <= 10:
                raise ValidationError(f"node axis value {a} outside 1..10")

    def to_dict(self) -> dict:
        return {
            "svm": self.svm.to_dict(),
            "forest": self.forest.to_dict(),
            "gp": self.gp.to_dict(),
            "gp_cap": self.gp_cap,
            "gp_search": self.gp_search,
            "node_axes": list(self.node_axes),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return cls(
            svm=SvmConfig.from_dict(d["svm"]),
            forest=ForestConfig.from_dict(d["forest"]),
            gp=GpHyper.from_dict(d["gp"]),
            gp_cap=int(d["gp_cap"]),
            gp_search=bool(d["gp_search"]),
            node_axes=tuple(d["node_axes"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True)
class TrainedPipeline:
    """The single-contact model stack plus its preprocessing statistics."""

    stretch_model: LinearModel
    detector: SvmModel
    row_clf: ForestModel      # classes = y terminal - 1
    col_clf: ForestModel      # classes = x terminal - 1
    force_model: GpModel
    preprocessing: Standardizer
    config: PipelineConfig

    def to_dict(self) -> dict:
        return {
            "stretch_model": self.stretch_model.to_dict(),
            "detector": self.detector.to_dict(),
            "row_clf": self.row_clf.to_dict(),
            "col_clf": self.col_clf.to_dict(),
            "force_model": self.force_model.to_dict(),
            "preprocessing": self.preprocessing.to_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedPipeline":
        return cls(
            stretch_model=LinearModel.from_dict(d["stretch_model"]),
            detector=SvmModel.from_dict(d["detector"]),
            row_clf=ForestModel.from_dict(d["row_clf"]),
            col_clf=ForestModel.from_dict(d["col_clf"]),
            force_model=GpModel.from_dict(d["force_model"]),
            preprocessing=Standardizer.from_dict(d["preprocessing"]),
            config=PipelineConfig.from_dict(d["config"]),
        )


@dataclass(frozen=True)
class TrainedTwoPipeline:
    """Four coordinate forests and two force GPs for simultaneous contacts.

    Classifier classes are indices into node_axes (the protocol grid), not
    raw terminals; contact 1 is the smaller node_id at training time.
    """

    x1_clf: ForestModel
    y1_clf: ForestModel
    x2_clf: ForestModel
    y2_clf: ForestModel
    force1_model: GpModel
    force2_model: GpModel
    preprocessing: Standardizer
    config: PipelineConfig

    def to_dict(self) -> dict:
        return {
            "x1_clf": self.x1_clf.to_dict(),
            "y1_clf": self.y1_clf.to_dict(),
            "x2_clf": self.x2_clf.to_dict(),
            "y2_clf": self.y2_clf.to_dict(),
            "force1_model": self.force1_model.to_dict(),
            "force2_model": self.force2_model.to_dict(),
            "preprocessing": self.preprocessing.to_dict(),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedTwoPipeline":
        return cls(
            x1_clf=ForestModel.from_dict(d["x1_clf"]),
            y1_clf=ForestModel.from_dict(d["y1_clf"]),
            x2_clf=ForestModel.from_dict(d["x2_clf"]),
            y2_clf=ForestModel.from_dict(d["y2_clf"]),
            force1_model=GpModel.from_dict(d["force1_model"]),
            force2_model=GpModel.from_dict(d["force2_model"]),
            preprocessing=Standardizer.from_dict(d["preprocessing"]),
            config=PipelineConfig.from_dict(d["config"]),
        )


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


def _require_schema(ds: Dataset, schema: str) -> None:
    if ds.schema != schema:
        raise SchemaError(f"expected a {schema}-contact dataset, got {ds.schema}")


def train_single(train: Dataset, config: PipelineConfig | None = None) -> TrainedPipeline:
    """Fit the four-model stack on one training split.

    Localiser classes are inferred from the nodes actually present; a full
    protocol dataset yields the 10 row and 10 column classes.
    """
    config = config or PipelineConfig()
    _require_schema(train, SCHEMA_SINGLE)
    if len(train) == 0:
        raise ValidationError("empty training dataset")
    x = train.features()
    stretch = np.array([s.stretch for s in train])
    contact = np.array([s.node.is_contact for s in train])
    if not np.any(contact):
        raise CoverageError(
            "no contact-positive samples: every node class 1..100 is absent"
        )

    stretch_model = ols_fit(x, stretch)
    scaler = Standardizer.fit(x)
    z = scaler.transform(x)

    det_labels = np.where(contact, 1.0, -1.0)
    detector = svm_fit(z, det_labels, config.svm)

    pos = np.flatnonzero(contact)
    xs = np.array([train.samples[i].node.x for i in pos])
    ys = np.array([train.samples[i].node.y for i in pos])
    forces = np.array([train.samples[i].force for i in pos])
    col_clf = forest_fit(z[pos], xs - 1, config.forest)
    row_clf = forest_fit(z[pos], ys - 1, config.forest)

    hyper = config.gp
    if config.gp_search:
        hyper, _ = gp_grid_search(
            x[pos], forces, base=hyper, cap=config.gp_cap, seed=config.seed
        )
    force_model = gp_fit(
        x[pos], forces, hyper, cap=config.gp_cap, seed=config.seed
    )
    return TrainedPipeline(
        stretch_model=stretch_model,
        detector=detector,
        row_clf=row_clf,
        col_clf=col_clf,
        force_model=force_model,
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
    col_cls, _ = forest_predict(p.col_clf, z)
    row_cls, _ = forest_predict(p.row_clf, z)
    force_mean, _ = gp_predict(p.force_model, x, std=False)
    return {
        "stretch": stretch,
        "detected": detected,
        "x_term": col_cls + 1,
        "y_term": row_cls + 1,
        "force": np.maximum(force_mean, 0.0),
    }


def infer_single(p: TrainedPipeline, frame: CapacitanceFrame) -> ContactEstimate:
    x = frame.as_vector()[None, :]
    out = predict_single_batch(p, x)
    if out["detected"][0]:
        return ContactEstimate(
            stretch=float(out["stretch"][0]),
            contact_detected=True,
            node=NodeCoord(int(out["x_term"][0]), int(out["y_term"][0])),
            force=float(out["force"][0]),
        )
    return ContactEstimate(
        stretch=float(out["stretch"][0]),
        contact_detected=False,
        node=NODE_ZERO,
        force=0.0,
    )


def _axis_classes(values: np.ndarray, axes: tuple[int, ...], what: str) -> np.ndarray:
    lookup = {v: i for i, v in enumerate(sorted(axes))}
    missing = sorted(set(axes) - set(values.tolist()))
    if missing:
        raise CoverageError(f"{what} lacks protocol axis classes {missing}")
    try:
        return np.array([lookup[int(v)] for v in values])
    except KeyError as exc:
        raise ValidationError(
            f"{what} contains coordinate {exc.args[0]} outside node_axes {sorted(axes)}"
        )


def train_two(train: Dataset, config: PipelineConfig | None = None) -> TrainedTwoPipeline:
    config = config or PipelineConfig()
    _require_schema(train, SCHEMA_TWO)
    if len(train) == 0:
        raise CoverageError("empty two-contact dataset: every axis class is absent")
    x = train.features()
    scaler = Standardizer.fit(x)
    z = scaler.transform(x)
    axes = tuple(sorted(config.node_axes))

    streams = {
        "x1": np.array([s.node1.x for s in train]),
        "y1": np.array([s.node1.y for s in train]),
        "x2": np.array([s.node2.x for s in train]),
        "y2": np.array([s.node2.y for s in train]),
    }
    labels = {
        name: _axis_classes(vals, axes, f"{name} labels")
        for name, vals in streams.items()
    }
    f1 = np.array([s.force1 for s in train])
    f2 = np.array([s.force2 for s in train])

    def fit_gp(y: np.ndarray) -> GpModel:
        hyper = config.gp
        if config.gp_search:
            hyper, _ = gp_grid_search(
                x, y, base=hyper, cap=config.gp_cap, seed=config.seed
            )
        return gp_fit(x, y, hyper, cap=config.gp_cap, seed=config.seed)

    return TrainedTwoPipeline(
        x1_clf=forest_fit(z, labels["x1"], config.forest),
        y1_clf=forest_fit(z, labels["y1"], config.forest),
        x2_clf=forest_fit(z, labels["x2"], config.forest),
        y2_clf=forest_fit(z, labels["y2"], config.forest),
        force1_model=fit_gp(f1),
        force2_model=fit_gp(f2),
        preprocessing=scaler,
        config=config,
    )


def predict_two_batch(p: TrainedTwoPipeline, x: np.ndarray) -> dict[str, np.ndarray]:
    """Ungated per-model outputs; coordinates are mapped back to terminals."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = p.preprocessing.transform(x)
    axes = np.array(sorted(p.config.node_axes))
    out = {}
    for name, clf in (
        ("x1", p.x1_clf), ("y1", p.y1_clf), ("x2", p.x2_clf), ("y2", p.y2_clf)
    ):
        cls, _ = forest_predict(clf, z)
        out[name] = axes[cls]
    for name, gp in (("force1", p.force1_model), ("force2", p.force2_model)):
        mean, _ = gp_predict(gp, x, std=False)
        out[name] = np.maximum(mean, 0.0)
    return out


def infer_two(p: TrainedTwoPipeline, frame: CapacitanceFrame) -> TwoContactEstimate:
    out = predict_two_batch(p, frame.as_vector()[None, :])
    pairs = [
        (NodeCoord(int(out["x1"][0]), int(out["y1"][0])), float(out["force1"][0])),
        (NodeCoord(int(out["x2"][0]), int(out["y2"][0])), float(out["force2"][0])),
    ]
    pairs.sort(key=lambda nf: nf[0].node_id)
    return TwoContactEstimate(contacts=tuple(pairs))


def _bundle_dict(p: TrainedPipeline | TrainedTwoPipeline) -> dict:
    mode = "single" if isinstance(p, TrainedPipeline) else "two"
    return {
        "bundle_schema": BUNDLE_SCHEMA_VERSION,
        "mode": mode,
        "pipeline": p.to_dict(),
    }


def save_pipeline(p: TrainedPipeline | TrainedTwoPipeline, path: str | Path) -> None:
    """Canonical JSON (sorted keys, full float precision), written atomically,
    so equal pipelines always serialise byte-identically."""
    atomic_write_text(path, json.dumps(_bundle_dict(p), sort_keys=True, indent=1) + "\n")


def load_pipeline(path: str | Path) -> TrainedPipeline | TrainedTwoPipeline:
    try:
        d = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
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
        return cls.from_dict(d["pipeline"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed {mode} model bundle: {type(exc).__name__}: {exc}")


def pipeline_mode(p: TrainedPipeline | TrainedTwoPipeline) -> str:
    return "single" if isinstance(p, TrainedPipeline) else "two"
