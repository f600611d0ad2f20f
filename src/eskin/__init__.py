"""Synthetic capacitive e-skin toolkit: a seeded simulator of a 10 x 10
stretchable sensor grid plus the learning pipeline that decouples global
stretch, contact location, and contact force from one 20-channel frame."""

from .config import RunConfig, apply_seed, load_config
from .core import (
    FRAME_HEADER,
    N_FEATURES,
    NODE_ZERO,
    PROTOCOL_FORCES,
    PROTOCOL_STRETCHES,
    CapacitanceFrame,
    Dataset,
    DatasetMeta,
    NodeCoord,
    load_dataset,
    read_dataset,
    read_frames,
    save_dataset,
    write_dataset,
    write_frames,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DegenerateLabelsError,
    EskinError,
    FactorizationError,
    NonFiniteError,
    NumericError,
    ParseError,
    ProtocolError,
    SchemaError,
    SingularDesignError,
    UndefinedMetricError,
    ValidationError,
)
from .evalkit import (
    ConfusionMatrix,
    MetricsReport,
    confusion,
    cross_validate,
    cross_validate_two,
    mse,
    r2,
    stratified_kfold,
    write_report_files,
)
from .pipeline import (
    ContactEstimate,
    PipelineConfig,
    TrainedPipeline,
    TwoContactEstimate,
    infer,
    load_pipeline,
    predict_batch,
    save_pipeline,
    train,
)
from .sim import (
    Contact,
    SingleForceProtocol,
    SkinModel,
    TwoForceProtocol,
    derive_seed,
    generate_single_force_dataset,
    generate_two_force_dataset,
    simulate_frame,
)

__version__ = "0.1.0"
