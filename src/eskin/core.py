"""Domain types, dataset schema and the CSV interchange format.

A capacitance frame is one scan of the 20 terminals (10 x + 10 y). Samples
attach ground-truth labels to a frame; datasets are homogeneous ordered
collections of samples plus a metadata record describing how they were
generated. Everything here is an immutable value object.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from .codec import from_dict, to_dict
from .errors import ParseError, SchemaError, ValidationError

#: Stretch ratios of the acquisition protocol (rest length 101 mm, 8 mm steps).
PROTOCOL_STRETCHES = (1.0, 1.07921, 1.15842)

#: Force levels of the acquisition protocol, in newtons (132 g indenter
#: assembly plus 200 g increments, at g = 9.8 m/s^2).
PROTOCOL_FORCES = (0.0, 1.2936, 3.2536, 5.2136)

GRAVITY_M_S2 = 9.8

N_TERMINALS_PER_AXIS = 10
N_FEATURES = 2 * N_TERMINALS_PER_AXIS

SINGLE_HEADER = (
    [f"cx{i}" for i in range(1, 11)]
    + [f"cy{i}" for i in range(1, 11)]
    + ["force_n", "node_x", "node_y", "lambda"]
)
TWO_HEADER = (
    [f"cx{i}" for i in range(1, 11)]
    + [f"cy{i}" for i in range(1, 11)]
    + ["f1_n", "x1", "y1", "f2_n", "x2", "y2"]
)

SCHEMA_SINGLE = "single"
SCHEMA_TWO = "two"

#: Label-free frame files (inference input) carry only the 20 channels.
FRAME_HEADER = SINGLE_HEADER[:N_FEATURES]


def force_from_mass_kg(mass_kg: float) -> float:
    """Weight of a mass in newtons at the protocol's g = 9.8 m/s^2."""
    return mass_kg * GRAVITY_M_S2


@dataclass(frozen=True)
class NodeCoord:
    """Grid intersection of an x- and a y-terminal; (0, 0) means no contact."""

    x: int
    y: int

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            return
        if not (1 <= self.x <= 10 and 1 <= self.y <= 10):
            raise ValidationError(
                f"node ({self.x}, {self.y}) invalid: both coordinates must be "
                f"in 1..10, or both 0 for no contact"
            )

    @property
    def is_contact(self) -> bool:
        return self.x != 0

    @property
    def node_id(self) -> int:
        if not self.is_contact:
            return 0
        return (self.y - 1) * 10 + self.x

    @classmethod
    def from_node_id(cls, node_id: int) -> "NodeCoord":
        if node_id == 0:
            return NODE_ZERO
        if not 1 <= node_id <= 100:
            raise ValidationError(f"node id {node_id} outside 0..100")
        return cls(x=(node_id - 1) % 10 + 1, y=(node_id - 1) // 10 + 1)


NODE_ZERO = NodeCoord(0, 0)


def node_id(node: NodeCoord) -> int:
    """Row-major node number: 0 for no contact, else (y-1)*10 + x."""
    return node.node_id


def validate_stretch(lam: float) -> float:
    if not math.isfinite(lam) or lam < 1.0:
        raise ValidationError(f"stretch ratio {lam} must be finite and >= 1")
    return float(lam)


def validate_force(newtons: float) -> float:
    if not math.isfinite(newtons) or newtons < 0.0:
        raise ValidationError(f"force {newtons} N must be finite and >= 0")
    return float(newtons)


@dataclass(frozen=True)
class CapacitanceFrame:
    """One scan: 10 x-terminal and 10 y-terminal capacitance values.

    Values are unitless positive reals (baseline 1.0 by convention).
    Serialisation order is cx1..cx10, cy1..cy10.
    """

    cx: tuple[float, ...]
    cy: tuple[float, ...]

    def __post_init__(self):
        for name, vals in (("cx", self.cx), ("cy", self.cy)):
            if len(vals) != N_TERMINALS_PER_AXIS:
                raise ValidationError(f"{name} must hold 10 values, got {len(vals)}")
            for v in vals:
                if not math.isfinite(v) or v <= 0.0:
                    raise ValidationError(
                        f"capacitance value {v} in {name} must be finite and > 0"
                    )

    @classmethod
    def from_vector(cls, values: Sequence[float]) -> "CapacitanceFrame":
        values = [float(v) for v in values]
        if len(values) != N_FEATURES:
            raise ValidationError(f"frame needs 20 values, got {len(values)}")
        return cls(cx=tuple(values[:10]), cy=tuple(values[10:]))

    def as_vector(self) -> np.ndarray:
        return np.array(self.cx + self.cy, dtype=float)


@dataclass(frozen=True)
class SingleContactSample:
    """A frame with its force, node and stretch labels (24 values serialised)."""

    frame: CapacitanceFrame
    force: float
    node: NodeCoord
    stretch: float

    def __post_init__(self):
        validate_force(self.force)
        validate_stretch(self.stretch)
        if (self.force == 0.0) != (not self.node.is_contact):
            raise ValidationError(
                f"force {self.force} N with node ({self.node.x}, {self.node.y}) "
                f"violates the force-0 <=> node-0 invariant"
            )

    def row(self) -> list[float]:
        return list(self.frame.as_vector()) + [
            self.force,
            float(self.node.x),
            float(self.node.y),
            self.stretch,
        ]


@dataclass(frozen=True)
class TwoContactSample:
    """A frame with two (force, node) label pairs (26 values serialised)."""

    frame: CapacitanceFrame
    force1: float
    node1: NodeCoord
    force2: float
    node2: NodeCoord

    def __post_init__(self):
        validate_force(self.force1)
        validate_force(self.force2)
        if self.node1 == self.node2 and self.node1.is_contact:
            raise ValidationError(
                f"two-contact sample repeats node ({self.node1.x}, {self.node1.y})"
            )

    def row(self) -> list[float]:
        return list(self.frame.as_vector()) + [
            self.force1,
            float(self.node1.x),
            float(self.node1.y),
            self.force2,
            float(self.node2.x),
            float(self.node2.y),
        ]


Sample = SingleContactSample | TwoContactSample


@dataclass(frozen=True)
class DatasetMeta:
    """Provenance record carried in the dataset's sidecar file."""

    seed: int
    schema: str
    generator_config_digest: str


@dataclass(frozen=True)
class Dataset:
    """Ordered, schema-homogeneous collection of samples plus metadata."""

    samples: tuple[Sample, ...]
    meta: DatasetMeta | None = None

    def __post_init__(self):
        kinds = {type(s) for s in self.samples}
        if len(kinds) > 1:
            raise SchemaError("dataset mixes single- and two-contact samples")
        if self.meta is not None and self.samples:
            if self.meta.schema != self.schema:
                raise SchemaError(
                    f"metadata schema {self.meta.schema!r} does not match "
                    f"samples ({self.schema!r})"
                )

    @property
    def schema(self) -> str:
        if not self.samples:
            return self.meta.schema if self.meta is not None else SCHEMA_SINGLE
        return (
            SCHEMA_SINGLE
            if isinstance(self.samples[0], SingleContactSample)
            else SCHEMA_TWO
        )

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def features(self) -> np.ndarray:
        """(n, 20) feature matrix in serialisation order."""
        return np.array([s.frame.as_vector() for s in self.samples], dtype=float)

    def approx_equal(self, other: "Dataset", tol: float = 1e-9) -> bool:
        """Field-wise comparison of all rows within an absolute tolerance."""
        if len(self) != len(other) or self.schema != other.schema:
            return False
        for a, b in zip(self.samples, other.samples):
            ra, rb = a.row(), b.row()
            if any(abs(x - y) > tol for x, y in zip(ra, rb)):
                return False
        return True


# ---------------------------------------------------------------------------
# CSV interchange format


def _fmt(value: float) -> str:
    # 12 significant digits: values here are O(1)-O(10), so absolute
    # round-trip error stays well under the 1e-9 comparison tolerance.
    return format(float(value), ".12g")


def write_dataset(ds: Dataset, dest: IO[str]) -> None:
    """Write the dataset as CSV text (header + one row per sample)."""
    header = SINGLE_HEADER if ds.schema == SCHEMA_SINGLE else TWO_HEADER
    dest.write(",".join(header) + "\n")
    for s in ds.samples:
        dest.write(",".join(_fmt(v) for v in s.row()) + "\n")


def write_dataset_meta(meta: DatasetMeta, dest: IO[str]) -> None:
    json.dump(to_dict(meta), dest, indent=2, sort_keys=True)
    dest.write("\n")


def _coord(value: float) -> int:
    if value != int(value):
        raise ValidationError(f"node coordinate {value} is not an integer")
    return int(value)


def _parse_row(fields: list[str], lineno: int) -> Sample:
    try:
        values = [float(v) for v in fields]
    except ValueError as e:
        raise ParseError(f"non-numeric field ({e})", lineno) from None
    frame = CapacitanceFrame.from_vector(values[:N_FEATURES])
    tail = values[N_FEATURES:]
    if len(fields) == len(SINGLE_HEADER):
        force, nx, ny, lam = tail
        return SingleContactSample(
            frame=frame,
            force=force,
            node=NodeCoord(_coord(nx), _coord(ny)),
            stretch=lam,
        )
    f1, x1, y1, f2, x2, y2 = tail
    return TwoContactSample(
        frame=frame,
        force1=f1,
        node1=NodeCoord(_coord(x1), _coord(y1)),
        force2=f2,
        node2=NodeCoord(_coord(x2), _coord(y2)),
    )


def read_dataset(source: IO[str], meta: DatasetMeta | None = None) -> Dataset:
    """Parse CSV text produced by :func:`write_dataset`.

    The schema is inferred from the column count (24 vs 26). Malformed rows
    raise :class:`ParseError` with their line number; rows violating domain
    invariants raise :class:`ValidationError`.
    """
    header_line = source.readline()
    if not header_line:
        raise ParseError("empty input: missing header row", 1)
    header = header_line.rstrip("\n").split(",")
    if header == SINGLE_HEADER:
        width = len(SINGLE_HEADER)
    elif header == TWO_HEADER:
        width = len(TWO_HEADER)
    else:
        raise ParseError(
            f"unrecognised header with {len(header)} columns", 1
        )

    samples: list[Sample] = []
    for lineno, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != width:
            raise ParseError(
                f"expected {width} columns, got {len(fields)}", lineno
            )
        try:
            samples.append(_parse_row(fields, lineno))
        except ValidationError as e:
            raise ValidationError(f"line {lineno}: {e}") from None
    return Dataset(samples=tuple(samples), meta=meta)


def read_frames(source: IO[str]) -> tuple[CapacitanceFrame, ...]:
    """Parse a label-free frames CSV (header + 20 capacitance columns)."""
    header_line = source.readline()
    if not header_line:
        raise ParseError("empty input: missing header row", 1)
    if header_line.rstrip("\n").split(",") != FRAME_HEADER:
        raise ParseError("expected the 20-column capacitance header", 1)
    frames = []
    for lineno, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != N_FEATURES:
            raise ParseError(
                f"expected {N_FEATURES} columns, got {len(fields)}", lineno
            )
        try:
            values = [float(v) for v in fields]
        except ValueError as e:
            raise ParseError(f"non-numeric field ({e})", lineno) from None
        try:
            frames.append(CapacitanceFrame.from_vector(values))
        except ValidationError as e:
            raise ValidationError(f"line {lineno}: {e}") from None
    return tuple(frames)


def write_frames(frames, dest: IO[str]) -> None:
    dest.write(",".join(FRAME_HEADER) + "\n")
    for frame in frames:
        dest.write(",".join(_fmt(v) for v in frame.as_vector()) + "\n")


def read_dataset_meta(source: IO[str]) -> DatasetMeta:
    try:
        payload = json.load(source)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid metadata JSON: {e}") from None
    try:
        return from_dict(DatasetMeta, payload)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(
            f"malformed dataset metadata: {type(e).__name__}: {e}"
        ) from None


# ---------------------------------------------------------------------------
# Path-level helpers


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so failures never leave partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent if str(path.parent) else ".", prefix=f".{path.name}."
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def meta_path_for(csv_path: str | Path) -> Path:
    return Path(str(csv_path) + ".meta.json")


def save_dataset(ds: Dataset, csv_path: str | Path) -> None:
    """Write the CSV plus its metadata sidecar (``<path>.meta.json``)."""
    import io

    buf = io.StringIO()
    write_dataset(ds, buf)
    atomic_write_text(csv_path, buf.getvalue())
    if ds.meta is not None:
        mbuf = io.StringIO()
        write_dataset_meta(ds.meta, mbuf)
        atomic_write_text(meta_path_for(csv_path), mbuf.getvalue())


def load_dataset(csv_path: str | Path) -> Dataset:
    """Read a CSV dataset, attaching the metadata sidecar when present."""
    meta = None
    mpath = meta_path_for(csv_path)
    if mpath.exists():
        with open(mpath) as f:
            meta = read_dataset_meta(f)
    with open(csv_path) as f:
        return read_dataset(f, meta=meta)


def config_digest(payload: dict) -> str:
    """Stable hex digest of a JSON-serialisable generator configuration."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
