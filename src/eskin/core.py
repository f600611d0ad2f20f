"""Domain types, dataset schema and the CSV interchange format.

A capacitance frame is one scan of the 20 terminals (10 x + 10 y). A dataset
holds a matrix of frames, one row per sample, the matching ground-truth
label columns, and a metadata record describing how it was generated.
Everything here is an immutable value object.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .codec import dumps, from_dict, loads, to_dict
from .errors import ParseError, SchemaError, ValidationError

#: Stretch ratios of the acquisition protocol (rest length 101 mm, 8 mm steps).
PROTOCOL_STRETCHES = (1.0, 1.07921, 1.15842)

#: Force levels of the acquisition protocol, in newtons (132 g indenter
#: assembly plus 200 g increments, at g = 9.8 m/s^2).
PROTOCOL_FORCES = (0.0, 1.2936, 3.2536, 5.2136)

GRAVITY_M_S2 = 9.8

N_TERMINALS_PER_AXIS = 10
N_FEATURES = 2 * N_TERMINALS_PER_AXIS

SCHEMA_SINGLE = "single"
SCHEMA_TWO = "two"

#: Label columns per schema, in CSV order.
LABEL_COLUMNS = {
    SCHEMA_SINGLE: ("force_n", "node_x", "node_y", "lambda"),
    SCHEMA_TWO: ("f1_n", "x1", "y1", "f2_n", "x2", "y2"),
}

_SCHEMA_OF_WIDTH = {len(cols): schema for schema, cols in LABEL_COLUMNS.items()}

#: Label-free frame files (inference input) carry only the 20 channels.
FRAME_HEADER = [f"cx{i}" for i in range(1, 11)] + [f"cy{i}" for i in range(1, 11)]
SINGLE_HEADER = FRAME_HEADER + list(LABEL_COLUMNS[SCHEMA_SINGLE])
TWO_HEADER = FRAME_HEADER + list(LABEL_COLUMNS[SCHEMA_TWO])


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


def validate_stretch(lam: float) -> None:
    if not math.isfinite(lam) or lam < 1.0:
        raise ValidationError(f"stretch ratio {lam} must be finite and >= 1")


def validate_force(newtons: float) -> None:
    if not math.isfinite(newtons) or newtons < 0.0:
        raise ValidationError(f"force {newtons} N must be finite and >= 0")


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
        bad, message = _frame_check(np.array([[*self.cx, *self.cy]], dtype=float))
        if bad[0]:
            raise ValidationError(message(0))

    @classmethod
    def from_vector(cls, values: Sequence[float]) -> "CapacitanceFrame":
        values = [float(v) for v in values]
        return cls(cx=tuple(values[:10]), cy=tuple(values[10:]))

    def as_vector(self) -> np.ndarray:
        return np.array(self.cx + self.cy, dtype=float)


@dataclass(frozen=True)
class DatasetMeta:
    """Provenance record carried in the dataset's sidecar file."""

    seed: int
    schema: str
    generator_config_digest: str


class _InvalidRow(ValidationError):
    """A row breaks a domain invariant; ``row`` is its 0-based index."""

    def __init__(self, row: int, detail: str):
        self.row = row
        self.detail = detail
        super().__init__(f"row {row}: {detail}")


def _check_rows(checks) -> None:
    """Raise for the first row any check rejects, described by the first
    check in list order that rejects it. ``checks`` holds (bad-row mask,
    row -> message) pairs."""
    bad = np.array([mask for mask, _ in checks])
    rows = np.flatnonzero(bad.any(axis=0))
    if rows.size:
        row = int(rows[0])
        raise _InvalidRow(row, checks[int(np.argmax(bad[:, row]))][1](row))


def _frame_check(x: np.ndarray) -> tuple:
    bad = ~(np.isfinite(x) & (x > 0.0))

    def message(i: int) -> str:
        j = int(np.argmax(bad[i]))
        axis = "cx" if j < N_TERMINALS_PER_AXIS else "cy"
        return f"capacitance value {x[i, j]} in {axis} must be finite and > 0"

    return bad.any(axis=1), message


def _at_least(values: np.ndarray, low: float, what: str) -> tuple:
    bad = ~(np.isfinite(values) & (values >= low))
    return bad, lambda i: f"{what} {values[i]} must be finite and >= {low:g}"


def _node_check(nx: np.ndarray, ny: np.ndarray) -> tuple:
    terminals = np.arange(1, N_TERMINALS_PER_AXIS + 1)
    on_grid = np.isin(nx, terminals) & np.isin(ny, terminals)
    return ~(on_grid | ((nx == 0) & (ny == 0))), lambda i: (
        f"node ({_fmt(nx[i])}, {_fmt(ny[i])}) invalid: both coordinates must "
        f"be integers in 1..10, or both 0 for no contact"
    )


@dataclass(frozen=True, eq=False)
class Dataset:
    """Frames and their labels, one row per sample, plus provenance.

    ``x`` is the (n, 20) capacitance matrix in serialisation order and
    ``labels`` the label columns in CSV order: (n, 4) single-contact
    (force_n, node_x, node_y, lambda) or (n, 6) two-contact (f1_n, x1, y1,
    f2_n, x2, y2). The label width names the schema. Both arrays are
    read-only copies, validated once on construction.
    """

    x: np.ndarray
    labels: np.ndarray
    meta: DatasetMeta | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        labels = np.array(self.labels, dtype=float)
        if x.ndim != 2 or x.shape[1] != N_FEATURES:
            raise SchemaError(f"features must be (n, {N_FEATURES}), got {x.shape}")
        if labels.ndim != 2 or labels.shape[1] not in _SCHEMA_OF_WIDTH:
            raise SchemaError(f"labels must be (n, 4) or (n, 6), got {labels.shape}")
        if labels.shape[0] != x.shape[0]:
            raise SchemaError(f"{x.shape[0]} frames but {labels.shape[0]} label rows")
        for arr in (x, labels):
            arr.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        if self.meta is not None and self.meta.schema != self.schema:
            raise SchemaError(
                f"metadata schema {self.meta.schema!r} does not match "
                f"the labels ({self.schema!r})"
            )
        if self.schema == SCHEMA_SINGLE:
            force, nx, ny, lam = labels.T
            checks = [
                _node_check(nx, ny),
                _at_least(force, 0.0, "force"),
                _at_least(lam, 1.0, "stretch ratio"),
                ((force == 0.0) != (nx == 0), lambda i: (
                    f"force {force[i]} with node ({_fmt(nx[i])}, {_fmt(ny[i])}) "
                    f"violates the force-0 <=> node-0 invariant"
                )),
            ]
        else:
            f1, x1, y1, f2, x2, y2 = labels.T
            checks = [
                _node_check(x1, y1),
                _node_check(x2, y2),
                _at_least(f1, 0.0, "force"),
                _at_least(f2, 0.0, "force"),
                ((x1 == x2) & (y1 == y2) & (x1 != 0), lambda i: (
                    f"two-contact sample repeats node ({_fmt(x1[i])}, {_fmt(y1[i])})"
                )),
            ]
        _check_rows([_frame_check(x)] + checks)

    @property
    def schema(self) -> str:
        return _SCHEMA_OF_WIDTH[self.labels.shape[1]]

    def __len__(self) -> int:
        return self.x.shape[0]

    def features(self) -> np.ndarray:
        """(n, 20) feature matrix in serialisation order (``x`` itself)."""
        return self.x

    def label(self, name: str) -> np.ndarray:
        """A contiguous copy of one label column, named by its CSV header."""
        columns = LABEL_COLUMNS[self.schema]
        if name not in columns:
            raise SchemaError(f"{self.schema}-contact data has no label {name!r}")
        return self.labels[:, columns.index(name)].copy()

    def node_ids(self, x: str = "node_x", y: str = "node_y") -> np.ndarray:
        """Row-major node numbers (0 for no contact) of the coordinate pair
        in label columns ``x`` and ``y``."""
        nx = self.label(x).astype(int)
        ny = self.label(y).astype(int)
        return np.where(nx != 0, (ny - 1) * 10 + nx, 0)

    def take(self, rows) -> "Dataset":
        """The given rows, in the given order, with the same metadata."""
        return Dataset(x=self.x[rows], labels=self.labels[rows], meta=self.meta)


# ---------------------------------------------------------------------------
# CSV interchange format


def _fmt(value: float) -> str:
    # 12 significant digits: values here are O(1)-O(10), so absolute
    # round-trip error stays well under the 1e-9 comparison tolerance.
    return format(float(value), ".12g")


def _write_table(header: list[str], rows: np.ndarray, dest: IO[str]) -> None:
    dest.write(",".join(header) + "\n")
    for row in rows.tolist():
        dest.write(",".join(_fmt(v) for v in row) + "\n")


def write_dataset(ds: Dataset, dest: IO[str]) -> None:
    """Write the dataset as CSV text (header + one row per sample)."""
    header = SINGLE_HEADER if ds.schema == SCHEMA_SINGLE else TWO_HEADER
    _write_table(header, np.hstack([ds.x, ds.labels]), dest)


def write_dataset_meta(meta: DatasetMeta, dest: IO[str]) -> None:
    dest.write(dumps(to_dict(meta), indent=2, sort_keys=True) + "\n")


def _read_table(source: IO[str], headers: tuple[list[str], ...], build):
    """Parse a header row equal to one of ``headers`` and its numeric rows,
    then return ``build(table)``. Blank lines are skipped; a malformed line,
    or a row ``build`` rejects, is reported by its line number."""
    header_line = source.readline()
    if not header_line:
        raise ParseError("empty input: missing header row", 1)
    header = header_line.rstrip("\n").split(",")
    if header not in headers:
        raise ParseError(f"unrecognised header with {len(header)} columns", 1)
    rows, lines = [], []
    for lineno, line in enumerate(source, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(fields)}", lineno
            )
        try:
            rows.append([float(v) for v in fields])
        except ValueError as e:
            raise ParseError(f"non-numeric field ({e})", lineno) from None
        lines.append(lineno)
    try:
        return build(np.array(rows, dtype=float).reshape(len(rows), len(header)))
    except _InvalidRow as e:
        raise ValidationError(f"line {lines[e.row]}: {e.detail}") from None


def read_dataset(source: IO[str], meta: DatasetMeta | None = None) -> Dataset:
    """Parse CSV text produced by :func:`write_dataset`.

    The schema is inferred from the column count (24 vs 26). Malformed rows
    raise :class:`ParseError` with their line number; rows violating domain
    invariants raise :class:`ValidationError`.
    """
    return _read_table(
        source,
        (SINGLE_HEADER, TWO_HEADER),
        lambda t: Dataset(x=t[:, :N_FEATURES], labels=t[:, N_FEATURES:], meta=meta),
    )


def _valid_frames(x: np.ndarray) -> np.ndarray:
    _check_rows([_frame_check(x)])
    return x


def read_frames(source: IO[str]) -> np.ndarray:
    """Parse a label-free frames CSV (header + 20 capacitance columns) into
    an (n, 20) array."""
    return _read_table(source, (FRAME_HEADER,), _valid_frames)


def write_frames(x: np.ndarray, dest: IO[str]) -> None:
    """Write an (n, 20) capacitance matrix as a label-free frames CSV."""
    _write_table(FRAME_HEADER, np.asarray(x, dtype=float).reshape(-1, N_FEATURES), dest)


def read_dataset_meta(source: IO[str]) -> DatasetMeta:
    try:
        payload = loads(source.read())
    except ValueError as e:
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


def read_text_file(path: str | Path, read):
    """``read`` (say :func:`read_frames`) of the UTF-8 text file at ``path``;
    bytes that are not UTF-8 raise ParseError, which names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return read(f)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def load_dataset(csv_path: str | Path) -> Dataset:
    """Read a CSV dataset, attaching the metadata sidecar when present."""
    meta = None
    mpath = meta_path_for(csv_path)
    if mpath.exists():
        meta = read_text_file(mpath, read_dataset_meta)
    return read_text_file(csv_path, lambda f: read_dataset(f, meta=meta))


def config_digest(payload: dict) -> str:
    """Stable hex digest of a JSON-serialisable generator configuration."""
    canon = dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
