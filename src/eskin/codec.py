"""The one JSON codec for every persisted record: model bundles, reports,
run configs and dataset metadata.

A record is a frozen dataclass and its field annotations are the format:
nested records, ``tuple[X, ...]`` and fixed tuples, ``X | None``,
``dict[str, X]``, arrays and JSON scalars. Every field is written and read;
state derived from the fields is a ``functools.cached_property``, which is
not a field. A record with array fields compares with ``fields_equal``.

An array field is annotated ``BoolArray``, ``IntArray`` or ``FloatArray``
and is written as ``{"data", "dtype", "shape"}``: ``data`` is the base64 of
the array's little-endian bytes, in C order, and ``dtype`` is the name of
one of those three types. So a load decodes bytes instead of parsing one
JSON number per element, and every float keeps its exact bits.

Decoding is strict. A missing key raises KeyError; an unknown key, or a
scalar that is not already its annotated JSON type, raises TypeError. An
array payload raises TypeError for a dtype other than the field's, and
ValueError for invalid base64 or a byte count that is not the shape's
element count times the item size. Each message names the dotted field path.
An int is accepted for a float field and kept as given, so a record
re-encodes to the bytes it was read from. A toolkit error that a nested
record's constructor raises is raised again with the record's path in front.
A scalar field declares its range on its annotation, as pydantic does:
``Annotated[float, Range(gt=0)]`` is read and written as the float, and the
record's ``__post_init__`` checks it with :func:`check_ranges`.

:func:`dumps` and :func:`loads` are the JSON text layer every artifact goes
through: JSON has no NaN or Infinity, so neither writes nor reads them.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import functools
import json
import math
import operator
import types
import typing
from typing import Annotated

import numpy as np

from .errors import EskinError, NonFiniteError, ValidationError

_UNIONS = (typing.Union, types.UnionType)
# scalar annotation -> (JSON types it accepts, how an error names them)
_SCALARS = {
    bool: ((bool,), "a bool"),
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}

# the closed list of array element types, by the name a payload gives
_DTYPES = {
    "bool": np.dtype("?"),
    "int32": np.dtype("<i4"),
    "float64": np.dtype("<f8"),
}
BoolArray = Annotated[np.ndarray, "bool"]
IntArray = Annotated[np.ndarray, "int32"]
FloatArray = Annotated[np.ndarray, "float64"]


_SYMBOLS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}


class Range:
    """Bounds of a scalar field: ``ge`` and ``le`` closed, ``gt`` and ``lt`` open."""

    def __init__(self, **bounds: float):
        self.bounds = [(_SYMBOLS[k], getattr(operator, k), b) for k, b in bounds.items()]


# the ranges most fields declare, ints by pydantic's names for them
Finite = Annotated[float, Range()]
Positive = Annotated[float, Range(gt=0)]
NonNegative = Annotated[float, Range(ge=0)]
PositiveInt = Annotated[int, Range(ge=1)]
NonNegativeInt = Annotated[int, Range(ge=0)]


def check_ranges(record, error: type[EskinError] = ValidationError) -> None:
    """Raise ``error`` for the first field of ``record``, or item ``name[i]``
    of a tuple field, outside its Range; a float field must be finite."""
    for name, tp in _fields(type(record)):
        _check(tp, getattr(record, name), name, error)


def _check(tp, value, path: str, error: type[EskinError]) -> None:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple:
        items = _items(args, len(value))
        if len(items) != len(value):
            raise error(f"{path} must hold {len(items)} items, got {len(value)}")
        for i, (item, v) in enumerate(zip(items, value)):
            _check(item, v, f"{path}[{i}]", error)
    elif origin in _UNIONS and value is not None:
        _check(_optional(tp), value, path, error)
    elif origin is Annotated and isinstance(args[1], Range):
        kind, bounds = args[0], args[1].bounds
        try:   # an int is compared as an int, but a float field's must be finite
            ok = kind is int or math.isfinite(value)
        except OverflowError:   # an int that no float holds
            ok = False
        if not (ok and all(op(value, bound) for _, op, bound in bounds)):
            text = [f"{sym} {bound:g}" for sym, _, bound in bounds]
            must = " and ".join(["finite"] * (kind is float and len(text) < 2) + text)
            raise error(f"{path} must be {must}, got {value!r}")


def fields_equal(a, b) -> bool:
    """``==`` for records that hold arrays, which the dataclass ``==`` cannot
    compare: the same type, and every field equal, arrays by value."""
    if type(a) is not type(b):
        return NotImplemented
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name))
                     for f in dataclasses.fields(a))
    )


@dataclasses.dataclass(frozen=True)
class _ArrayPayload:
    """How an array field is written: its bytes and how to read them."""

    dtype: str
    shape: tuple[int, ...]
    data: str


def dumps(obj, **kwargs) -> str:
    """``json.dumps`` that refuses NaN and +-Infinity, which JSON cannot
    carry, with NonFiniteError: a value to be written is not a number."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteError(f"cannot write a NaN or infinite value: {exc}") from None


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def loads(text: str):
    """``json.loads`` that refuses the ``NaN``, ``Infinity`` and
    ``-Infinity`` literals Python's json module would accept; like a syntax
    error (a JSONDecodeError), that raises ValueError."""
    return json.loads(text, parse_constant=_refuse_constant)


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object], ...]:
    """(name, resolved annotation) of every field of a record."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def to_dict(record) -> dict:
    """The JSON-ready form of a record: lists for tuples and arrays."""
    return {
        name: _encode(tp, getattr(record, name))
        for name, tp in _fields(type(record))
    }


def _encode(tp, value):
    if value is None:
        return None
    if dataclasses.is_dataclass(tp):
        return to_dict(value)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Annotated and args[1] in _DTYPES:
        # same_kind: a float array is never written as ints
        dtype = _DTYPES[args[1]]
        arr = np.asarray(value).astype(dtype, casting="same_kind", copy=False)
        return to_dict(_ArrayPayload(
            args[1], arr.shape, base64.b64encode(arr.tobytes()).decode("ascii")
        ))
    if origin in _UNIONS:
        return _encode(_optional(tp), value)
    if origin is tuple:
        return [_encode(a, v) for a, v in zip(_items(args, len(value)), value)]
    if origin is dict:
        return {k: _encode(args[1], v) for k, v in value.items()}
    return value


def from_dict(cls: type, data):
    """Rebuild a ``cls`` record from :func:`to_dict` output (or parsed JSON)."""
    return _record(cls, data, "")


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _record(cls: type, data, path: str):
    if not isinstance(data, dict):
        raise TypeError(
            f"{path or cls.__name__}: expected an object, got {type(data).__name__}"
        )
    fields = _fields(cls)
    unknown = sorted(set(data) - {name for name, _ in fields})
    if unknown:
        raise TypeError(f"unknown key {_at(path, unknown[0])!r}")
    kwargs = {}
    for name, tp in fields:
        if name not in data:
            raise KeyError(_at(path, name))
        kwargs[name] = _decode(tp, data[name], _at(path, name))
    try:
        return cls(**kwargs)
    except EskinError as exc:   # the same error, its class and exit code kept
        exc.args = (f"{path}: {exc}",) if path else exc.args
        raise


def _optional(tp):
    """X of ``X | None``, the one union a record may declare."""
    return next(a for a in typing.get_args(tp) if a is not type(None))


def _items(args: tuple, n: int) -> tuple:
    """Annotations of the n items of a ``tuple[X, ...]`` or fixed tuple."""
    return args[:1] * n if args[-1] is Ellipsis else args


def _expect(ok: bool, path: str, what: str, value) -> None:
    if not ok:
        got = type(value).__name__
        if not isinstance(value, (list, dict)):
            got += f" {value!r}"
        raise TypeError(f"{path}: expected {what}, got {got}")


def _decode(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return _record(tp, value, path)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in _UNIONS:
        return None if value is None else _decode(_optional(tp), value, path)
    if origin is Annotated and isinstance(args[1], Range):
        tp = args[0]   # the scalar it bounds, checked below
    elif origin is Annotated:
        return _array(args[1], _record(_ArrayPayload, value, path), path)
    if origin is tuple:
        _expect(isinstance(value, (list, tuple)), path, "a list", value)
        items = _items(args, len(value))
        if len(items) != len(value):
            raise TypeError(f"{path}: expected {len(items)} items, got {len(value)}")
        return tuple(
            _decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(items, value))
        )
    if origin is dict:
        _expect(isinstance(value, dict), path, "an object", value)
        return {k: _decode(args[1], v, _at(path, k)) for k, v in value.items()}
    if tp not in _SCALARS:
        raise TypeError(f"{path}: unsupported annotation {tp}")
    accepted, what = _SCALARS[tp]
    # bool is an int subclass, so it passes only where a bool is declared
    ok = isinstance(value, accepted) and (tp is bool or not isinstance(value, bool))
    _expect(ok, path, what, value)
    return value


def _array(dtype: str, payload: _ArrayPayload, path: str) -> np.ndarray:
    """The read-only array an array payload holds, checked against the
    field's dtype and the payload's own shape."""
    if payload.dtype not in _DTYPES:
        raise TypeError(
            f"{path}.dtype: {payload.dtype!r} is not one of {', '.join(_DTYPES)}"
        )
    if payload.dtype != dtype:
        raise TypeError(f"{path}.dtype: expected {dtype}, got {payload.dtype}")
    if any(n < 0 for n in payload.shape):
        raise ValueError(f"{path}.shape: negative size in {list(payload.shape)}")
    try:
        raw = base64.b64decode(payload.data, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"{path}.data: invalid base64: {exc}") from None
    np_dtype = _DTYPES[dtype]
    expected = math.prod(payload.shape) * np_dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"{path}.data: {len(raw)} bytes, expected {expected} for shape "
            f"{list(payload.shape)} of {dtype}"
        )
    # numpy reads any nonzero byte as True, but & and sums would see its bits
    if np_dtype.kind == "b" and raw.translate(None, b"\0\1"):
        raise ValueError(f"{path}.data: a bool byte is neither 0 nor 1")
    return np.frombuffer(raw, dtype=np_dtype).reshape(payload.shape)
