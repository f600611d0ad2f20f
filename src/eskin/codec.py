"""The one JSON codec for every persisted record: model bundles, reports,
run configs and dataset metadata.

A record is a frozen dataclass and its field annotations are the format:
nested records, ``tuple[X, ...]`` and fixed tuples, ``X | None``,
``dict[str, X]``, ``np.ndarray`` (float) and JSON scalars. A field declared
``compare=False`` is derived state and is neither written nor read. A bare
``dict`` (a forest's nested trees) passes through untouched either way.

Decoding is strict. A missing key raises KeyError; an unknown key, or a
scalar that is not already its annotated JSON type, raises TypeError; a
ragged array raises ValueError. Each message names the dotted field path.
An int is accepted for a float field and kept as given, so a record
re-encodes to the bytes it was read from.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing

import numpy as np

_UNIONS = (typing.Union, types.UnionType)
# scalar annotation -> (JSON types it accepts, how an error names them)
_SCALARS = {
    bool: ((bool,), "a bool"),
    int: ((int,), "an int"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object], ...]:
    """(name, resolved annotation) of every serialised field of a record."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.compare
    )


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
    if tp is np.ndarray:
        return value.tolist()
    origin, args = typing.get_origin(tp), typing.get_args(tp)
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
    return cls(**kwargs)


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
    if tp is np.ndarray:
        return _array(value, path)
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
    if tp is dict:
        _expect(isinstance(value, dict), path, "an object", value)
        return value
    if tp not in _SCALARS:
        raise TypeError(f"{path}: unsupported annotation {tp}")
    accepted, what = _SCALARS[tp]
    # bool is an int subclass, so it passes only where a bool is declared
    ok = isinstance(value, accepted) and (tp is bool or not isinstance(value, bool))
    _expect(ok, path, what, value)
    return value


def _array(value, path: str) -> np.ndarray:
    _expect(isinstance(value, list), path, "a list", value)
    try:
        arr = np.asarray(value)
    except ValueError:
        raise ValueError(f"{path}: ragged array") from None
    # bools, strings, nulls and nested objects all land outside int/float
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{path}: expected an array of numbers, got dtype {arr.dtype}")
    return arr.astype(float, copy=False)
