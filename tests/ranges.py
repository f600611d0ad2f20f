"""Boundary values of a ranged scalar leaf, and the checks a refusal of one
must pass, for the sweeps that set each leaf of a config, bundle or report
to them. A leaf is named by its dotted path, a list item by ``[i]``:
``single_protocol.stretches[1]``."""

import math
import operator
import re

import pytest

HUGE = 10**400   # a JSON int: JSON sets no size limit, no float holds it

_OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def boundary_values(kind: type, *bounds: str) -> list:
    """(value, accepted) pairs for a leaf of type ``kind`` whose range is
    ``bounds``, each like ">= 1" or "< 1": each bound itself, the value just
    outside each closed bound, 1e308 and HUGE. An int leaf refuses 1e308,
    which is not an int; a float leaf refuses HUGE, which no float holds."""
    parsed = [(_OPS[op], kind(b)) for op, b in (bound.split() for bound in bounds)]

    def inside(value) -> bool:
        return all(op(value, b) for op, b in parsed)

    values = []
    for op, b in parsed:
        values.append(b)
        if op in (operator.ge, operator.le):
            step = -1 if op is operator.ge else 1
            values.append(b + step if kind is int else math.nextafter(b, step * math.inf))
    return [(v, inside(v)) for v in values] + [
        (1e308, kind is float and inside(1e308)),
        (HUGE, kind is int and inside(HUGE)),
    ]


def sweep_cases(leaves: list) -> list:
    """pytest params of (path, value, accepted) for every boundary value of
    every (path, kind, *bounds) leaf."""
    return [
        pytest.param(path, value, accepted, id=f"{path}={'HUGE' if value is HUGE else value}")
        for path, kind, *bounds in leaves
        for value, accepted in boundary_values(kind, *bounds)
    ]


def set_leaf(doc: dict, path: str, value) -> None:
    """Set the leaf at ``path`` of a parsed JSON document, adding any
    missing objects on the way."""
    steps = []
    for part in path.split("."):
        name, _, index = part.partition("[")
        steps += [name, int(index[:-1])] if index else [name]
    *head, last = steps
    for step in head:
        doc = doc.setdefault(step, {}) if isinstance(doc, dict) else doc[step]
    doc[last] = value


def names_leaf(message: str, prefix: str, path: str) -> bool:
    """Whether a one-line refusal after ``prefix`` names the leaf: a type
    error by its path, a range error as ``record: leaf`` (the leaf alone in
    a top-level record). A bundle or report message names its error class
    first."""
    record, _, leaf = path.rpartition(".")
    where = f"{record}: {leaf}" if record else leaf
    pattern = rf"(\w+Error: )?({re.escape(where)} must be |{re.escape(path)}: expected )"
    return "\n" not in message.rstrip("\n") and bool(
        re.match(re.escape(prefix) + pattern, message)
    )
