"""The one reader and writer of the JSON input documents, the run config
and the scene, built from and into their dataclasses.

A dataclass is its document's schema: the key set, the required keys
(fields without a default) and each value's type come from its fields,
so none of them is listed anywhere else. A JSON key differs from its
field name only through ``field(metadata={"json": "id"})``. Numbers keep
the JSON type they were given (an int given for a float field stays an
int), so a document hashes and writes back as it was read.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

import numpy as np

_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("null", lambda v: v is None),
}


@cache
def _schema(cls) -> tuple:
    """(field, JSON key, type) of each field of dataclass cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f, f.metadata.get("json", f.name), hints[f.name]) for f in fields(cls))


def read(tp, value, where: str, error: type[Exception]):
    """The value of type tp held by JSON value: a dataclass from an object,
    a list, tuple or numpy float array from a list, or a scalar or union of
    scalars as given. where is the value's dotted key in its document (""
    at the top). A wrong type, a non-finite number, an unknown key or a
    missing required key raises error, naming the dotted key at fault."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        if isinstance(value, dict):
            return _read_object(tp, value, where, error)
    elif tp is np.ndarray:
        if isinstance(value, list):
            return _read_array(value, where, error)
    elif origin is list or origin is tuple:
        if isinstance(value, list):
            items = args if origin is tuple and args[-1] is not Ellipsis else args[:1] * len(value)
            if len(items) == len(value):
                out = [read(t, v, f"{where}[{i}]", error)
                       for i, (t, v) in enumerate(zip(items, value))]
                return out if origin is list else tuple(out)
    elif any(_SCALARS[t][1](value) for t in args or (tp,)):
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{_at(where, value)}: must be finite")
        return value
    raise error(f"{_at(where, value)}: must be {_describe(tp)}")


def write(obj):
    """The JSON value of obj, the reverse of read. A field that is None
    where its default is None is left out."""
    if is_dataclass(obj):
        return {key: write(getattr(obj, f.name)) for f, key, _ in _schema(type(obj))
                if not (f.default is None and getattr(obj, f.name) is None)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [write(v) for v in obj]
    return obj


def _read_object(cls, data: dict, where: str, error):
    schema = _schema(cls)
    unknown = sorted(data.keys() - {key for _, key, _ in schema})
    if unknown:
        key = unknown[0]
        raise error(f"{where}: unknown key {key!r}" if where else f"unknown top-level key {key!r}")
    values = {}
    for f, key, tp in schema:
        path = f"{where}.{key}" if where else key
        if key in data:
            values[f.name] = read(tp, data[key], path, error)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise error(f"{path}: required key is missing")
    return cls(**values)


def _read_array(value: list, where: str, error) -> np.ndarray:
    def check(items: list, at: str) -> None:
        for i, v in enumerate(items):
            if isinstance(v, list):
                check(v, f"{at}[{i}]")
            else:
                read(float, v, f"{at}[{i}]", error)

    check(value, where)
    try:
        return np.array(value, dtype=float)
    except ValueError:  # ragged
        raise error(f"{_at(where, value)}: must be a rectangular array of numbers") from None


def _describe(tp) -> str:
    if tp in _SCALARS:
        return _SCALARS[tp][0]
    if tp is np.ndarray:
        return "an array of numbers"
    if is_dataclass(tp):
        return "an object"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is tuple and args[-1] is not Ellipsis:
        return f"a list of {len(args)} values"
    return "a list" if origin is list or origin is tuple else " or ".join(map(_describe, args))


def _at(where: str, value) -> str:
    shown = json.dumps(value, default=repr)
    return f"{where or 'top level'} = {shown if len(shown) <= 40 else shown[:36] + ' ...'}"
