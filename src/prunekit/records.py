"""The one JSON codec for every config and artifact.

A dataclass inheriting :class:`Record` derives to_dict/from_dict/save/load/
fingerprint from its fields.  Decoding is strict, and an error names the
field's path: ``PruningPlan.layers[0]: missing required field 'original'``.

Every file goes through :func:`write_bytes`, the one atomic writer; it takes
a sequence of buffers, so a bundle's tensors go to the file without being
joined.  JSON is encoded whole with ``json.dumps`` and written once; the
streaming ``json.dump`` would issue one ``write`` per token, tens of thousands
for a large manifest.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import types
import typing
from dataclasses import MISSING

import numpy as np

_JSON_TYPES = {dict: "an object", list: "an array", tuple: "an array", str: "a string",
               bool: "a boolean", int: "an integer", float: "a number", type(None): "null"}
_ACCEPTED = {float: (int, float), list: (list, tuple)}   # what else passes for the type
_SCALARS = (str, int, float, bool)


def content_hash(obj) -> str:
    """sha256 of the ``sort_keys`` JSON text: the content hash of an artifact."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def write_bytes(buffers, path: str) -> None:
    """Write a sequence of buffers back to back, by temp file and rename, so a
    failed write keeps the old file.

    Any object with the buffer protocol serves, a contiguous numpy array
    included, so a caller passes its data as it holds it and no joined copy
    is made.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.writelines(buffers)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_json(obj, path: str) -> None:
    """Write indented JSON atomically; the text is encoded whole, then written once."""
    write_bytes([json.dumps(obj, indent=1).encode()], path)


def read_json(path: str):
    """Parse a JSON file; a file that is not JSON raises ValueError naming the path."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc


def at_least(record, error=ValueError, **least) -> None:
    """Raise ``error`` naming the first field below its least value; None passes."""
    for name, low in least.items():
        value = getattr(record, name)
        if value is not None and value < low:
            raise error(f"{name} must be at least {low}, got {value}")


def encode(value):
    """JSON form of a tree of records, arrays, tuples and lists; other values pass as-is."""
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


@functools.cache
def _shape(hint):
    """A hint's origin and args; for a dataclass, its field hints and required fields."""
    if not dataclasses.is_dataclass(hint):
        return typing.get_origin(hint) or hint, typing.get_args(hint), None, ()
    return hint, (), typing.get_type_hints(hint), tuple(
        f.name for f in dataclasses.fields(hint)
        if f.default is MISSING and f.default_factory is MISSING)


def _expect(json_type, value, path: str) -> None:
    """Raise unless ``value`` is of ``json_type``; an int is a float, a bool is no number."""
    accepted = _ACCEPTED.get(json_type, json_type)
    if not isinstance(value, accepted) or (isinstance(value, bool) and json_type is not bool):
        got = _JSON_TYPES.get(type(value), type(value).__name__)
        raise ValueError(f"{path}: expected {_JSON_TYPES[json_type]}, got {got}")


def _plain(hint, value) -> bool:
    """Whether ``value`` decodes to itself: anything for ``object``, else an exact scalar."""
    return hint is object or (type(value) is hint and hint in _SCALARS)


def decode(hint, value, path: str):
    """Build a value of type ``hint`` from its JSON form; errors name ``path``."""
    if _plain(hint, value):
        return value
    origin, args, hints, required = _shape(hint)
    if origin in (typing.Union, types.UnionType):     # ``X | None``
        (inner,) = [a for a in args if a is not type(None)]
        return None if value is None else decode(inner, value, path)
    if hints is not None:
        _expect(dict, value, path)
        for key in value:
            if key not in hints:
                raise ValueError(f"{path}: unknown field '{key}'")
        for name in required:
            if name not in value:
                raise ValueError(f"{path}: missing required field '{name}'")
        return hint(**{k: v if _plain(hints[k], v) else decode(hints[k], v, f"{path}.{k}")
                       for k, v in value.items()})
    if origin is np.ndarray:     # array fields hold float vectors
        return np.asarray(decode(list[float], value, path), dtype=np.float64)
    if origin in (list, tuple):
        _expect(list, value, path)
        if origin is list or args[1:] == (Ellipsis,):
            args = (args[:1] or (typing.Any,)) * len(value)
        elif len(args) != len(value):
            raise ValueError(f"{path}: expected {len(args)} items, got {len(value)}")
        if all(map(_plain, args, value)):
            return origin(value)
        return origin(decode(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    if origin in (dict, str, bool, int, float):
        _expect(origin, value, path)
    return dict(value) if origin is dict else value


class Record:
    """Mixin for dataclasses persisted as JSON; every method derives from the fields.

    A subclass lists in ``RETIRED`` the fields older files carry and it no
    longer has; a load drops them, and decoding stays strict about the rest.
    """

    RETIRED = ()

    def to_dict(self) -> dict:
        return {f.name: encode(getattr(self, f.name)) for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d):
        if cls.RETIRED and isinstance(d, dict):
            d = {k: v for k, v in d.items() if k not in cls.RETIRED}
        return decode(cls, d, cls.__name__)

    def save(self, path: str) -> None:
        write_json(self.to_dict(), path)

    @classmethod
    def load(cls, path: str):
        return cls.from_dict(read_json(path))

    def fingerprint(self) -> str:
        return content_hash(self.to_dict())
