"""Bit-exact artifact round-trips.

Every document is its dataclass fields under a ``format``/``version``
header, as JSON with sorted keys: each record becomes an object of its
fields, as ``dataclasses.asdict`` gives it, but leaves and arrays of
leaves go to the JSON encoder as they are, not copied.  Floats serialize
via repr so a reloaded artifact is byte-identical when re-saved.  One
reader, ``decode``, builds every record back from parsed JSON, checking
each key and type, an array of leaves or of rows of leaves in one pass;
the loaders also refuse any other format or version, and every JSON read
(`loads`) any number that is not finite.  No timestamps, no
environment-dependent content: same model in, same bytes out.
"""
from __future__ import annotations

import json
import math
from copy import deepcopy
from dataclasses import fields, is_dataclass
from functools import cache
from itertools import chain, repeat
from pathlib import Path
from types import UnionType
from typing import Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .inference import Model
from .rules import HybridRule
from .universe import RuleUniverse

MODEL_FORMAT = "hit2mtsk-model"
UNIVERSE_FORMAT = "hit2mtsk-universe"
FORMAT_VERSION = 1


def dumps(obj) -> str:
    # allow_nan=False: a non-finite number raises instead of writing a
    # token that `loads` refuses
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _finite(token: str) -> float:
    value = float(token)  # float() reads the NaN and Infinity tokens too
    if not math.isfinite(value):
        raise ValueError(f"JSON number {token} is not finite")
    return value


def loads(text: str):
    """Parsed JSON whose every number is finite: the NaN and Infinity
    tokens that Python's json reads, and literals such as 1e400 that
    overflow to inf, raise ValueError."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def _document(fmt: str, **content) -> dict:
    return {"format": fmt, "version": FORMAT_VERSION, **content}


def _check_header(d, fmt: str) -> dict:
    """The content of a ``fmt`` document of ``FORMAT_VERSION``, header removed."""
    kind = fmt.removeprefix("hit2mtsk-")
    if type(d) is not dict:
        raise TypeError(f"a {kind} file must hold a JSON object, not {_kind(d)}")
    if d.get("format") != fmt:
        raise ValueError(f"not a {kind} file (format={d.get('format')!r})")
    # ``type`` and not ``==`` alone: JSON ``true`` reads as ``True == 1``.
    if type(d.get("version")) is not int or d["version"] != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {kind} file version {d.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return {k: v for k, v in d.items() if k not in ("format", "version")}


def decode(cls, value):
    """Build a ``cls`` from parsed JSON, checking every key and type.

    ``cls`` is a dataclass or an annotation its fields use: a dataclass,
    ``tuple[X, ...]``, ``tuple[X, Y]``, ``X | None``, ``float`` (any JSON
    number; a whole number must fit in 64 bits), ``int``, ``str``, ``bool``
    or ``Mapping`` (any JSON object).  Leaves are kept as parsed.  A
    dataclass must be an object with exactly its fields and is built by its
    constructor, so its own checks run.  A wrong shape raises ``TypeError``
    and a rejected value ``ValueError``.
    """
    return _reader(cls)(value)


def _kind(value) -> str:
    kinds = {dict: "an object", list: "an array", tuple: "an array"}
    return kinds.get(type(value)) or json.dumps(value)


# the Python types that parsed JSON may hold for each leaf annotation
_LEAVES = {float: {float, int}, int: {int}, str: {str}, bool: {bool}, Mapping: {dict}}
# the Python types that parsed JSON may hold for an array
_ARRAYS = {list, tuple}


def _one_leaf(tp) -> tuple[set, int | None] | None:
    """For an array annotation whose items all have one leaf type: that
    type alone (so a bool is no int, and a whole number no float) and the
    array's length, None if any; for any other annotation None."""
    args = get_args(tp)
    if get_origin(tp) is not tuple:
        return None
    variadic = args[1:] == (Ellipsis,)
    items = args[:1] if variadic else args
    if len(set(items)) != 1 or items[0] not in _LEAVES:
        return None
    return {items[0]}, None if variadic else len(items)


@cache
def _reader(tp):
    """The checking reader of one annotation, built once per annotation."""
    if tp in _LEAVES:
        allowed = _LEAVES[tp]

        def read_leaf(value):
            if type(value) not in allowed:
                raise TypeError(f"expected {tp.__name__}, got {_kind(value)}")
            # numpy cannot compute with a whole number wider than 64 bits
            if tp is float and type(value) is int and not -(2**63) <= value < 2**63:
                raise ValueError(f"whole number {value} does not fit in 64 bits")
            return value

        return read_leaf
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        names = [f.name for f in fields(tp)]  # in constructor order
        keys, readers = set(names), [(_reader(hints[name]), name) for name in names]

        def read_record(value):
            if type(value) is not dict:
                raise TypeError(f"{tp.__name__} must be an object, not {_kind(value)}")
            if value.keys() != keys:
                problems = [f"unknown key {k!r}" for k in value.keys() - keys]
                problems += [f"missing key {k!r}" for k in keys - value.keys()]
                raise TypeError(f"{tp.__name__}: {', '.join(sorted(problems))}")
            return tp(*[read(value[name]) for read, name in readers])

        return read_record
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        read_some = _reader(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else read_some(value)
    if origin is tuple:
        variadic = args[1:] == (Ellipsis,)
        items = args[:1] if variadic else args
        readers = repeat(_reader(items[0])) if variadic else tuple(map(_reader, items))

        def read_tuple(value):
            if type(value) not in _ARRAYS:
                raise TypeError(f"expected an array, got {_kind(value)}")
            if not variadic and len(value) != len(items):
                raise TypeError(f"expected {len(items)} items, got {len(value)}")
            return tuple([read(v) for read, v in zip(readers, value)])

        # An array of one leaf type whose items all have exactly that type
        # passes every check of `read_tuple`, and so does an array of rows
        # of one leaf type whose rows are arrays of the right length of such
        # items: each is taken in one pass.  Any other value is read item by
        # item, which raises the error of its first bad item.  In-process on
        # a 2-core x86-64 host, loading the 99-rule benchmark bundle (276 KB)
        # took 0.16 ms to read the file, 2.1 ms for `loads` and 1.55 ms for
        # `decode`, which took 2.6 ms reading each row item by item.
        if (leaf := _one_leaf(tp)) is not None:
            types, length = leaf

            def read_leaves(value):
                if (
                    type(value) in _ARRAYS
                    and (length is None or len(value) == length)
                    and types.issuperset(map(type, value))
                ):
                    return tuple(value)
                return read_tuple(value)

            return read_leaves
        if variadic and (row := _one_leaf(items[0])) is not None:
            types, length = row
            lengths = {length}

            def read_rows(value):
                if (
                    type(value) in _ARRAYS
                    and _ARRAYS.issuperset(map(type, value))
                    and (length is None or lengths.issuperset(map(len, value)))
                    and types.issuperset(map(type, chain.from_iterable(value)))
                ):
                    return tuple(map(tuple, value))
                return read_tuple(value)

            return read_rows
        return read_tuple
    raise TypeError(f"cannot decode annotation {tp!r}")


@cache
def _encoder(tp):
    """What turns a ``tp`` value into what `dumps` writes, for the
    annotations `decode` reads, or None where the value is written as it
    is.  A dataclass becomes a dict of its fields and an array of them a
    tuple, as ``dataclasses.asdict`` makes them; a mapping is deep-copied,
    so that no document shares a mutable part with its record; a leaf and
    an array of leaves are kept, not copied."""
    if tp in _LEAVES:
        return deepcopy if tp is Mapping else None
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        parts = [(f.name, _encoder(hints[f.name])) for f in fields(tp)]

        def encode_record(value):
            return {
                name: getattr(value, name) if enc is None else enc(getattr(value, name))
                for name, enc in parts
            }

        return encode_record
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        enc = _encoder(next(a for a in args if a is not type(None)))
        if enc is None:
            return None
        return lambda value: None if value is None else enc(value)
    if origin is tuple:
        variadic = args[1:] == (Ellipsis,)
        encoders = [_encoder(a) for a in (args[:1] if variadic else args)]
        if not any(encoders):
            return None
        encoders = repeat(encoders[0]) if variadic else encoders
        return lambda value: tuple(
            [v if enc is None else enc(v) for enc, v in zip(encoders, value)]
        )
    raise TypeError(f"cannot encode annotation {tp!r}")


def model_to_dict(model: Model) -> dict:
    return _document(MODEL_FORMAT, **_encoder(Model)(model))


def save_model(model: Model, path) -> None:
    Path(path).write_text(dumps(model_to_dict(model)))


def load_model(path) -> Model:
    d = loads(Path(path).read_text())
    return decode(Model, _check_header(d, MODEL_FORMAT))


# RuleUniverse fields that a universe file keeps in its manifest block
_UNIVERSE_MANIFEST = ("config", "dataset_fingerprint", "coverage")


def universe_to_dict(universe: RuleUniverse) -> dict:
    d = _encoder(RuleUniverse)(universe)
    manifest = {k: d.pop(k) for k in _UNIVERSE_MANIFEST}
    return _document(UNIVERSE_FORMAT, **d, manifest=manifest)


def save_universe(universe: RuleUniverse, path) -> None:
    Path(path).write_text(dumps(universe_to_dict(universe)))


def load_universe(path) -> RuleUniverse:
    body = _check_header(loads(Path(path).read_text()), UNIVERSE_FORMAT)
    m = body.pop("manifest", None)
    if type(m) is not dict or m.keys() != set(_UNIVERSE_MANIFEST) or m.keys() & body:
        raise TypeError(f"universe manifest must hold exactly {_UNIVERSE_MANIFEST}")
    return decode(RuleUniverse, {**body, **m})


def rules_text(rules: Sequence[HybridRule], target_variable: str) -> str:
    """Human-readable rule listing; 6 significant digits, dominance 3 decimals."""
    blocks = []
    for i, rule in enumerate(rules, start=1):
        lo, hi = rule.clamp_bounds
        d_lo, d_hi = rule.fuzzy_dominance
        blocks.append(
            "\n".join(
                [
                    f"RULE {i}",
                    f"  IF {rule.antecedent_text()} THEN {target_variable} is "
                    f"{rule.consequent_set}",
                    f"  {target_variable} = {rule.consequent_fn.render()}",
                    f"  clamp bounds: [{lo:.6g}, {hi:.6g}]",
                    f"  fuzzy dominance: [{d_lo:.3f}, {d_hi:.3f}]",
                    f"  error dominance: {rule.error_dominance:.3f}",
                ]
            )
        )
    return "\n\n".join(blocks) + "\n"


def write_xy_csv(
    path, header: Sequence[str], columns: Sequence, manifest: Mapping | None = None
) -> None:
    """Comment-embedded manifest, then plain CSV.

    Float columns are written by repr; integer and boolean columns as
    integers.
    """
    lines = []
    if manifest:
        lines.append("# " + json.dumps(dict(manifest), sort_keys=True))
    lines.append(",".join(header))
    for row in zip(*(np.asarray(c).tolist() for c in columns)):
        cells = (repr(v) if type(v) is float else str(int(v)) for v in row)
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
