"""Bit-exact artifact round-trips.

Every document is its dataclass fields (``dataclasses.asdict``) under a
``format``/``version`` header, as JSON with sorted keys; floats serialize
via repr so a reloaded artifact is byte-identical when re-saved.  One
reader, ``decode``, builds every record back from parsed JSON, checking
each key and type; the loaders also refuse any other format or version,
and every JSON read (`loads`) any number that is not finite.
No timestamps, no environment-dependent content: same model in, same
bytes out.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, fields, is_dataclass
from functools import cache
from itertools import repeat
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
        keys, readers = set(names), [_reader(hints[name]) for name in names]

        def read_record(value):
            if type(value) is not dict:
                raise TypeError(f"{tp.__name__} must be an object, not {_kind(value)}")
            if value.keys() != keys:
                problems = [f"unknown key {k!r}" for k in value.keys() - keys]
                problems += [f"missing key {k!r}" for k in keys - value.keys()]
                raise TypeError(f"{tp.__name__}: {', '.join(sorted(problems))}")
            return tp(*(read(value[name]) for read, name in zip(readers, names)))

        return read_record
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType) and len(args) == 2 and type(None) in args:
        read_some = _reader(next(a for a in args if a is not type(None)))
        return lambda value: None if value is None else read_some(value)
    if origin is tuple:
        variadic = args[1:] == (Ellipsis,)
        items = args[:1] if variadic else args
        readers = repeat(_reader(items[0])) if variadic else tuple(map(_reader, items))
        # an array of one leaf type whose items all have exactly that type
        # passes every leaf check, so it is taken in one pass; reading it
        # item by item makes loading a 99-rule model about 1.6 times slower
        exact = {items[0]} if items[0] in _LEAVES and len(set(items)) == 1 else None

        def read_tuple(value):
            if type(value) not in (list, tuple):
                raise TypeError(f"expected an array, got {_kind(value)}")
            if not variadic and len(value) != len(items):
                raise TypeError(f"expected {len(items)} items, got {len(value)}")
            if exact is not None and exact.issuperset(map(type, value)):
                return tuple(value)
            return tuple(read(v) for read, v in zip(readers, value))

        return read_tuple
    raise TypeError(f"cannot decode annotation {tp!r}")


def model_to_dict(model: Model) -> dict:
    return _document(MODEL_FORMAT, **asdict(model))


def save_model(model: Model, path) -> None:
    Path(path).write_text(dumps(model_to_dict(model)))


def load_model(path) -> Model:
    d = loads(Path(path).read_text())
    return decode(Model, _check_header(d, MODEL_FORMAT))


# RuleUniverse fields that a universe file keeps in its manifest block
_UNIVERSE_MANIFEST = ("config", "dataset_fingerprint", "coverage")


def universe_to_dict(universe: RuleUniverse) -> dict:
    d = asdict(universe)
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


def rules_text(
    rules: Sequence[HybridRule], target_variable: str, precision: int = 6
) -> str:
    """Human-readable rule listing; dominance shown at 3 decimals."""
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
                    f"  {target_variable} = {rule.consequent_fn.render(precision)}",
                    f"  clamp bounds: [{lo:.{precision}g}, {hi:.{precision}g}]",
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
