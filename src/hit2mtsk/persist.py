"""Bit-exact artifact round-trips.

Every document is its dataclass fields (``dataclasses.asdict``) under a
``format``/``version`` header, as JSON with sorted keys; floats serialize
via repr so a reloaded artifact is byte-identical when re-saved.  The
decoders validate their input and refuse any other format or version.
No timestamps, no environment-dependent content: same model in, same
bytes out.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

from .inference import Model
from .it2 import IT2Set, Partition
from .rules import HybridRule, Polynomial
from .universe import GenerationConfig, RuleUniverse

MODEL_FORMAT = "hit2mtsk-model"
UNIVERSE_FORMAT = "hit2mtsk-universe"
RULES_FORMAT = "hit2mtsk-rules"
FORMAT_VERSION = 1


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _document(fmt: str, **content) -> dict:
    return {"format": fmt, "version": FORMAT_VERSION, **content}


def _check_header(d: Mapping, fmt: str) -> None:
    """Reject anything but a ``fmt`` document of ``FORMAT_VERSION``."""
    kind = fmt.removeprefix("hit2mtsk-")
    if d.get("format") != fmt:
        raise ValueError(f"not a {kind} file (format={d.get('format')!r})")
    if d.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {kind} file version {d.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )


def set_from_dict(d: Mapping) -> IT2Set:
    return IT2Set(
        name=d["name"],
        shape=d["shape"],
        upper_params=tuple(float(v) for v in d["upper_params"]),
        lower_params=tuple(float(v) for v in d["lower_params"]),
        fou_scale=float(d["fou_scale"]),
        support=tuple(float(v) for v in d["support"]),
    )


def partition_from_dict(d: Mapping) -> Partition:
    return Partition(
        variable=d["variable"],
        sets=tuple(set_from_dict(s) for s in d["sets"]),
        domain=(float(d["domain"][0]), float(d["domain"][1])),
    )


def polynomial_from_dict(d: Mapping) -> Polynomial:
    return Polynomial(
        degree=int(d["degree"]),
        variables=tuple(d["variables"]),
        exponents=tuple(tuple(int(k) for k in e) for e in d["exponents"]),
        coefficients=tuple(float(c) for c in d["coefficients"]),
    )


def rule_from_dict(d: Mapping) -> HybridRule:
    return HybridRule(
        antecedent=tuple((v, s) for v, s in d["antecedent"]),
        consequent_set=d["consequent_set"],
        consequent_fn=polynomial_from_dict(d["consequent_fn"]),
        clamp_bounds=(
            float(d["clamp_bounds"][0]),
            float(d["clamp_bounds"][1]),
        ),
        fuzzy_dominance=(
            float(d["fuzzy_dominance"][0]),
            float(d["fuzzy_dominance"][1]),
        ),
        error_dominance=float(d["error_dominance"]),
    )


def model_to_dict(model: Model) -> dict:
    return _document(MODEL_FORMAT, **asdict(model))


def model_from_dict(d: Mapping) -> Model:
    _check_header(d, MODEL_FORMAT)
    return Model(
        feature_partitions=tuple(
            partition_from_dict(p) for p in d["feature_partitions"]
        ),
        target_partition=partition_from_dict(d["target_partition"]),
        rules=tuple(rule_from_dict(r) for r in d["rules"]),
        tnorm=d["tnorm"],
        firing_reduction=d["firing_reduction"],
        fallback_value=float(d["fallback_value"]),
        feature_stats=tuple(
            (name, float(mu), float(sd)) for name, mu, sd in d["feature_stats"]
        ),
        manifest=d.get("manifest", {}),
    )


def save_model(model: Model, path) -> None:
    Path(path).write_text(dumps(model_to_dict(model)))


def load_model(path) -> Model:
    return model_from_dict(json.loads(Path(path).read_text()))


def universe_to_dict(universe: RuleUniverse) -> dict:
    d = asdict(universe)
    manifest = {k: d.pop(k) for k in ("config", "dataset_fingerprint", "coverage")}
    return _document(UNIVERSE_FORMAT, **d, manifest=manifest)


def universe_from_dict(d: Mapping) -> RuleUniverse:
    _check_header(d, UNIVERSE_FORMAT)
    m = d["manifest"]
    return RuleUniverse(
        rules=tuple(rule_from_dict(r) for r in d["rules"]),
        feature_partitions=tuple(
            partition_from_dict(p) for p in d["feature_partitions"]
        ),
        target_partition=partition_from_dict(d["target_partition"]),
        config=GenerationConfig.from_dict(m["config"]),
        dataset_fingerprint=m["dataset_fingerprint"],
        coverage=float(m["coverage"]),
    )


def save_universe(universe: RuleUniverse, path) -> None:
    Path(path).write_text(dumps(universe_to_dict(universe)))


def load_universe(path) -> RuleUniverse:
    return universe_from_dict(json.loads(Path(path).read_text()))


def rules_text(
    rules: Sequence[HybridRule], target_variable: str, precision: int = 6
) -> str:
    """Human-readable rule listing; dominance shown at 3 decimals."""
    blocks = []
    for i, rule in enumerate(rules, start=1):
        clauses = " AND ".join(f"{v} is {s}" for v, s in rule.antecedent)
        lo, hi = rule.clamp_bounds
        d_lo, d_hi = rule.fuzzy_dominance
        blocks.append(
            "\n".join(
                [
                    f"RULE {i}",
                    f"  IF {clauses} THEN {target_variable} is {rule.consequent_set}",
                    f"  {target_variable} = {rule.consequent_fn.render(precision)}",
                    f"  clamp bounds: [{lo:.{precision}g}, {hi:.{precision}g}]",
                    f"  fuzzy dominance: [{d_lo:.3f}, {d_hi:.3f}]",
                    f"  error dominance: {rule.error_dominance:.3f}",
                ]
            )
        )
    return "\n\n".join(blocks) + "\n"


def save_rules(
    rules: Sequence[HybridRule],
    target_variable: str,
    text_path,
    json_path=None,
    manifest: Mapping | None = None,
) -> None:
    """Write the text export and (optionally) its bit-exact JSON mirror."""
    Path(text_path).write_text(rules_text(rules, target_variable))
    if json_path is not None:
        doc = _document(
            RULES_FORMAT,
            target_variable=target_variable,
            rules=[asdict(r) for r in rules],
            manifest=dict(manifest) if manifest else {},
        )
        Path(json_path).write_text(dumps(doc))


def load_rules(json_path) -> list[HybridRule]:
    d = json.loads(Path(json_path).read_text())
    _check_header(d, RULES_FORMAT)
    return [rule_from_dict(r) for r in d["rules"]]


def write_xy_csv(
    path, header: Sequence[str], columns: Sequence, manifest: Mapping | None = None
) -> None:
    """Plot-data emission: comment-embedded manifest, then plain CSV."""
    lines = []
    if manifest:
        lines.append("# " + json.dumps(dict(manifest), sort_keys=True))
    lines.append(",".join(header))
    arrays = [list(c) for c in columns]
    for row in zip(*arrays):
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
