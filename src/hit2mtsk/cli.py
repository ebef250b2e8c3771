"""Command-line entry point.

Subcommands: train, crossval, explain, predict, baseline.  A JSON
config file supplies pipeline settings; command-line flags override it.
Every artifact embeds the resolved config, seed and dataset fingerprint.

Exit codes: 0 success, 2 config/usage error, 3 data error, 4 training
failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .aco import AcoConfigError
from .data import (
    Dataset,
    ParseError,
    dataset_fingerprint,
    load_csv,
    load_keel,
    load_keel_folds,
    make_folds,
    read_csv,
)
from .evaluate import (
    REFERENCE_RMSE,
    TrainingFailedError,
    case_study,
    explainability_block,
    quantization_profile,
    reference_for,
    run_cv,
)
from .inference import Model, NotTrainedError, predict, predict_values
from .it2 import DegeneratePartitionError
from .persist import (
    decode,
    dumps,
    load_model,
    save_model,
    save_rules,
    save_universe,
    write_xy_csv,
)
from .pipeline import TrainConfig, derive_seed, train_model
from .rules import RuleUnfittableError, rmse
from .universe import EmptyUniverseError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAIN = 4


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _overlay(base, top):
    """``top`` laid over ``base``, merging JSON objects key by key."""
    if type(base) is dict and type(top) is dict:
        return {**base, **{k: _overlay(base.get(k), v) for k, v in top.items()}}
    return top


def _load_config(args) -> TrainConfig:
    """Defaults, then the ``--config`` file, then the flags, decoded as one."""
    doc = asdict(TrainConfig())
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise CliError(EXIT_CONFIG, f"config file not found: {path}")
        try:
            written = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CliError(EXIT_CONFIG, f"config is not valid JSON: {exc}")
        if type(written) is not dict:
            raise CliError(EXIT_CONFIG, "config must be a JSON object")
        doc = _overlay(doc, written)
    flags: dict = {}
    if getattr(args, "variant", None):
        flags["generation"] = {"degree": int(args.variant.lower().lstrip("d"))}
    if getattr(args, "sets", None):
        flags["num_sets"] = args.sets
    if getattr(args, "seed", None) is not None:
        flags["seed"] = args.seed
    try:
        return decode(TrainConfig, _overlay(doc, flags))
    except (TypeError, ValueError) as exc:
        raise CliError(EXIT_CONFIG, f"bad configuration: {exc}")


def _load_dataset(args, labelled: bool = True):
    """The ``--data`` rows as a `Dataset`; unless ``labelled``, csv data
    without ``--target`` comes as its (header, rows) instead."""
    path = Path(args.data)
    if not path.exists():
        raise CliError(EXIT_DATA, f"data file not found: {path}")
    if args.format == "keel":
        return load_keel(path)
    if args.target:
        return load_csv(path, args.target)
    if labelled:
        raise CliError(EXIT_CONFIG, "--target is required for csv data")
    return read_csv(path)


def _load_model(args) -> Model:
    model_path = Path(args.model)
    if not model_path.exists():
        raise CliError(EXIT_DATA, f"model file not found: {model_path}")
    try:
        return load_model(model_path)
    except (ValueError, LookupError, TypeError) as exc:
        # a malformed or inconsistent document surfaces as any of these
        raise CliError(EXIT_DATA, f"cannot load model: {type(exc).__name__}: {exc}")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    config = _load_config(args)
    dataset = _load_dataset(args)
    result = train_model(dataset, config)
    out = _outdir(args)
    manifest = result.model.manifest
    save_model(result.model, out / "model.json")
    save_rules(
        result.model.rules,
        dataset.target_name,
        out / "rules.txt",
        out / "rules.json",
        manifest=manifest,
    )
    write_xy_csv(
        out / "aco_trace.csv", ("iteration", "best_rmse"), zip(*result.trace), manifest
    )
    if args.save_universe:
        save_universe(result.universe, out / "universe.json")
    print(f"trained {len(result.model.rules)} rules "
          f"(universe {len(result.universe)}, coverage {result.universe.coverage:.3f})")
    print(f"selection rmse {result.model.manifest['selection_cost']:.6g}")
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = _load_model(args)
    data = _load_dataset(args, labelled=False)
    if isinstance(data, Dataset):
        rows, target, fingerprint = data, data.y, dataset_fingerprint(data)
    else:  # unlabelled: every column is a feature
        header, table = data
        digest = hashlib.sha256(repr(header).encode() + table.tobytes())
        rows, target, fingerprint = dict(zip(header, table.T)), None, digest.hexdigest()
    try:
        values, fired_counts, fallback = predict_values(model, rows)
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc))
    out = _outdir(args)
    manifest = {
        "model_manifest": dict(model.manifest),
        "data_fingerprint": fingerprint,
    }
    columns = {"prediction": values, "target": target,
               "fired_rules": fired_counts, "fallback": fallback}
    score = ""
    if target is None:
        del columns["target"]
    else:
        score = f", rmse {rmse(values, target):.6g}"
    write_xy_csv(out / "predictions.csv", tuple(columns), columns.values(), manifest)
    print(f"predicted {values.size} rows{score}, "
          f"fallback rate {float(np.mean(fallback)):.4f}")
    print(f"wrote {out / 'predictions.csv'}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    config = _load_config(args)
    if args.format == "keel" and Path(args.data).is_dir():
        folds = load_keel_folds(Path(args.data), args.name)
    else:
        folds = make_folds(_load_dataset(args), k=5, seed=config.seed)

    name = args.name or folds[0].train.name
    if args.name and not reference_for(args.name):
        known = ", ".join(sorted(REFERENCE_RMSE))
        print(f"no stored reference for {args.name!r}; known: {known}")
    report = run_cv(folds, config, dataset_name=name, explain=args.explain)
    out = _outdir(args)
    doc = asdict(report)
    doc["manifest"] = {
        "config": asdict(config),
        "seed": config.seed,
        "fold_fingerprints": [
            dataset_fingerprint(f.train) for f in folds
        ],
    }
    (out / "report.json").write_text(dumps(doc))
    print(f"{name} [{report.variant}] mean rmse {report.mean_rmse:.6g} "
          f"over {len(report.fold_rmse)} folds")
    if report.reference:
        print("reference scores:")
        for method, value in sorted(report.reference.items()):
            print(f"  {method:>12}: {value}")
    if report.warning:
        print(f"warning: {report.warning}", file=sys.stderr)
    print(f"wrote {out / 'report.json'}")
    return EXIT_OK


def cmd_explain(args) -> int:
    if args.max_rows < 0:
        raise CliError(EXIT_CONFIG, f"--max-rows must be >= 0, got {args.max_rows}")
    model = _load_model(args)
    if not model.rules:
        raise CliError(EXIT_TRAIN, "model has no rules to explain")
    # the manifest is free-form; explain reads only its seed
    seed = model.manifest.get("seed", 0)
    if type(seed) is not int:
        raise CliError(
            EXIT_DATA,
            f"cannot explain model: manifest seed {json.dumps(seed)} is not an integer",
        )
    dataset = _load_dataset(args)
    # a data error here must leave no partial artifact set behind
    try:
        block = explainability_block(
            model, dataset, seed=derive_seed(seed, 201)
        )
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc))
    out = _outdir(args)
    target = model.target_partition.variable
    save_rules(
        model.rules, target, out / "rules.txt", out / "rules.json",
        manifest=model.manifest,
    )
    doc = asdict(block)
    doc["manifest"] = {
        "model_manifest": dict(model.manifest),
        "data_fingerprint": dataset_fingerprint(dataset),
    }
    (out / "explain.json").write_text(dumps(doc))

    lines = []
    limit = min(args.max_rows, dataset.n_rows)
    for i in range(limit):
        x = {name: float(dataset.X[i, j]) for j, name in enumerate(dataset.feature_names)}
        p = predict(model, x)
        lines.append(
            f"row {i}: prediction {p.value:.6g}, target {dataset.y[i]:.6g}, "
            f"{len(p.fired_rules)} rules fired"
            + (" (fallback)" if p.fallback_used else "")
        )
        for fr in sorted(p.fired_rules, key=lambda r: -r.weight)[:5]:
            rule = model.rules[fr.index]
            clause = " AND ".join(f"{v} is {s}" for v, s in rule.antecedent)
            lines.append(
                f"    rule {fr.index}: IF {clause} THEN {target} is "
                f"{rule.consequent_set}; firing [{fr.firing[0]:.3f}, "
                f"{fr.firing[1]:.3f}], output {fr.output:.6g}, weight {fr.weight:.4f}"
            )
    (out / "row_explanations.txt").write_text("\n".join(lines) + "\n")
    print(f"explained {limit} rows; artifacts in {out}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _load_config(args)
    dataset = _load_dataset(args)
    study = case_study(dataset, config, holdout_fraction=args.holdout)
    out = _outdir(args)
    manifest = study.hybrid_model.manifest
    distinct, single_rows, n_sets = quantization_profile(
        study.baseline_model, study.test
    )
    doc = {
        "hybrid": asdict(study.hybrid),
        "baseline": asdict(study.baseline),
        "banding": {
            "distinct_single_fire_values": distinct,
            "single_fire_rows": single_rows,
            "num_output_sets": n_sets,
        },
        "manifest": dict(manifest),
    }
    (out / "report.json").write_text(dumps(doc))
    for name, values in (("hybrid", study.hybrid_values),
                         ("baseline", study.baseline_values)):
        write_xy_csv(
            out / f"{name}_scatter.csv", ("actual", "predicted"),
            (study.test.y, values), manifest,
        )
        write_xy_csv(
            out / f"{name}_residuals.csv", ("residual",),
            (values - study.test.y,), manifest,
        )
    print(f"hybrid rmse {study.hybrid.mean_rmse:.6g} vs "
          f"baseline rmse {study.baseline.mean_rmse:.6g}")
    print(f"banding: {distinct} distinct values on {single_rows} "
          f"single-fire rows ({n_sets} output sets)")
    print(f"artifacts written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hit2mtsk",
        description="Hybrid interval type-2 fuzzy regression with ACO rule selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=True):
        if data:
            p.add_argument("--data", required=True, help="data file or fold directory")
            p.add_argument("--format", choices=("keel", "csv"), default="csv")
            p.add_argument("--target", help="target column (csv; optional for predict)")
        p.add_argument("--out", default="out", help="output directory")

    def add_train_opts(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--variant", choices=("d1", "d2", "d3"),
                       help="polynomial degree preset")
        p.add_argument("--sets", type=int, help="sets per partition")
        p.add_argument("--seed", type=int, help="master seed")

    p = sub.add_parser("train", help="train a model and save the bundle")
    add_common(p)
    add_train_opts(p)
    p.add_argument("--save-universe", action="store_true",
                   help="also dump the full rule universe")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict rows with a saved model")
    add_common(p)
    p.add_argument("--model", required=True, help="model.json path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("crossval", help="5-fold cross-validation")
    add_common(p)
    add_train_opts(p)
    p.add_argument("--name", help="dataset name for reference lookup")
    p.add_argument("--explain", action="store_true",
                   help="attach explainability metrics")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("explain", help="rule export + explainability metrics")
    add_common(p)
    p.add_argument("--model", required=True, help="model.json path")
    p.add_argument("--max-rows", type=int, default=10,
                   help="rows to itemize in row_explanations.txt")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("baseline", help="hybrid vs Mamdani-baseline comparison")
    add_common(p)
    add_train_opts(p)
    p.add_argument("--holdout", type=float, default=0.2)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ParseError, FileNotFoundError, DegeneratePartitionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AcoConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EmptyUniverseError, RuleUnfittableError, TrainingFailedError,
            NotTrainedError) as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
