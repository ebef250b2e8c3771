"""Tabular regression data: KEEL-format and CSV loading, splits, folds.

All loaders produce the same in-memory `Dataset`; downstream code never
cares which format a table came from.  Splitting is seed-deterministic
and row-disjoint.  Fingerprints tie trained artifacts to the exact
values they were trained on.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


class ParseError(ValueError):
    """Malformed data file; message carries path and line number."""

    def __init__(self, path, line: int | None, message: str) -> None:
        where = str(path) if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


MISSING_TOKENS = {"?", "<null>", "", "na", "nan"}


@dataclass(frozen=True)
class Dataset:
    """One regression table: float features X, float target y."""

    name: str
    feature_names: tuple[str, ...]
    X: np.ndarray
    target_name: str
    y: np.ndarray
    declared_ranges: Mapping[str, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if X.ndim != 2:
            raise ValueError("X must be 2-d")
        if X.shape[0] != y.size:
            raise ValueError("X and y row counts differ")
        if X.shape[0] == 0:
            raise ValueError("dataset has no rows")
        if X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names do not match X columns")
        names = list(self.feature_names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature names")
        if self.target_name in names:
            raise ValueError("target duplicated among features")
        if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        if name == self.target_name:
            return self.y
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"no column named {name!r}") from None
        return self.X[:, j]

    def subset(self, indices: np.ndarray | Sequence[int], name: str | None = None):
        idx = np.asarray(indices, dtype=int)
        return replace(
            self,
            name=name if name is not None else self.name,
            X=self.X[idx],
            y=self.y[idx],
        )


@dataclass(frozen=True)
class FoldSplit:
    fold_index: int
    train: Dataset
    test: Dataset


def dataset_fingerprint(dataset: Dataset) -> str:
    """sha256 over names and the exact float64 bytes of X and y."""
    h = hashlib.sha256()
    h.update(dataset.name.encode())
    for n in dataset.feature_names:
        h.update(b"|" + n.encode())
    h.update(b"|>" + dataset.target_name.encode())
    h.update(np.ascontiguousarray(dataset.X, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(dataset.y, dtype="<f8").tobytes())
    return h.hexdigest()


def _parse_number(token: str, path, line_no: int, col: str) -> float:
    t = token.strip()
    if t.lower() in MISSING_TOKENS:
        raise ParseError(path, line_no, f"missing value in column {col!r}")
    try:
        return float(t)
    except ValueError:
        raise ParseError(
            path, line_no, f"non-numeric value {token.strip()!r} in column {col!r}"
        ) from None


_ATTR_RE = re.compile(
    r"@attribute\s+(?P<name>[^\s{]+)\s+(?P<type>\w+)\s*(?:\[(?P<range>[^\]]*)\])?",
    re.IGNORECASE,
)


def load_keel(path) -> Dataset:
    """Parse one KEEL-format .dat regression file.

    The header declares ``@relation``, per-column ``@attribute`` lines
    with optional value ranges, ``@inputs``/``@outputs`` and ``@data``.
    Exactly one numeric output attribute is supported.
    """
    path = Path(path)
    lines = path.read_text().splitlines()
    relation = path.stem
    attributes: list[str] = []
    ranges: dict[str, tuple[float, float]] = {}
    inputs: list[str] | None = None
    outputs: list[str] | None = None
    data_start: int | None = None

    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        low = line.lower()
        if low.startswith("@relation"):
            parts = line.split(None, 1)
            if len(parts) == 2:
                relation = parts[1].strip()
        elif low.startswith("@attribute"):
            m = _ATTR_RE.match(line)
            if not m:
                raise ParseError(path, i, f"malformed attribute line: {line!r}")
            name = m.group("name").strip()
            kind = m.group("type").lower()
            if kind not in ("real", "integer"):
                raise ParseError(
                    path, i, f"unsupported attribute type {kind!r} for {name!r}"
                )
            if name in attributes:
                raise ParseError(path, i, f"duplicate attribute {name!r}")
            attributes.append(name)
            if m.group("range"):
                try:
                    lo_s, hi_s = m.group("range").split(",")
                    ranges[name] = (float(lo_s), float(hi_s))
                except ValueError:
                    raise ParseError(
                        path, i, f"malformed range for attribute {name!r}"
                    ) from None
        elif low.startswith("@inputs"):
            inputs = [t.strip() for t in line.split(None, 1)[1].split(",")]
        elif low.startswith("@outputs") or low.startswith("@output"):
            outputs = [t.strip() for t in line.split(None, 1)[1].split(",")]
        elif low.startswith("@data"):
            data_start = i
            break
        else:
            raise ParseError(path, i, f"unexpected header line: {line!r}")

    if data_start is None:
        raise ParseError(path, len(lines), "missing @data section")
    if not attributes:
        raise ParseError(path, data_start, "no attributes declared")
    if outputs is None or len(outputs) != 1:
        raise ParseError(
            path, data_start, "exactly one @outputs attribute is required"
        )
    target = outputs[0]
    if target not in attributes:
        raise ParseError(path, data_start, f"output {target!r} not declared")
    if inputs is None:
        inputs = [a for a in attributes if a != target]
    for name in inputs:
        if name not in attributes:
            raise ParseError(path, data_start, f"input {name!r} not declared")
    if target in inputs:
        raise ParseError(path, data_start, f"output {target!r} listed as input")

    rows: list[list[float]] = []
    for i in range(data_start, len(lines)):
        line = lines[i].strip()
        if not line:
            continue
        tokens = line.split(",")
        if len(tokens) != len(attributes):
            raise ParseError(
                path,
                i + 1,
                f"expected {len(attributes)} values, found {len(tokens)}",
            )
        rows.append(
            [
                _parse_number(tok, path, i + 1, attributes[j])
                for j, tok in enumerate(tokens)
            ]
        )
    if not rows:
        raise ParseError(path, len(lines), "no data rows")

    table = np.array(rows, dtype=float)
    col_index = {a: j for j, a in enumerate(attributes)}
    X = table[:, [col_index[n] for n in inputs]]
    y = table[:, col_index[target]]
    return Dataset(
        name=relation,
        feature_names=tuple(inputs),
        X=X,
        target_name=target,
        y=y,
        declared_ranges=ranges or None,
    )


def read_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and float rows of a plain numeric CSV."""
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ParseError(path, None, "empty file")
    header = tuple(h.strip() for h in lines[0].split(","))
    if len(set(header)) < len(header):
        raise ParseError(path, 1, f"header {list(header)} repeats a column name")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        tokens = line.split(",")
        if len(tokens) != len(header):
            raise ParseError(
                path, i, f"expected {len(header)} values, found {len(tokens)}"
            )
        rows.append(
            [_parse_number(t, path, i, header[j]) for j, t in enumerate(tokens)]
        )
    if not rows:
        raise ParseError(path, None, "no data rows")
    return header, np.array(rows, dtype=float)


def load_csv(path, target_column: str) -> Dataset:
    """Load a plain numeric CSV with a header row."""
    header, table = read_csv(path)
    if target_column not in header:
        raise ParseError(
            path, 1, f"target column {target_column!r} not in header {list(header)}"
        )
    t_idx = header.index(target_column)
    feat_idx = [j for j in range(len(header)) if j != t_idx]
    return Dataset(
        name=Path(path).stem,
        feature_names=tuple(header[j] for j in feat_idx),
        X=table[:, feat_idx],
        target_name=target_column,
        y=table[:, t_idx],
    )


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset back out as CSV (floats via repr, round-trip exact)."""
    path = Path(path)
    cols = list(dataset.feature_names) + [dataset.target_name]
    out = [",".join(cols)]
    for i in range(dataset.n_rows):
        vals = [repr(float(v)) for v in dataset.X[i]] + [repr(float(dataset.y[i]))]
        out.append(",".join(vals))
    path.write_text("\n".join(out) + "\n")


def split_holdout(
    dataset: Dataset, fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled train/test split; test gets round(n*fraction)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    n = dataset.n_rows
    n_test = int(round(n * fraction))
    if n_test == 0:
        raise ValueError("holdout fraction produces an empty test set")
    if n_test >= n:
        raise ValueError("holdout fraction leaves no training rows")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    perm = rng.permutation(n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


def make_folds(dataset: Dataset, k: int = 5, seed: int = 0) -> list[FoldSplit]:
    """k row-disjoint CV folds from a seeded shuffle."""
    if k < 2 or k > dataset.n_rows:
        raise ValueError("fold count must be in [2, n_rows]")
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    perm = rng.permutation(dataset.n_rows)
    chunks = np.array_split(perm, k)
    folds = []
    for i, chunk in enumerate(chunks):
        test_idx = np.sort(chunk)
        train_idx = np.sort(np.concatenate([c for j, c in enumerate(chunks) if j != i]))
        folds.append(
            FoldSplit(
                fold_index=i,
                train=dataset.subset(train_idx),
                test=dataset.subset(test_idx),
            )
        )
    return folds


def load_keel_folds(directory, name: str | None = None) -> list[FoldSplit]:
    """Load pre-partitioned 5-fold KEEL files ``<name>-5-<i>tra/tst.dat``."""
    directory = Path(directory)
    if name is None:
        tras = sorted(directory.glob("*-5-1tra.dat"))
        if not tras:
            raise FileNotFoundError(f"no *-5-1tra.dat under {directory}")
        name = tras[0].name.replace("-5-1tra.dat", "")
    folds = []
    for i in range(1, 6):
        tra = directory / f"{name}-5-{i}tra.dat"
        tst = directory / f"{name}-5-{i}tst.dat"
        if not tra.exists() or not tst.exists():
            raise FileNotFoundError(f"missing fold files {tra.name} / {tst.name}")
        folds.append(
            FoldSplit(fold_index=i - 1, train=load_keel(tra), test=load_keel(tst))
        )
    return folds
