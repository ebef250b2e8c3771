"""Tabular regression data: KEEL-format and CSV loading, splits, folds.

All loaders produce the same in-memory `Dataset`; downstream code never
cares which format a table came from.  KEEL ``@data`` sections and CSV
bodies go through one row reader, which skips blank lines and names the
file's own line in every error.  Splitting is seed-deterministic
and row-disjoint.  Fingerprints tie trained artifacts to the exact
values they were trained on.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

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

    def subset(self, indices: np.ndarray | Sequence[int]) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return replace(self, X=self.X[idx], y=self.y[idx])


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
        value = float(t)
        if np.isfinite(value):
            return value
        problem = "non-finite"
    except ValueError:
        problem = "non-numeric"
    raise ParseError(path, line_no, f"{problem} value {t!r} in column {col!r}")


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
            # a declared range is only checked: partitions come from the data
            if m.group("range"):
                try:
                    _, _ = map(float, m.group("range").split(","))
                except ValueError:
                    raise ParseError(
                        path, i, f"malformed range for attribute {name!r}"
                    ) from None
        elif low.startswith(("@inputs", "@output")):
            keyword, *rest = line.split(None, 1)
            if not rest:
                raise ParseError(path, i, f"{keyword} names no attribute")
            names = [t.strip() for t in rest[0].split(",")]
            if len(set(names)) < len(names):
                raise ParseError(path, i, f"{keyword} {names} repeats an attribute")
            if low.startswith("@inputs"):
                inputs = names
            else:
                outputs = names
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
    table = _read_rows(path, lines, data_start, attributes)
    return _select(relation, attributes, table, inputs, target)


def _read_rows(path, lines: list[str], start: int, names: Sequence[str]) -> np.ndarray:
    """The float rows of ``lines[start:]``, one value per column of
    ``names``.  Blank lines are skipped; every error names the file's own
    1-based line."""
    rows = []
    for i, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        tokens = line.split(",")
        if len(tokens) != len(names):
            raise ParseError(
                path, i, f"expected {len(names)} values, found {len(tokens)}"
            )
        rows.append([_parse_number(t, path, i, n) for t, n in zip(tokens, names)])
    if not rows:
        raise ParseError(path, None, "no data rows")
    return np.array(rows, dtype=float)


def _select(name: str, columns: Sequence[str], table: np.ndarray,
            inputs: Sequence[str], target: str) -> Dataset:
    """The `Dataset` of ``inputs`` and ``target`` among ``table``'s
    ``columns``."""
    col = {c: j for j, c in enumerate(columns)}
    return Dataset(
        name=name,
        feature_names=tuple(inputs),
        X=table[:, [col[c] for c in inputs]],
        target_name=target,
        y=table[:, col[target]],
    )


def _csv_header(path: Path) -> tuple[list[str], int, tuple[str, ...]]:
    """A CSV file's lines, the 1-based number of its header line (the
    first non-blank one) and the header's column names."""
    lines = path.read_text().splitlines()
    at = next((i for i, line in enumerate(lines, start=1) if line.strip()), None)
    if at is None:
        raise ParseError(path, None, "empty file")
    header = tuple(h.strip() for h in lines[at - 1].split(","))
    if len(set(header)) < len(header):
        raise ParseError(path, at, f"header {list(header)} repeats a column name")
    return lines, at, header


def read_csv(path) -> tuple[tuple[str, ...], np.ndarray]:
    """Header and float rows of a plain numeric CSV."""
    path = Path(path)
    lines, at, header = _csv_header(path)
    return header, _read_rows(path, lines, at, header)


def load_csv(path, target_column: str) -> Dataset:
    """Load a plain numeric CSV with a header row."""
    path = Path(path)
    lines, at, header = _csv_header(path)
    if target_column not in header:
        raise ParseError(
            path, at, f"target column {target_column!r} not in header {list(header)}"
        )
    inputs = [h for h in header if h != target_column]
    table = _read_rows(path, lines, at, header)
    return _select(path.stem, header, table, inputs, target_column)


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
