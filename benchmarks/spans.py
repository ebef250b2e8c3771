"""In-memory spans around the library's public hook points.

A `Tracer` replaces the module attributes through which the library
calls its own layers with timing wrappers, and restores them on exit.
It lives entirely in the benchmark: nothing in the library knows it is
traced.  A hook point missing from the library (renamed or deleted by a
later change) is recorded in ``Tracer.absent`` and otherwise ignored.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# (span name, module, attribute) -- the attribute is the name the caller
# looks up at call time, so from-imports are patched in the importing module
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("pipeline.partition", "hit2mtsk.pipeline", "build_partitions"),
    ("universe.generate", "hit2mtsk.pipeline", "generate_candidates"),
    ("universe.fit", "hit2mtsk.universe", "fit_consequent"),
    ("universe.grade", "hit2mtsk.universe", "support_interval"),
    ("universe.grade", "hit2mtsk.universe", "confidence_interval"),
    ("aco.select", "hit2mtsk.pipeline", "select_rules"),
    ("aco.sample", "hit2mtsk.aco", "sample_subset"),
    ("aco.rule_matrices", "hit2mtsk.aco", "rule_matrices"),
    ("inference.rule_matrices", "hit2mtsk.inference", "rule_matrices"),
    ("it2.membership", "hit2mtsk.it2", "Partition.membership_matrix"),
    ("rules.poly_evaluate", "hit2mtsk.rules", "Polynomial.evaluate"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    run: int  # id of the root span: one top-level call into the library
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self, hooks=HOOKS) -> None:
        self.hooks = hooks
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=sid,
            parent=parent.id if parent else None,
            run=parent.run if parent else sid,
            name=name,
            start=time.perf_counter(),
        )
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def __enter__(self) -> "Tracer":
        self.absent = []
        for name, module, attr in self.hooks:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(name, fn))
            self._patched.append((owner, leaf, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, leaf, fn = self._patched.pop()
            setattr(owner, leaf, fn)

    def write(self, path: Path, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({**header, "absent": self.absent}) + "\n")
            for span in self.spans:
                out.write(json.dumps(asdict(span)) + "\n")


class SpanSummary:
    """Per-name totals, call counts and self times of a span list.

    A span's self time is its duration minus its children's; children
    never overlap because every traced call runs on one thread.
    """

    def __init__(self, spans: list[Span]) -> None:
        names = {s.id: s.name for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        self._total: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self._under: dict[tuple[str | None, str], float] = defaultdict(float)
        self._calls: Counter = Counter()
        for s in spans:
            d = s.end - s.start
            self._total[s.name] += d
            self._self[s.name] += d - child_time[s.id]
            self._under[(names.get(s.parent), s.name)] += d
            self._calls[s.name] += 1

    def total(self, name: str) -> float:
        return self._total[name]

    def self_time(self, name: str) -> float:
        return self._self[name]

    def under(self, parent: str, name: str) -> float:
        """Time in ``name`` spans whose direct parent is a ``parent`` span."""
        return self._under[(parent, name)]

    def calls(self, name: str) -> int:
        return self._calls[name]
