"""The package exports exactly the names README's Library API table lists,
and none of the names its "Removed names" table retires; its
"Configuration defaults" table names every config field once, and every
module attribute, `BENCH_*.json` file and test it names exists.  Serving
a saved model imports no `multiprocessing`."""
import ast
import dataclasses
import os
import pkgutil
import re
import subprocess
import sys
import types
from collections import Counter
from functools import reduce
from importlib import import_module
from pathlib import Path

import hit2mtsk
from hit2mtsk import AcoConfig, GenerationConfig, TrainConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def table_cells(heading: str) -> list[list[str]]:
    """The cells of every row of the table under ``heading``."""
    section = README.read_text().split(heading, 1)[1].split("\n#", 1)[0]
    return [
        [c.strip() for c in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("|")
    ]


def documented_names() -> set[str]:
    names: set[str] = set()
    for cells in table_cells("## Library API"):
        if len(cells) == 2:
            names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", cells[1]))
    return names


def removed_names() -> set[str]:
    """Bare identifiers in the first column of "Removed names"; calls and
    dotted names such as `run_cv(..., threads=n)` retire less than a name."""
    names: set[str] = set()
    for cells in table_cells("### Removed names"):
        names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", cells[0]))
    return names


def exported() -> set[str]:
    return {
        name
        for name, value in vars(hit2mtsk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_exports_match_readme():
    assert exported() == documented_names()


def test_removed_names_stay_removed():
    removed = removed_names()
    assert {"predict_batch", "membership", "evaluate_rule"} <= removed
    assert not removed & exported()


def test_configuration_table_names_every_field_once():
    # a row's first name is qualified; the bare names after it share its class
    named: Counter[str] = Counter()
    for cells in table_cells("## Configuration defaults"):
        names = re.findall(r"`([A-Za-z_.]+)`", cells[0])
        if names:
            owner, first = names[0].split(".")
            named.update(f"{owner}.{name}" for name in (first, *names[1:]))
    fields = Counter(
        f"{cls.__name__}.{f.name}"
        for cls in (TrainConfig, GenerationConfig, AcoConfig)
        for f in dataclasses.fields(cls)
        if f.name not in ("generation", "aco")  # the nested configs themselves
    )
    assert named == fields


def outside_removed_names() -> str:
    """README's prose without its "Removed names" section, whose names
    are gone, and without its fenced code blocks."""
    head, rest = README.read_text().split("### Removed names", 1)
    return re.sub(r"```.*?```", "", head + rest[rest.index("\n#") :], flags=re.S)


# a file name such as `rules.txt` or `universe.json` is no attribute
FILE_NAME = re.compile(r"\.(txt|json|csv)$")


def test_named_module_attributes_resolve():
    modules = {m.name for m in pkgutil.iter_modules(hit2mtsk.__path__)}
    dotted = re.compile(r"(?<![\w.])(?:hit2mtsk\.)?([a-z_0-9]+)((?:\.[A-Za-z_]\w*)+)")
    checked, missing = set(), []
    for span in re.findall(r"`([^`]+)`", outside_removed_names()):
        for m in dotted.finditer(span):
            module, attrs = m.groups()
            if module not in modules or FILE_NAME.search(m.group(0)):
                continue
            checked.add(m.group(0))
            try:
                found = import_module(f"hit2mtsk.{module}")
                reduce(getattr, attrs[1:].split("."), found)
            except AttributeError:
                missing.append(m.group(0))
    assert checked  # the pattern still finds README's references
    assert missing == []


def test_named_benchmark_records_exist():
    named = set(re.findall(r"BENCH_\d+\.json", README.read_text()))
    assert named
    assert sorted(n for n in named if not (ROOT / n).is_file()) == []


def defines(body: list, path: list[str]) -> bool:
    """Whether the statements ``body`` define the class or function
    ``path[0]``, and within it ``path[1:]``."""
    for node in body:
        kinds = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, kinds) and node.name == path[0]:
            return len(path) == 1 or defines(node.body, path[1:])
    return False


def test_named_tests_are_defined():
    named = set(re.findall(r"tests/(\w+\.py)::([\w:]+)", README.read_text()))
    assert named
    undefined = []
    for file, name in sorted(named):
        tree = ast.parse((ROOT / "tests" / file).read_text())
        if not defines(tree.body, name.split("::")):
            undefined.append(f"{file}::{name}")
    assert undefined == []


SERVE_ONE_ROW = """
import json, sys
import hit2mtsk
model = hit2mtsk.load_model(sys.argv[1])
row = json.loads(open(sys.argv[2]).read())["rows"][0]
hit2mtsk.predict(model, dict(zip(model.feature_names, row)))
print("multiprocessing" in sys.modules)
"""


def test_serving_a_row_imports_no_multiprocessing():
    # only a training stage that forks its helper imports it
    fixtures = ROOT / "benchmarks" / "fixtures"
    proc = subprocess.run(
        [
            sys.executable, "-c", SERVE_ONE_ROW,
            str(fixtures / "serve_model.json"), str(fixtures / "serve_reference.json"),
        ],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
