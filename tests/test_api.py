"""The package exports exactly the names README's Library API table lists."""
import re
import types
from pathlib import Path

import hit2mtsk

README = Path(__file__).resolve().parents[1] / "README.md"


def documented_names() -> set[str]:
    text = README.read_text()
    section = text.split("## Library API", 1)[1].split("\n#", 1)[0]
    names: set[str] = set()
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 2:
            names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", cells[1]))
    return names


def test_exports_match_readme():
    exported = {
        name
        for name, value in vars(hit2mtsk).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented_names()
