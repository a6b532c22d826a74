"""The censuses in ``docs/architecture.md`` list every field and export.

Each field of the six config classes, each name in ``repro.__all__`` and
each ``src/`` module no runtime code imports has one row saying what
needs it; neither a knob, an export nor a test-only module can be added
or deleted without its row.  Likewise the opcode table lists each
request opcode's fields exactly as the protocol's request table does.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import repro
from repro import (
    AdmissionSearchConfig,
    CheckpointPolicy,
    DurabilityConfig,
    NetConfig,
    QuantumConfig,
    ServerConfig,
)
from repro.server.protocol import REQUEST_FIELDS, Opcode

REPO = Path(__file__).resolve().parent.parent
ARCHITECTURE = REPO / "docs" / "architecture.md"
SRC = REPO / "src"
#: Besides ``src/`` itself, the code whose imports keep a module alive.
RUNTIME_DIRS = ("bench", "scripts", "examples")
CONFIGS = (
    QuantumConfig,
    AdmissionSearchConfig,
    ServerConfig,
    CheckpointPolicy,
    NetConfig,
    DurabilityConfig,
)
ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| (.+) \|$")
EXPORT_ROW = re.compile(r"^\| `(\w+)` \| (.+) \|$")
OPCODE_ROW = re.compile(r"^\| `(\w+)` \| request \| (.+?) \| .+ \|$")
MODULE_ROW = re.compile(r"^\| `([\w.]+)` \| (.+) \|$")
FIELD = re.compile(r"`(\w+)`: (.+?)(, required)?")


def section_rows(title: str, row: re.Pattern) -> list[tuple[str, ...]]:
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for line in section.splitlines() if (m := row.match(line))]


def census_rows() -> list[tuple[str, str, str]]:
    return section_rows("Configuration census", ROW)


def export_rows() -> list[tuple[str, str]]:
    return section_rows("Export census", EXPORT_ROW)


def test_census_rows_are_the_config_fields():
    documented = [(config, field) for config, field, _ in census_rows()]
    declared = [
        (config.__name__, field.name)
        for config in CONFIGS
        for field in dataclasses.fields(config)
    ]
    assert documented == declared


def test_every_row_names_a_need():
    assert all(need.strip() for _, _, need in census_rows())


def test_export_rows_are_the_package_exports():
    rows = export_rows()
    assert [name for name, _ in rows] == repro.__all__
    assert all(need.strip() for _, need in rows)


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(path: Path) -> set[str]:
    """Every module ``path`` imports, with the packages above each."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: the census reads absolute imports only"
            base = node.module
            targets = [base, *(f"{base}.{alias.name}" for alias in node.names)]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


def unimported_modules() -> list[str]:
    """``src/`` modules that no other runtime module or Makefile recipe
    imports or runs."""
    modules = {module_name(path): path for path in SRC.rglob("*.py")}
    files = [*modules.values()]
    for directory in RUNTIME_DIRS:
        files.extend((REPO / directory).rglob("*.py"))
    reached: set[str] = set()
    for path in files:
        own = module_name(path) if SRC in path.parents else None
        reached |= imported_names(path) - {own}
    recipes = [
        line
        for line in (REPO / "Makefile").read_text(encoding="utf-8").splitlines()
        if line.startswith("\t")
    ]
    for line in recipes:
        reached.update(re.findall(r"-m ([\w.]+)", line))
    return sorted(set(modules) - reached)


def test_module_rows_are_the_modules_nothing_imports():
    rows = section_rows("Module census", MODULE_ROW)
    assert [name for name, _ in rows] == unimported_modules()
    assert all(need.strip() for _, need in rows)


def test_opcode_rows_are_the_request_table():
    documented = {}
    for op, fields in section_rows("The network layer (PR 7)", OPCODE_ROW):
        cells = fields.split("; ") if fields != "—" else []
        matches = [FIELD.fullmatch(cell) for cell in cells]
        documented[Opcode(op)] = {
            m[1]: (m[2], m[3] is not None) for m in matches
        }
    assert documented == REQUEST_FIELDS
