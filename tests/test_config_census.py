"""The censuses in ``docs/architecture.md`` list every field and export.

Each field of the six config classes, and each name in ``repro.__all__``,
has one row saying what needs it; neither a knob nor an export can be
added or deleted without its row.  Likewise the opcode table lists each
request opcode's fields exactly as the protocol's request table does.
"""

from __future__ import annotations

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

ARCHITECTURE = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"
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


def test_opcode_rows_are_the_request_table():
    documented = {}
    for op, fields in section_rows("The network layer (PR 7)", OPCODE_ROW):
        cells = fields.split("; ") if fields != "—" else []
        matches = [FIELD.fullmatch(cell) for cell in cells]
        documented[Opcode(op)] = {
            m[1]: (m[2], m[3] is not None) for m in matches
        }
    assert documented == REQUEST_FIELDS
