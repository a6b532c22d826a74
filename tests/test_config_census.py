"""The configuration census in ``docs/architecture.md`` lists every field.

Each field of the six config classes has one row saying what needs it; a
knob can be neither added nor deleted without its row.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from repro import (
    AdmissionSearchConfig,
    CheckpointPolicy,
    DurabilityConfig,
    NetConfig,
    QuantumConfig,
    ServerConfig,
)

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


def census_rows() -> list[tuple[str, str, str]]:
    text = ARCHITECTURE.read_text(encoding="utf-8")
    section = text.split("\n## Configuration census\n", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for line in section.splitlines() if (m := ROW.match(line))]


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
