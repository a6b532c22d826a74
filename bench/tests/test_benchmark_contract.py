"""BENCHMARK.json and the names the benchmark emits must agree."""

import json
import re
from pathlib import Path

from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_contract_has_exactly_the_required_keys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["bench"]
    assert CONTRACT["command"] == ["python3", "-m", "bench", "run"]
    assert isinstance(CONTRACT["run_seconds"], int)
    assert 1 <= CONTRACT["run_seconds"] <= 60


def test_workloads_match_the_registry():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert len(WORKLOADS) == 5
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_match_the_definitions():
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert len(END_TO_END) <= 16
    bounds = {m.name: m.bound for m in END_TO_END}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = END_TO_END[0]
    assert (setup.name, setup.unit, setup.better) == ("setup_s", "s", "lower")


def test_per_layer_metrics_match_the_definitions():
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128


def test_names_and_units_are_well_formed_and_unique():
    names = [w for w in WORKLOADS] + [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in (*END_TO_END, *PER_LAYER):
        assert UNIT.fullmatch(metric.unit), metric
        assert metric.better in ("lower", "higher")


def test_every_should_move_target_exists():
    end_to_end = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        for target in metric.moves:
            name, _, workload = target.partition("@")
            assert name in end_to_end, (metric.name, target)
            assert workload in WORKLOADS, (metric.name, target)
