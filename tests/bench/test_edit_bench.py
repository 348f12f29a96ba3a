"""Unit tests for the BENCH_edit emitter and its gates (no timing)."""

import json
from pathlib import Path

from repro.bench.edit_bench import (SCHEMA, build_report, check_ordering,
                                    check_regression)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _measured(delta: float, first: float, rebuild: float = 50.0) -> dict:
    section = {"delta_ms": delta, "rebuild_ms": rebuild,
               "delta_best_ms": delta, "rebuild_best_ms": rebuild,
               "speedup": rebuild / delta, "first_query_ms": first,
               "first_query_best_ms": first}
    return {"row": 28, "name": "x", "declarations": 10700, "repeats": 5,
            "warm_miss_ms": 60.0,
            "edits": {"add": dict(section), "remove": dict(section)}}


class TestRegressionGate:
    def test_within_bound_passes(self):
        committed = build_report(_measured(10.0, 60.0))
        assert check_regression(committed, _measured(14.0, 80.0), 0.5) == []

    def test_first_query_regression_fails_alone(self):
        committed = build_report(_measured(10.0, 60.0))
        failures = check_regression(committed, _measured(10.0, 100.0), 0.5)
        assert len(failures) == 1
        assert failures[0].startswith("first_query_ms regression")

    def test_delta_regression_fails_alone(self):
        committed = build_report(_measured(10.0, 60.0))
        failures = check_regression(committed, _measured(16.0, 60.0), 0.5)
        assert len(failures) == 1
        assert failures[0].startswith("delta_ms regression")

    def test_report_without_first_query_gates_only_the_delta(self):
        committed = build_report(_measured(10.0, 60.0))
        for section in committed["current"]["edits"].values():
            del section["first_query_ms"]
        assert check_regression(committed, _measured(10.0, 900.0), 0.5) == []

    def test_disjoint_edit_kinds_are_reported(self):
        committed = build_report(_measured(10.0, 60.0))
        measured = _measured(10.0, 60.0)
        measured["edits"] = {"rename": measured["edits"]["add"]}
        failures = check_regression(committed, measured, 0.5)
        assert failures and "no comparable edit kinds" in failures[0]


def test_ordering_gate_needs_delta_below_rebuild():
    assert check_ordering(_measured(10.0, 60.0)) == []
    assert len(check_ordering(_measured(60.0, 60.0))) == 2


def test_report_sums_every_gated_metric():
    report = build_report(_measured(10.0, 60.0))
    assert report["schema"] == SCHEMA
    assert report["summary"]["delta_ms_sum"] == 20.0
    assert report["summary"]["first_query_ms_sum"] == 120.0


def test_committed_report_carries_the_first_completion():
    committed = json.loads((REPO_ROOT / "BENCH_edit.json").read_text())
    assert committed["schema"] == SCHEMA
    for section in committed["current"]["edits"].values():
        assert section["first_query_ms"] > 0
    assert committed["current"]["warm_miss_ms"] > 0
