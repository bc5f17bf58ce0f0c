"""Smoke test of the benchmark at (q, d) = (3, 2): metric names, units, tamper probe."""

import json
from pathlib import Path

from hemibench import workloads
from hemibench.workloads import Rung, Runner

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

SMOKE = Rung(
    3, 1, 2, setups=3, recount=True, m=3, n_b=6, point_orbits=5,
    digests=(
        "4abeaf6ae095026e4ff79096edac94656b40da9ce850203aba2192e1af46dac0",
        "4a205eeaa0de9bf02730a0275fb34d948118c5a9414c1b5783ddfa1bd7f69b95",
    ),
)


def run(trace: bool) -> Runner:
    runner = Runner(SMOKE, seed=7, seconds=0.2, trace=trace)
    runner.run()
    return runner


def units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def test_end_to_end_metrics_match_the_spec():
    runner = run(trace=False)
    metrics = runner.end_to_end()
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())
    assert runner.tally.failed == 0
    assert runner.tamper == "rejected"


def test_per_layer_metrics_match_the_spec_and_steps_cover_setup():
    runner = run(trace=True)
    metrics = runner.per_layer()
    assert {k: v["unit"] for k, v in metrics.items()} == units(SPEC["per_layer"])
    assert runner.tally.failed == 0
    assert metrics["hemi.m"]["value"] == 3
    traced = metrics["trace.setup_s"]["value"]
    assert 0 <= metrics["trace.setup_gap_s"]["value"] < traced / 10


def test_an_accepted_tamper_is_a_failed_operation(monkeypatch):
    monkeypatch.setattr(workloads, "tampered", lambda prep, mask, text: text)
    runner = run(trace=False)
    assert runner.tamper == "accepted"
    assert runner.tally.failed == 1
    assert runner.tally.errors == ["tamper probe: accepted"]
