"""Self-check of the benchmark's own code at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
from lattice import LatticeSize, lattice_config, lattice_model  # noqa: E402

from beliefshield import sim  # noqa: E402
from beliefshield.presets import PREDICATES, corridor_model  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SHIELD = {"corridor-literal": "literal", "corridor-off": "off",
          "lattice-conservative": "conservative"}
LAYERS = {"config", "parsing", "monitor", "sim", "model", "ldtl", "barrier", "shield",
          "traceio", "audit"}


def tiny(name: str) -> run.Workload:
    """The workload's shield mode on the 16-state corridor, 4 short episodes."""
    return run.Workload(name, run.generated(4, 2, 1, SHIELD[name], horizon=6, episodes=4),
                        4, (16, 6, 2))


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS) == list(SHIELD)


def test_smallest_lattice_is_the_shipped_corridor():
    cfg = lattice_config(LatticeSize(4, 2, 1), "literal", horizon=200, episodes=100)
    m, ref = cfg.model, corridor_model()
    assert m.state_names == ref.state_names
    assert m.action_names == ref.action_names
    for table in ("transition", "observation", "reward"):
        assert np.array_equal(getattr(m, table), getattr(ref, table))
    assert np.array_equal(m.initial.probs, ref.initial.probs)
    assert lattice_model(LatticeSize(4, 2, 1))[1] == PREDICATES


@pytest.mark.parametrize("name", list(SHIELD))
def test_every_metric_is_emitted_with_its_unit(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "MIN_STAGE_S", 0.0)
    w = tiny(name)
    rep = run.measure(w, seed=3, seconds=0, out=tmp_path)
    assert rep["problems"] == [] and rep["failed"] == 0
    assert rep["notes"] == []  # every drift hook ran once per episode
    assert rep["attempted"] == run.MIN_PASSES * w.episodes
    assert {k: unit for k, (_, unit) in rep["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(value > 0 for value, _ in rep["metrics"].values())

    traced = run.measure_traced(w, seed=3, out=tmp_path)
    assert traced["problems"] == [] and traced["notes"] == [] and traced["failed"] == 0
    assert {k: unit for k, (_, unit) in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert traced["behaviour"] == rep["behaviour"]
    assert (tmp_path / f"spans-{name}-seed3.csv").is_file()


@pytest.mark.parametrize("name", ["corridor-literal", "corridor-off"])
def test_layer_self_times_and_unattributed_add_up_to_wall(name, tmp_path):
    traced = run.measure_traced(tiny(name), seed=5, out=tmp_path)
    expected = LAYERS - ({"shield"} if SHIELD[name] == "off" else set())
    assert set(traced["self_time_s"]) == expected
    assert all(t >= 0 for t in traced["self_time_s"].values())
    assert traced["unattributed_s"] >= 0
    total = sum(traced["self_time_s"].values()) + traced["unattributed_s"]
    assert total == pytest.approx(traced["traced_wall_s"], abs=1e-6)


RAISING_PASS = """import sys
sys.path[:0] = [{here!r}]
import pipeline

def run_episode(*args, **kwargs):
    raise RuntimeError("episode raised on purpose")

pipeline.sim.run_episode = run_episode
raise SystemExit(pipeline.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_a_raising_episode_fails_the_run_and_is_counted(trace, tmp_path, monkeypatch, capsys):
    w = tiny("corridor-literal")
    monkeypatch.setattr(run, "WORKLOADS", {w.name: w})
    monkeypatch.setattr(run, "OUT", tmp_path)
    script = tmp_path / "raising_pass.py"
    script.write_text(RAISING_PASS.format(here=str(HERE)))
    monkeypatch.setattr(run, "PASS_SCRIPT", script)

    def run_episode(*args, **kwargs):
        raise RuntimeError("episode raised on purpose")
    monkeypatch.setattr(sim, "run_episode", run_episode)

    assert run.main(["--workload", w.name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == w.episodes
    assert "PROBLEM" in out and "episode raised on purpose" in out


def test_a_missing_trace_target_is_a_note_not_a_failure(tmp_path, monkeypatch):
    ghost = tracing.Target("beliefshield.shield", "no_such_function", "model.belief_update")
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (ghost,))
    traced = run.measure_traced(tiny("corridor-literal"), seed=3, out=tmp_path)
    assert traced["problems"] == [] and traced["failed"] == 0
    assert traced["bases"]["missing targets"] == ["beliefshield.shield.no_such_function"]
    [note] = traced["notes"]
    assert "model.belief_update.calls_per_step" in note
    assert "shield.belief_updates_per_call" in note
    assert "traceio.write_us_per_step" not in note
