"""The garbage-collector pause in the bulk builders: `load_config`,
`run_batch`, `read_traces` and `audit_traces` leave the collector as
they found it, on success and on error, leave what they built in the
oldest generation, and build no reference cycles for the collector to
find."""

import gc
from dataclasses import replace
from pathlib import Path

import pytest

from beliefshield import (
    FixedAction, Scenario, audit_traces, load_config, read_traces, run_batch, write_traces,
)
from beliefshield.errors import ConfigError, TraceMismatch
from beliefshield.presets import corridor_config
from beliefshield.sim import END_DEADLOCK, END_ZERO_LIKELIHOOD, SHIELD_MODES

from conftest import COLUMN, edit_belief, edit_trace
from test_sim import deadlock_scenario, impossible, one_state_model, safe_monitor

CORRIDOR = Path(__file__).resolve().parent.parent / "configs" / "corridor.yaml"


@pytest.fixture
def restore_collector():
    """Put back, after the test, the collector state the test found."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def gc_was_enabled(request, restore_collector):
    (gc.enable if request.param else gc.disable)()
    return request.param


@pytest.fixture
def collector_off(restore_collector):
    """Automatic collection off, so that no pause collects on exit and
    every cycle waits for the test's own `gc.collect()`."""
    gc.disable()


@pytest.fixture(scope="module")
def corridor_trace(tmp_path_factory):
    cfg = corridor_config("literal")
    path = tmp_path_factory.mktemp("gc") / "corridor.trace.jsonl"
    write_traces(run_batch(cfg.to_scenario(), cfg.seed, 2), path, cfg.name,
                 cfg.shield_mode, cfg.horizon)
    return path


def in_oldest_generation(obj) -> bool:
    return any(o is obj for o in gc.get_objects(generation=2))


def test_each_builder_leaves_the_collector_as_it_found_it(gc_was_enabled, corridor_trace):
    # With collection on, what a builder returns has been promoted to
    # the oldest generation, so no later young collection traverses it.
    cfg = load_config(CORRIDOR)
    assert gc.isenabled() is gc_was_enabled
    assert in_oldest_generation(cfg) is gc_was_enabled
    batch = run_batch(cfg.to_scenario(), cfg.seed, 2)
    assert gc.isenabled() is gc_was_enabled
    assert in_oldest_generation(batch.traces) is gc_was_enabled
    episodes = read_traces(corridor_trace)
    assert gc.isenabled() is gc_was_enabled
    assert in_oldest_generation(episodes) is gc_was_enabled
    report = audit_traces(corridor_config("literal"), episodes)
    assert report.ok
    assert gc.isenabled() is gc_was_enabled
    assert in_oldest_generation(report.episodes) is gc_was_enabled


def test_a_builder_that_raises_leaves_the_collector_as_it_found_it(
        gc_was_enabled, corridor_trace, tmp_path, monkeypatch):
    bad_yaml = tmp_path / "broken.yaml"
    bad_yaml.write_text("{]")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad_yaml)
    assert gc.isenabled() is gc_was_enabled

    lines = corridor_trace.read_text().splitlines()
    bad_trace = tmp_path / "truncated.trace.jsonl"
    bad_trace.write_text("\n".join(lines[:3] + [lines[3][:-1]]) + "\n")
    with pytest.raises(ConfigError, match=":4: not valid JSON"):
        read_traces(bad_trace)
    assert gc.isenabled() is gc_was_enabled

    def bump(entries):
        entries[0] += 1e-6

    bumped = edit_trace(corridor_trace, tmp_path / "bumped.trace.jsonl", 1, 5,
                        lambda row: edit_belief(row, COLUMN["belief"], bump))
    episodes = read_traces(bumped)
    with pytest.raises(TraceMismatch):
        audit_traces(corridor_config("literal"), episodes)
    assert gc.isenabled() is gc_was_enabled

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("beliefshield.sim.run_episode", interrupted)
    cfg = corridor_config("literal")
    with pytest.raises(KeyboardInterrupt):
        run_batch(cfg.to_scenario(), cfg.seed, 2)
    assert gc.isenabled() is gc_was_enabled


@pytest.mark.parametrize("mode", SHIELD_MODES)
def test_the_pipeline_leaves_no_cycles_to_collect(mode, tmp_path, collector_off):
    # The pause defers only cyclic garbage; there must be none.
    gc.collect()
    cfg = replace(load_config(CORRIDOR), shield_mode=mode)
    assert gc.collect() == 0
    result = run_batch(cfg.to_scenario(), cfg.seed, 5)
    assert gc.collect() == 0
    path = tmp_path / "corridor.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    assert gc.collect() == 0
    episodes = read_traces(path)
    assert gc.collect() == 0
    assert audit_traces(cfg, episodes).ok
    assert gc.collect() == 0


def test_episodes_that_end_early_leave_no_cycles_to_collect(monkeypatch, collector_off):
    gc.collect()
    for mode in ("literal", "conservative"):
        batch = run_batch(deadlock_scenario(mode), 0, 2)
        assert [t.end_reason for t in batch.traces] == [END_DEADLOCK] * 2
        assert gc.collect() == 0

    m = one_state_model()
    monkeypatch.setattr("beliefshield.sim.belief_update", impossible)
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=FixedAction(0),
                    shield_mode="off", horizon=5)
    batch = run_batch(scen, 0, 2)
    assert [t.end_reason for t in batch.traces] == [END_ZERO_LIKELIHOOD] * 2
    assert gc.collect() == 0
