"""Scenario config parsing: schema validation with located errors, exact
renormalization, and round trips through the YAML form."""

import copy
import json
import re
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import (
    Always,
    Belief,
    BeliefPred,
    BeliefVar,
    ConfigError,
    Constant,
    Difference,
    FixedAction,
    FtParams,
    GreedyReward,
    LinearAlpha,
    MonitorConfig,
    Mpomdp,
    RandomUniform,
    SHIELD_MODES,
    ScenarioConfig,
    UnsupportedNesting,
    audit_traces,
    load_config,
    parse_config,
    parse_expr,
    parse_formula,
    read_traces,
    run_batch,
    write_config,
    write_traces,
)
from beliefshield import config, presets
from beliefshield.config import config_to_dict
from beliefshield.ldtl import (
    And, Eventually, Max, Min, Or, Product, Sum, describe, expr_text, height, pretty_print,
)
from beliefshield.parsing import MAX_NESTING
from beliefshield.presets import FORMULA, corridor_config

from conftest import count_calls, reference_fill_rows


def base_config() -> dict:
    return {
        "name": "pair",
        "states": ["good", "bad"],
        "agents": [
            {"name": "runner", "actions": ["go", "wait"],
             "observations": ["hot", "cold"]},
            {"name": "watcher", "actions": ["scan"], "observations": ["ping"]},
        ],
        "initial": {"good": 0.75, "bad": 0.25},
        "transition": [
            {"from": "good", "next": {"good": 0.9, "bad": 0.1}},
            {"from": "bad", "action": ["go", "scan"], "next": {"good": 0.5, "bad": 0.5}},
            {"from": "bad", "action": ["wait", "scan"], "next": {"bad": 1.0}},
        ],
        "observation": [
            {"next": "good", "dist": {"hot+ping": 0.8, "cold+ping": 0.2}},
            {"next": "bad", "dist": {"cold+ping": 1.0}},
        ],
        "reward": [
            {"state": "good", "value": 1.0},
            {"state": "bad", "action": ["go", "scan"], "value": -2.0},
        ],
        "predicates": {"risky": "b(bad) - 0.5"},
        "formula": "G !risky",
        "monitor": {"delta": 0.001, "gamma": 0.5, "rho": 0.9, "eps": 0.05},
        "policy": {"kind": "fixed", "action": ["go", "scan"]},
        "shield": "literal",
        "horizon": 20,
        "episodes": 3,
        "seed": 11,
    }


def parse(data):
    return parse_config(data, source="test")


def reject(data, path_fragment: str):
    with pytest.raises(ConfigError) as err:
        parse(data)
    assert path_fragment in str(err.value), str(err.value)
    return err.value


# --------------------------------------------------------------------------
# Valid parse


def test_base_config_builds_the_model():
    cfg = parse(base_config())
    m = cfg.model
    assert cfg.name == "pair"
    assert m.state_names == ("good", "bad")
    assert m.agent_names == ("runner", "watcher")
    assert m.n_joint_actions == 2
    assert m.n_joint_observations == 2
    assert np.array_equal(m.initial.probs, [0.75, 0.25])
    # Entry without an action covers every joint action.
    assert np.array_equal(m.transition[0, 0], [0.9, 0.1])
    assert np.array_equal(m.transition[0, 1], [0.9, 0.1])
    assert np.array_equal(m.transition[1, 0], [0.5, 0.5])
    assert np.array_equal(m.transition[1, 1], [0.0, 1.0])
    assert np.array_equal(m.observation[0, 0], [0.8, 0.2])
    assert np.array_equal(m.observation[1, 1], [0.0, 1.0])
    assert np.array_equal(m.reward, [[1.0, 1.0], [-2.0, 0.0]])
    assert cfg.formula == Always(
        BeliefPred("risky", Difference(BeliefVar(1, "bad"), Constant(0.5)), negated=True)
    )
    assert cfg.policy == FixedAction(0)
    assert cfg.shield_mode == "literal"
    assert (cfg.monitor.delta, cfg.monitor.alpha.gamma) == (0.001, 0.5)
    assert (cfg.monitor.ft.rho, cfg.monitor.ft.eps) == (0.9, 0.05)
    assert (cfg.horizon, cfg.episodes, cfg.seed) == (20, 3, 11)


def test_defaults_fill_in():
    data = base_config()
    for key in ("name", "reward", "monitor", "policy", "shield",
                "horizon", "episodes", "seed"):
        del data[key]
    cfg = parse_config(data, source="somewhere")
    assert cfg.name == "somewhere"
    assert np.array_equal(cfg.model.reward, np.zeros((2, 2)))
    assert cfg.monitor.delta == 1e-3
    assert cfg.policy == GreedyReward()
    assert cfg.shield_mode == "off"
    assert (cfg.horizon, cfg.episodes, cfg.seed) == (100, 1, 0)


def test_rows_renormalize_exactly_after_validation():
    data = base_config()
    bumped = 0.1 + 3e-10
    data["transition"][0]["next"] = {"good": 0.9, "bad": bumped}
    cfg = parse(data)
    expected = np.array([0.9, bumped]) / (0.9 + bumped)
    assert np.array_equal(cfg.model.transition[0, 0], expected)
    assert np.all(np.abs(cfg.model.transition.sum(axis=2) - 1.0) < 1e-9)


# --------------------------------------------------------------------------
# Located errors


def test_top_level_errors():
    reject(["not", "a", "mapping"], "top level must be a mapping")
    data = base_config()
    data["bogus"] = 1
    reject(data, "unknown keys: ['bogus']")
    data = base_config()
    del data["states"]
    reject(data, "missing required key 'states'")


def test_agent_errors():
    data = base_config()
    data["agents"][1]["name"] = "runner"
    reject(data, "agents[1].name")
    data = base_config()
    data["agents"][0]["actions"] = []
    reject(data, "agents[0].actions")
    data = base_config()
    data["agents"][0]["color"] = "red"
    reject(data, "agents[0]")
    data = base_config()
    data["states"] = ["good", "good"]
    reject(data, "states")
    # Name errors come before the entry's other checks.
    data = base_config()
    data["agents"][1].update(name="runner", color="red")
    err = reject(data, "agents[1].name")
    assert "duplicate agent name 'runner'" in str(err)
    # '+' joins per-agent observation names, so a name may not contain it:
    # [x+y, x] by [z, y+z] would label two joint observations x+y+z.
    data = base_config()
    data["agents"][0]["observations"] = ["x+y", "x"]
    data["agents"][1]["observations"] = ["z", "y+z"]
    err = reject(data, "agents[0].observations")
    assert "may not contain '+'" in str(err)


def test_initial_errors():
    data = base_config()
    data["initial"] = {"ugly": 1.0}
    err = reject(data, "initial.ugly")
    assert "unknown state" in str(err)
    data = base_config()
    data["initial"] = {}
    reject(data, "initial")
    data = base_config()
    data["initial"] = {"good": "plenty"}
    reject(data, "initial.good")


def test_transition_errors():
    data = base_config()
    data["transition"][0]["next"] = {"ugly": 1.0}
    reject(data, "transition[0].next.ugly")

    data = base_config()
    data["transition"][1]["action"] = ["fly", "scan"]
    err = reject(data, "transition[1].action[0]")
    assert "unknown action 'fly'" in str(err)

    data = base_config()
    data["transition"].append(
        {"from": "good", "action": ["go", "scan"], "next": {"good": 1.0}})
    err = reject(data, "transition[3]")
    assert "duplicate" in str(err)

    data = base_config()
    del data["transition"][2]
    err = reject(data, "transition")
    assert "1 (state, action) pairs have no entry" in str(err)
    assert "state 'bad', joint action 1" in str(err)

    data = base_config()
    data["transition"][0]["next"] = {"good": 0.5, "bad": 0.4}
    reject(data, "not stochastic")


def test_observation_errors():
    data = base_config()
    data["observation"][0]["dist"] = {"warm+ping": 1.0}
    err = reject(data, "observation[0].dist.warm+ping")
    assert "unknown joint observation" in str(err)
    data = base_config()
    data["observation"][0]["dist"] = {}
    reject(data, "observation[0].dist")


def test_reward_errors():
    data = base_config()
    data["reward"][0]["value"] = "high"
    reject(data, "reward[0].value")
    data = base_config()
    data["reward"] = 5
    reject(data, "reward: expected a list of entries")
    data = base_config()
    data["reward"] = None
    assert np.array_equal(parse(data).model.reward, np.zeros((2, 2)))
    data = base_config()
    data["reward"].append({"state": "good", "value": 2.0})
    err = reject(data, "reward[2]")
    assert "duplicate reward" in str(err)


def test_formula_and_predicate_errors():
    data = base_config()
    data["predicates"]["risky"] = "b(bad"
    reject(data, "predicates.risky")
    data = base_config()
    data["formula"] = "G !mystery"
    err = reject(data, "formula")
    assert "mystery" in str(err)
    data = base_config()
    data["formula"] = "G F risky"
    reject(data, "formula")
    for bad in (5, ["risky"]):
        data = base_config()
        data["predicates"] = bad
        reject(data, "predicates: expected a map")


@pytest.mark.parametrize("key, text, message", [
    ("predicates", "1e400 - b(bad)", "line 1, column 1: number '1e400' is not finite"),
    ("predicates", "(" * 500 + "b(bad)" + ")" * 500,
     "line 1, column 101: nested deeper than 100 levels"),
    ("formula", "(" * 500 + "G !risky" + ")" * 500,
     "line 1, column 101: nested deeper than 100 levels"),
    # A `-` chain, or a chain whose operators alternate, parses at any
    # length, but builds a tree as tall as it is long: the scenario
    # refuses that tree at its key, with no position.
    ("predicates", " - ".join(["b(bad)"] * 1000), "nested deeper than 100 levels"),
    ("formula", "G (risky" + " & risky | risky" * 500 + ")", "nested deeper than 100 levels"),
], ids=["overflowing-number", "deep-predicate", "deep-formula", "long-difference-chain",
        "long-alternating-chain"])
def test_text_the_parsers_refuse_is_reported_where_it_is(key, text, message):
    data = base_config()
    if key == "predicates":
        data["predicates"]["risky"] = text
        reject(data, f"predicates.risky: {message}")
    else:
        data["formula"] = text
        reject(data, f"formula: {message}")


# A run of one operator is one node, one level at any length.
@pytest.mark.parametrize("n", [150, 1000])
def test_a_long_conjunction_loads_as_one_obligation_per_conjunct(n):
    data = config_to_dict(corridor_config("literal"))
    data["formula"] = " & ".join(["F at_goal"] * n)
    cfg = parse(data)
    assert height(cfg.formula) == 3
    obligations = cfg.start_monitor.obligations
    assert [ob.oid for ob in obligations] == [f"{i}:eventually" for i in range(n)]
    assert {ob.label for ob in obligations} == {"F at_goal"}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"),
                                   pytest.param(10**400, id="10**400")])
def test_non_finite_numbers_are_rejected(value):
    edits = {
        "initial.good": lambda d: d["initial"].update(good=value),
        "transition[0].next.bad": lambda d: d["transition"][0]["next"].update(bad=value),
        "reward[0].value": lambda d: d["reward"][0].update(value=value),
        "monitor.eps": lambda d: d["monitor"].update(eps=value),
        "monitor.delta": lambda d: d["monitor"].update(delta=value),
    }
    for where, edit in edits.items():
        data = base_config()
        edit(data)
        err = reject(data, where)
        assert f"expected a finite number, got {value!r}" in str(err)


def test_monitor_policy_and_run_setting_errors():
    data = base_config()
    data["monitor"]["gamma"] = 1.5
    reject(data, "monitor")
    data = base_config()
    data["monitor"]["rho"] = 1.0
    reject(data, "monitor")
    data = base_config()
    data["monitor"]["speed"] = 3
    reject(data, "monitor")
    # Only a missing or null section means the defaults.
    for key, bad in [("monitor", []), ("monitor", 0), ("policy", []), ("policy", "")]:
        data = base_config()
        data[key] = bad
        err = reject(data, key)
        assert "expected a mapping" in str(err)
    data = base_config()
    data.update(monitor=None, policy=None)
    cfg = parse(data)
    assert (cfg.monitor, cfg.policy) == (MonitorConfig(), GreedyReward())

    data = base_config()
    data["policy"] = {"kind": "bold"}
    reject(data, "policy.kind")
    data = base_config()
    data["policy"] = {"kind": "fixed", "action": ["go"]}
    reject(data, "policy.action")
    data = base_config()
    data["policy"] = {"kind": "greedy", "action": ["go", "scan"]}
    reject(data, "policy")
    data = base_config()
    data["policy"] = {"kind": "greedy", "foo": 1}
    err = reject(data, "policy")
    assert "policy kind 'greedy' takes no other keys" in str(err)

    for key, bad in [("shield", "sometimes"), ("horizon", 0),
                     ("episodes", 0), ("seed", -1), ("name", "")]:
        data = base_config()
        data[key] = bad
        reject(data, key)


@pytest.mark.parametrize("spelling", ["off", "Off", "OFF", "false"])
def test_an_unquoted_off_is_refused_with_how_to_write_it(tmp_path, spelling):
    # YAML 1.1 reads a bare off as false; false is not a spelling of the mode.
    text = yaml.safe_dump(base_config(), sort_keys=False)
    path = tmp_path / "bare.yaml"
    path.write_text(text.replace("shield: literal", f"shield: {spelling}"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == (
        "shield: false is not a shield mode; YAML reads an unquoted off as false, "
        "so write 'off'")
    path.write_text(text.replace("shield: literal", "shield: 'off'"))
    assert load_config(path).shield_mode == "off"


# --------------------------------------------------------------------------
# Files and round trips


def test_load_config_reads_yaml_and_defaults_name_to_stem(tmp_path):
    data = base_config()
    del data["name"]
    path = tmp_path / "hallway.yaml"
    path.write_text(yaml.safe_dump(data))
    cfg = load_config(path)
    assert cfg.name == "hallway"

    bad = tmp_path / "broken.yaml"
    bad.write_text("{]")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert "not valid YAML" in str(err.value)
    assert "broken.yaml" in str(err.value)


def test_load_config_reads_utf8_whatever_the_locale(tmp_path):
    text = yaml.safe_dump(config_to_dict(corridor_config("literal")), sort_keys=False)
    good = tmp_path / "accented.yaml"
    good.write_bytes(("# Gang f\u00fcr zwei Roboter\n" + text).encode("utf-8"))
    assert load_config(good).name == "corridor"

    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b"# Gang f\xfcr zwei Roboter\n" + text.encode("ascii"))
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert str(err.value).startswith(f"{bad}: not UTF-8: ")


# --------------------------------------------------------------------------
# The start monitor


@pytest.mark.parametrize("named", [True, False], ids=["named", "nameless"])
def test_load_run_write_read_audit_compiles_the_monitor_once(named, tmp_path, compile_calls):
    data = config_to_dict(corridor_config("literal"))
    if not named:
        del data["name"]
    path = tmp_path / "hall.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    compile_calls.clear()

    cfg = load_config(path)
    result = run_batch(cfg.to_scenario(), cfg.seed, episodes=3)
    trace = tmp_path / "hall.trace.jsonl"
    write_traces(result, trace, cfg.name, cfg.shield_mode, cfg.horizon)
    report = audit_traces(cfg, read_traces(trace))
    assert report.ok and len(report.episodes) == 3
    assert cfg.name == ("corridor" if named else "hall")
    assert len(compile_calls) == 1


def test_a_load_compiles_only_the_monitors_barriers(monkeypatch):
    calls = count_calls(monkeypatch, "compile_expr")
    load_config(CONFIGS / "corridor.yaml")
    # One barrier for each obligation of `G !(…) & F at_goal`. Belief
    # atoms compile on first use, which only the audit's oracle makes.
    assert len(calls) == 2


def test_replace_recompiles_the_start_monitor():
    cfg = corridor_config("literal")
    goal = cfg.start_monitor.obligations[1]
    assert goal.label == "F at_goal"
    assert goal.barriers[0].left == Constant(0.001)

    wider = replace(cfg, monitor=MonitorConfig(delta=0.2))
    goal = wider.start_monitor.obligations[1]
    assert goal.label == "F at_goal"
    assert goal.barriers[0].left == Constant(0.2)
    assert wider.start_monitor.config == MonitorConfig(delta=0.2)


def test_an_unmonitorable_formula_cannot_build_a_config():
    cfg = corridor_config("literal")
    nested = parse_formula("G F at_goal", cfg.predicates, cfg.model.state_index)
    with pytest.raises(UnsupportedNesting):
        ScenarioConfig(
            name=cfg.name, model=cfg.model, predicates=cfg.predicates,
            formula=nested, formula_text="G F at_goal", monitor=cfg.monitor,
            policy=cfg.policy, shield_mode=cfg.shield_mode, horizon=cfg.horizon,
            episodes=cfg.episodes, seed=cfg.seed)


def test_config_dict_collapses_action_independent_entries():
    cfg = parse(base_config())
    data = config_to_dict(cfg)
    # good behaves the same under both joint actions: one entry, no action.
    good_entries = [e for e in data["transition"] if e["from"] == "good"]
    assert good_entries == [{"from": "good", "next": {"good": 0.9, "bad": 0.1}}]
    bad_entries = [e for e in data["transition"] if e["from"] == "bad"]
    assert len(bad_entries) == 2
    assert all("action" in e for e in bad_entries)
    # Zero probabilities are dropped from distribution maps.
    assert bad_entries[1]["next"] == {"bad": 1.0}
    # Rewards: constant rows collapse, zero entries vanish.
    assert {"state": "good", "value": 1.0} in data["reward"]
    assert len([e for e in data["reward"] if e["state"] == "bad"]) == 1


def test_round_trip_preserves_the_scenario(tmp_path):
    cfg = parse(base_config())
    back = parse_config(config_to_dict(cfg), source="test")
    assert np.array_equal(back.model.transition, cfg.model.transition)
    assert np.array_equal(back.model.observation, cfg.model.observation)
    assert np.array_equal(back.model.reward, cfg.model.reward)
    assert np.array_equal(back.model.initial.probs, cfg.model.initial.probs)
    assert back.formula == cfg.formula
    assert back.predicates == cfg.predicates
    assert back.policy == cfg.policy
    assert (back.name, back.shield_mode, back.horizon, back.episodes, back.seed) == (
        cfg.name, cfg.shield_mode, cfg.horizon, cfg.episodes, cfg.seed)
    assert back.monitor == cfg.monitor

    path = tmp_path / "pair.yaml"
    write_config(cfg, path)
    from_file = load_config(path)
    assert np.array_equal(from_file.model.transition, cfg.model.transition)
    assert from_file.formula == cfg.formula


def dyadic_rows(rng, shape) -> np.ndarray:
    """Random rows that sum to exactly 1, with some zero entries, so
    renormalizing on load leaves every bit as it is."""
    counts = rng.multinomial(64, np.full(shape[-1], 1.0 / shape[-1]), size=shape[:-1])
    return counts / 64.0


@pytest.mark.parametrize("seed", range(12))
def test_random_models_round_trip_bit_for_bit(seed, tmp_path):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    radices = [int(rng.integers(1, 4)), int(rng.integers(2, 4))]
    obs_radices = [int(rng.integers(1, 3)), int(rng.integers(1, 4))]
    na = int(np.prod(radices))
    transition = dyadic_rows(rng, (n, na, n))
    observation = dyadic_rows(rng, (n, na, int(np.prod(obs_radices))))
    reward = rng.normal(size=(n, na))
    for q in range(n):
        # Action-independent rows (one entry, no action) and, for rewards,
        # constant and all-zero rows next to action-dependent ones.
        if q % 2:
            transition[q] = transition[q, 0]
        if q % 3 == 1:
            reward[q] = reward[q, 0]
        elif q % 3 == 2:
            reward[q] = 0.0
    reward[0, 0] = 0.0
    states = tuple(f"s{i}" for i in range(n))
    model = Mpomdp(
        state_names=states,
        agent_names=("a", "b"),
        action_names=tuple(tuple(f"act{i}_{j}" for j in range(r))
                           for i, r in enumerate(radices)),
        observation_names=tuple(tuple(f"obs{i}_{j}" for j in range(r))
                                for i, r in enumerate(obs_radices)),
        initial=Belief(dyadic_rows(rng, (n,))),
        transition=transition, observation=observation, reward=reward)
    index = {s: i for i, s in enumerate(states)}
    predicates = {"high": parse_expr("b(s1) - 0.5", index)}
    cfg = ScenarioConfig(
        name=f"random{seed}", model=model, predicates=predicates,
        formula=parse_formula("G !high", predicates, index), formula_text="G !high",
        monitor=MonitorConfig(delta=float(rng.uniform(1e-4, 0.1)),
                              alpha=LinearAlpha(float(rng.uniform(0.1, 0.9))),
                              ft=FtParams(rho=float(rng.uniform(0.1, 0.9)),
                                          eps=float(rng.uniform(0.01, 1.0)))),
        policy=FixedAction(int(rng.integers(na))), shield_mode="conservative",
        horizon=5, episodes=2, seed=seed)

    back = parse_config(config_to_dict(cfg), source="test")
    for table in ("transition", "observation", "reward"):
        assert np.array_equal(getattr(back.model, table), getattr(cfg.model, table))
    assert np.array_equal(back.model.initial.probs, cfg.model.initial.probs)
    assert (back.monitor, back.policy) == (cfg.monitor, cfg.policy)

    first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
    write_config(cfg, first)
    write_config(load_config(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_corridor_config_round_trips(tmp_path):
    cfg = corridor_config("literal")
    m = cfg.model
    assert m.n_states == 16
    assert m.n_joint_actions == 6
    assert m.n_joint_observations == 2
    assert cfg.formula_text == FORMULA
    assert cfg.policy == FixedAction(5)
    assert (cfg.shield_mode, cfg.horizon, cfg.episodes, cfg.seed) == (
        "literal", 200, 100, 7)

    path = tmp_path / "corridor.yaml"
    write_config(cfg, path)
    back = load_config(path)
    assert np.array_equal(back.model.transition, m.transition)
    assert np.array_equal(back.model.observation, m.observation)
    assert np.array_equal(back.model.reward, m.reward)
    assert np.array_equal(back.model.initial.probs, m.initial.probs)
    assert back.formula == cfg.formula


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


@pytest.mark.parametrize("name", ["corridor.yaml", "corridor_unshielded.yaml"])
def test_yaml_loaders_build_equal_configs(name):
    text = (CONFIGS / name).read_text()
    data = [yaml.load(text, Loader=loader) for loader in LOADERS]
    assert all(d == data[0] for d in data)
    expected = config_to_dict(parse_config(data[0], source=name))
    assert config_to_dict(load_config(CONFIGS / name)) == expected


def test_shipped_configs_match_their_generator(tmp_path, capsys):
    assert presets.main([str(tmp_path)]) == 0
    for name in ("corridor.yaml", "corridor_unshielded.yaml"):
        assert (tmp_path / name).read_bytes() == (CONFIGS / name).read_bytes()


def test_a_negative_entry_within_the_row_sum_tolerance_is_refused():
    # The row still sums to 1 within 1e-9, but renormalizing keeps the
    # entry's sign, and the filter would carry it into a belief.
    data = yaml.safe_load((CONFIGS / "corridor.yaml").read_text())
    row = data["transition"][0]
    assert (row["from"], row["action"]) == ("a0_h1", ["follow_route", "hold"])
    row["next"]["a0_h1"] += 5e-10
    row["next"]["a2_h1"] = -5e-10
    with pytest.raises(ConfigError) as err:
        parse_config(data, source="corridor.yaml")
    assert "transition[0, 0, 4]: entry -5e-10 outside [0, 1]" in str(err.value)


def yaml_text(data: dict, **scalars: str) -> str:
    """data as YAML, with each key of scalars written last as the plain
    text scalars[key]."""
    rest = {key: value for key, value in data.items() if key not in scalars}
    return yaml.safe_dump(rest, sort_keys=False) + "".join(
        f"{key}: {text}\n" for key, text in scalars.items())


@pytest.mark.parametrize("text, value", [
    ("{delta: 1e-3, gamma: 0.5, rho: 0.9, eps: 0.05}", 1e-3),
    ("{delta: 5E-2, gamma: 0.5, rho: 0.9, eps: 0.05}", 5e-2),
    ("{delta: .5e-1, gamma: 0.5, rho: 0.9, eps: 0.05}", 0.05),
    ("{delta: 1.0e-3, gamma: 0.5, rho: 0.9, eps: 0.05}", 1e-3),
], ids=["no-dot", "capital-e", "leading-dot", "yaml-1.1"])
def test_a_number_with_an_exponent_loads_as_a_float(tmp_path, text, value):
    # YAML 1.1 reads 1e-3 as a string; YAML 1.2, as JSON does, as a float.
    path = tmp_path / "exponent.yaml"
    path.write_text(yaml_text(base_config(), monitor=text, horizon="3"))
    cfg = load_config(path)
    assert cfg.monitor.delta == value
    assert type(cfg.horizon) is int and cfg.horizon == 3


def test_a_negative_entry_written_with_an_exponent_is_refused(tmp_path):
    text = (CONFIGS / "corridor.yaml").read_text()
    first = "    a0_h1: 0.14250000000000002\n"
    assert text.count(first) > 1
    path = tmp_path / "negative.yaml"
    path.write_text(text.replace(first, "    a0_h1: 0.1425000005\n    a2_h1: -5e-10\n", 1))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "transition[0, 0, 4]: entry -5e-10 outside [0, 1]" in str(err.value)


def test_a_name_written_as_a_number_with_an_exponent_is_refused(tmp_path):
    path = tmp_path / "named.yaml"
    path.write_text(yaml_text(base_config(), states="[good, 1e3]"))
    with pytest.raises(ConfigError, match="state names must be non-empty strings, got 1000.0"):
        load_config(path)


@pytest.mark.parametrize("name", ["corridor.yaml", "corridor_unshielded.yaml"])
def test_the_scenario_loader_reads_what_pyyaml_reads(name):
    # Shipped files write every float with a dot, as PyYAML dumps them.
    text = (CONFIGS / name).read_text()
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.safe_load(text)


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_invalid_yaml_is_a_config_error_with_either_loader(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    bad = tmp_path / "broken.yaml"
    bad.write_text("{]")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)


# The scenario loader itself and, as references, PyYAML's two loader
# bases with its refusal of a repeated key added, each named as its base.
READERS = [config._YAML_LOADER] + [
    type(base.__name__, (config._UniqueKeys, base), {}) for base in LOADERS]


def outcome(read, text: str):
    """(repr, value) of what read(text) returns, or (type, message) of
    what it raises. Tuples compare repr first, so a NaN compares equal
    by repr; PyYAML shares one NaN object, so the values compare equal
    too."""
    try:
        data = read(text)
    except Exception as exc:
        return type(exc), str(exc)
    return repr(data), data


def assert_reads_as_yaml_load(text: str, loader) -> None:
    expected = outcome(partial(yaml.load, Loader=loader), text)
    with mock.patch.object(config, "_YAML_LOADER", loader):
        got = outcome(config._read_yaml, text)
    # A recursive list or mapping (`&a [*a]`) has no `==`; its repr
    # shows where it recurses.
    if isinstance(got[0], str) and ("[...]" in got[0] or "{...}" in got[0]):
        assert got[0] == expected[0]
    else:
        assert got == expected


# Plain scalars that YAML 1.1 (and the exponent resolver) reads as null,
# bool, int, float, date and timestamp; `<<` and `=` are the merge and
# value keys. Every date is a real one: an impossible date is a
# ConfigError at its scalar where PyYAML raises a bare ValueError.
TRICKY = ["yes", "Off", "~", "", "1e3", "-5e-10", ".5e-1", "0x1F", "017", "1_000", "1:30",
          ".inf", "-.INF", ".nan", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "3", "-0.5",
          "null", "a b", "<<", "="]


def quoted(text: str, style: str) -> str:
    if style == "single":
        return "'" + text.replace("'", "''") + "'"
    return json.dumps(text) if style == "double" else text


# Nodes: ("scalar", text, style), ("alias", name), ("anchor", name, node),
# ("seq", [node, ...]) and ("map", [(key, node), ...]) with scalar or
# alias keys. Anchor names come from two letters, so a text may alias
# an anchor before it is defined or define one twice.
_names = st.sampled_from("ab")
_scalar_nodes = st.tuples(st.just("scalar"), st.sampled_from(TRICKY),
                          st.sampled_from(["plain", "single", "double"]))
# One leaf in eight is an alias, so that most texts are valid.
_leaves_or_aliases = st.integers(0, 7).flatmap(
    lambda i: st.tuples(st.just("alias"), _names) if i == 0 else _scalar_nodes)
yaml_nodes = st.recursive(
    _leaves_or_aliases,
    lambda inner: st.one_of(
        st.tuples(st.just("seq"), st.lists(inner, max_size=3)),
        st.tuples(st.just("map"), st.lists(st.tuples(_leaves_or_aliases, inner), max_size=3)),
        st.tuples(st.just("anchor"), _names,
                  st.tuples(st.just("seq"), st.lists(inner, max_size=3)))),
    max_leaves=10)


def flow_text(node) -> str:
    kind = node[0]
    if kind == "scalar":
        return quoted(node[1], node[2])
    if kind == "alias":
        return f"*{node[1]} "
    if kind == "anchor":
        return f"&{node[1]} {flow_text(node[2])}"
    if kind == "seq":
        return "[" + ", ".join(flow_text(item) for item in node[1]) + "]"
    return "{" + ", ".join(f"{flow_text(k)}: {flow_text(v)}" for k, v in node[1]) + "}"


def block_lines(prefix: str, node, indent: int) -> list[str]:
    """`node` in block style after `prefix` (`-`, `key:` or nothing),
    its items on the lines below, indented two more."""
    pad = " " * indent
    anchor = ""
    if node[0] == "anchor":
        anchor, node = f"&{node[1]}", node[2]
    if node[0] in ("scalar", "alias") or not node[1]:
        return [f"{pad}{prefix} {anchor} {flow_text(node)}"]
    lines = [f"{pad}{prefix} {anchor}"]
    if node[0] == "seq":
        for item in node[1]:
            lines += block_lines("-", item, indent + 2)
    else:
        for key, value in node[1]:
            lines += block_lines(f"{flow_text(key)}:", value, indent + 2)
    return lines


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@settings(max_examples=200, deadline=None)
@given(node=yaml_nodes, block=st.booleans())
@example(node=("map", [(("scalar", "a", "plain"), ("anchor", "a", ("seq", [
    ("scalar", ".nan", "plain"), ("scalar", "1e3", "plain")]))),
    (("scalar", "b", "plain"), ("alias", "a"))]), block=True)
@example(node=("seq", [("anchor", "a", ("seq", [])), ("anchor", "a", ("seq", []))]),
         block=False)
def test_the_reader_reads_what_pyyaml_reads(loader, node, block):
    text = "\n".join(block_lines("", node, 0)) + "\n" if block else flow_text(node)
    assert_reads_as_yaml_load(text, loader)


_leaves = (st.sampled_from(TRICKY) | st.none() | st.booleans() | st.integers()
           | st.floats() | st.dates())


@st.composite
def shared_data(draw):
    """Nested lists and string-keyed mappings that hold the same few
    sub-lists in several places, which the dumper writes once with an
    anchor and then as aliases."""
    pool = draw(st.lists(st.lists(_leaves, min_size=1, max_size=3), min_size=1, max_size=3))
    nested = st.recursive(
        st.booleans().flatmap(lambda shared: st.sampled_from(pool) if shared else _leaves),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(TRICKY), inner, max_size=3),
        max_leaves=8)
    return draw(st.lists(nested, min_size=2, max_size=4)
                | st.dictionaries(st.sampled_from(TRICKY), nested, min_size=2, max_size=4))


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@settings(max_examples=100, deadline=None)
@given(data=shared_data(), flow=st.sampled_from([None, False, True]))
def test_the_reader_reads_what_pyyaml_reads_from_dumped_data(loader, data, flow):
    text = yaml.dump(data, Dumper=yaml.SafeDumper, default_flow_style=flow)
    assert_reads_as_yaml_load(text, loader)


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("text", [
    "a: !!str 3\n", "<<: {a: 1}\nb: 2\n", "=: 1\n", "? [1]\n: 2\n", "a: &x 1\nb: &x 2\n",
    "[1, *y]\n", "--- 1\n--- 2\n",
], ids=["explicit-tag", "merge-key", "value-key", "unhashable-key", "duplicate-anchor",
        "undefined-alias", "second-document"])
def test_a_construct_the_reader_leaves_to_yaml_load(text, loader, monkeypatch):
    calls = []
    load = yaml.load
    monkeypatch.setattr(yaml, "load", lambda *args, **kw: calls.append(args) or load(*args, **kw))
    assert_reads_as_yaml_load(text, loader)
    # Once as the reference above, once by the reader.
    assert len(calls) == 2


def nested(depth: int, inner: str = "") -> str:
    return "[" * depth + inner + "]" * depth


# Texts whose deepest collection is `depth` levels down, each by a path
# of the reader: all in the reader, or left to `yaml.load` before, at or
# after that collection's start.
DEEP_TEXTS = {
    "plain": lambda depth: nested(depth),
    "explicit-tag": lambda depth: f"[!!str x, {nested(depth - 1)}]",
    "tagged-innermost": lambda depth: nested(depth - 1, "!!seq []"),
    "duplicate-anchor": lambda depth: f"[&a 1, {nested(depth - 2, '&a []')}]",
    "second-document": lambda depth: f"--- 1\n--- {nested(depth)}\n",
}


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("shape", DEEP_TEXTS)
def test_a_collection_nested_too_deep_is_an_error_before_yaml_load(shape, loader, monkeypatch):
    assert_reads_as_yaml_load(DEEP_TEXTS[shape](MAX_NESTING), loader)
    text = DEEP_TEXTS[shape](MAX_NESTING + 1)
    # Where the first collection too deep starts, at its tag or anchor if
    # it has one.
    lines = text.splitlines()
    line = next(i for i, t in enumerate(lines) if t.count("[") > MAX_NESTING)
    column = [m.start() for m in re.finditer(r"(?:!!seq |&a )?\[", lines[line])][MAX_NESTING]

    def refuse(*args, **kwargs):
        raise AssertionError("yaml.load called")

    monkeypatch.setattr(yaml, "load", refuse)
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    with pytest.raises(yaml.YAMLError) as err:
        config._read_yaml(text)
    assert str(err.value).startswith(f"nested deeper than {MAX_NESTING} levels\n")
    assert f", line {line + 1}, column {column + 1}" in str(err.value)


def test_shipped_and_written_configs_load_without_yaml_load(tmp_path, monkeypatch):
    written = tmp_path / "wide.yaml"
    write_config(build_scenario({
        **PAIR_SPEC, "name": "wide", "states": [f"s{i}" for i in range(256)],
        "policy": "greedy"}), written)
    paths = [CONFIGS / "corridor.yaml", CONFIGS / "corridor_unshielded.yaml", written]
    expected = [config_to_dict(parse_config(
        yaml.load(path.read_text(), Loader=config._YAML_LOADER), source=str(path)))
        for path in paths]

    def refuse(*args, **kwargs):
        raise AssertionError("yaml.load called")

    monkeypatch.setattr(yaml, "load", refuse)
    assert [config_to_dict(load_config(path)) for path in paths] == expected


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("date, reason", [
    ("2001-02-30", "day is out of range for month"),
    ("2001-13-01", "month must be in 1..12"),
])
def test_an_impossible_date_is_a_config_error_at_its_scalar(loader, date, reason, tmp_path,
                                                            monkeypatch):
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    path = tmp_path / "date.yaml"
    path.write_text(yaml_text(base_config(), seed=date))
    line = path.read_text().splitlines().index(f"seed: {date}") + 1
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value).startswith(
        f"{path}: not valid YAML: cannot read {date!r} as a timestamp: {reason}\n")
    assert f", line {line}, column 7" in str(err.value)
    # With a construct that only yaml.load builds, its ValueError is a
    # ConfigError too.
    path.write_text(yaml_text(base_config(), name="!!str pair", seed=date))
    with pytest.raises(ConfigError, match=f"^{path}: not valid YAML: {reason}$"):
        load_config(path)


CORRIDOR_TEXT = (CONFIGS / "corridor.yaml").read_text()
FIRST_NEXT = "  next:\n    a0_h1: 0.14250000000000002\n"


# Each edit of the corridor's text repeats a key, and gives the
# (line, column) where the repeated key's mapping starts and where the
# key is met again.
def _repeated_horizon(text):
    return text + "horizon: 3\n", (1, 1), (text.count("\n") + 1, 1)


def _repeated_predicate(text):
    lines = text.splitlines()
    first = lines.index("predicates:") + 2
    at = first + lines[first - 1:].index("  at_goal: 0.5 - (b(a3_h1) + b(a3_h2))")
    return (text.replace("predicates:\n", "predicates:\n  at_goal: 0.5 - b(a3_h1)\n"),
            (first, 3), (at + 1, 3))


def _repeated_state(text):
    line = text[:text.index(FIRST_NEXT)].count("\n") + 2
    return (text.replace(FIRST_NEXT, FIRST_NEXT + "    a0_h1: 0.5\n", 1),
            (line, 5), (line + 1, 5))


def _repeated_in_a_tagged_file(text):
    text, mapping, key = _repeated_horizon(text)
    return text.replace("name: corridor\n", "name: !!str corridor\n", 1), mapping, key


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize("edit", [_repeated_horizon, _repeated_predicate, _repeated_state,
                                  _repeated_in_a_tagged_file],
                         ids=["horizon", "predicate", "state-in-next", "tagged-file"])
def test_a_repeated_key_is_refused_where_it_is_met_again(edit, loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    text, (line, column), (key_line, key_column) = edit(CORRIDOR_TEXT)
    path = tmp_path / "repeated.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    message = str(err.value)
    assert message.startswith(f"{path}: not valid YAML: while constructing a mapping\n")
    context, problem = message.split("\nfound duplicate key\n")
    assert f", line {line}, column {column}" in context
    assert f", line {key_line}, column {key_column}" in problem
    # Read by the loader itself, the file is refused in the same words.
    with pytest.raises(yaml.YAMLError) as direct:
        yaml.load(text, Loader=loader)
    assert message == f"{path}: not valid YAML: {direct.value}"


@pytest.mark.parametrize("loader", READERS, ids=lambda loader: loader.__name__)
def test_an_explicit_key_still_overrides_a_merged_one(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    path = tmp_path / "merged.yaml"
    path.write_text(CORRIDOR_TEXT.replace(
        "monitor:\n  delta: 0.001\n",
        "monitor:\n  <<: {delta: 0.002, eps: 0.2}\n  delta: 0.003\n", 1))
    cfg = load_config(path)
    assert (cfg.monitor.delta, cfg.monitor.ft.eps) == (0.003, 0.1)


# --------------------------------------------------------------------------
# Constructor rules: whatever the Python API builds, the file format holds


PAIR_SPEC = {
    "name": "pair", "states": ["good", "bad"],
    "agents": [("runner", ["go", "wait"], ["hot", "cold"]), ("watcher", ["scan"], ["ping"])],
    "tables": 0, "policy": 1, "shield": "literal", "horizon": 2, "episodes": 1, "seed": 0,
}


def build_scenario(spec: dict) -> ScenarioConfig:
    """The scenario a spec describes, built through the Python API.

    Its tables are random dyadic rows drawn from `spec["tables"]`, so a
    load renormalizes them to the same bits. `policy` is "greedy",
    "random", a fixed joint action index, or any other value to pass as
    the policy itself. The one predicate is over the first state.
    """
    rng = np.random.default_rng(spec["tables"])
    states = tuple(spec["states"])
    action_names = tuple(tuple(actions) for _, actions, _ in spec["agents"])
    observation_names = tuple(tuple(obs) for _, _, obs in spec["agents"])
    n = len(states)
    na = int(np.prod([len(a) for a in action_names]))
    nz = int(np.prod([len(z) for z in observation_names]))
    model = Mpomdp(
        state_names=states, agent_names=tuple(name for name, _, _ in spec["agents"]),
        action_names=action_names, observation_names=observation_names,
        initial=Belief(dyadic_rows(rng, (n,))), transition=dyadic_rows(rng, (n, na, n)),
        observation=dyadic_rows(rng, (n, na, nz)), reward=rng.normal(size=(n, na)))
    predicates = {"high": Difference(BeliefVar(0, states[0]), Constant(0.5))}
    policy = spec["policy"]
    if isinstance(policy, int):
        policy = FixedAction(policy)
    policy = {"greedy": GreedyReward(), "random": RandomUniform()}.get(policy, policy)
    return ScenarioConfig(
        name=spec["name"], model=model, predicates=predicates,
        formula=parse_formula("G !high", predicates, model.state_index),
        formula_text="G !high", monitor=MonitorConfig(),
        policy=policy,
        shield_mode=spec["shield"], horizon=spec["horizon"], episodes=spec["episodes"],
        seed=spec["seed"])


def with_first_agent(spec: dict, edit) -> dict:
    """`spec` with edit(name, actions, observations) applied to its
    first agent."""
    (name, actions, observations), *rest = spec["agents"]
    return {**spec, "agents": [edit(name, actions, observations), *rest]}


# One flaw each, as an edit of a spec, with the error it gives on
# PAIR_SPEC. Each of these built without error while the rules lived
# only in the file reader, and write_config then crashed or wrote a file
# that load_config rejects.
RULE_BREAKS = {
    "duplicate-agent": (lambda s: {**s, "agents": s["agents"] + s["agents"][:1]},
                        "duplicate agent name 'runner'"),
    "duplicate-action": (lambda s: with_first_agent(s, lambda n, a, z: (n, a + a[:1], z)),
                         "duplicate action name 'go'"),
    "duplicate-observation": (lambda s: with_first_agent(s, lambda n, a, z: (n, a, z + z[:1])),
                              "duplicate observation name 'hot'"),
    "join-in-observation": (lambda s: with_first_agent(s, lambda n, a, z: (n, a, z + ["x+y"])),
                            "observation names may not contain '+'"),
    "empty-state": (lambda s: {**s, "states": s["states"] + [""]},
                    "state names must be non-empty strings, got ''"),
    "empty-name": (lambda s: {**s, "name": ""}, "name: expected a non-empty string"),
    "negative-seed": (lambda s: {**s, "seed": -1}, "seed: expected an integer >= 0"),
    "no-episodes": (lambda s: {**s, "episodes": 0}, "episodes: expected an integer >= 1"),
    "no-horizon": (lambda s: {**s, "horizon": 0}, "horizon: expected an integer >= 1"),
    "unknown-shield": (lambda s: {**s, "shield": "sometimes"},
                       "shield: unknown shield mode 'sometimes'"),
    "fixed-action-out-of-range": (lambda s: {**s, "policy": 99},
                                  "policy.action: joint action 99 out of range [0, 2)"),
    "policy-not-a-policy": (lambda s: {**s, "policy": "argmax"},
                            "policy: expected a FixedAction, GreedyReward or RandomUniform, "
                            "got 'argmax'"),
    "state-in-predicate-not-an-identifier": (
        lambda s: {**s, "states": ["a:b", *s["states"][1:]]},
        "predicates.high: 'b(a:b) - 0.5' does not parse back: line 1, column 4"),
}

# Names that YAML would read as something else were they not quoted.
YAML_WORDS = ["null", "yes", "1e3", "a:b", "#x", "~"]


@pytest.mark.parametrize("case", RULE_BREAKS)
def test_a_rule_break_raises_at_construction(case):
    flaw, message = RULE_BREAKS[case]
    with pytest.raises((ValueError, ConfigError)) as err:
        build_scenario(flaw(PAIR_SPEC))
    assert str(err.value).startswith(message), str(err.value)


def test_a_predicate_that_reads_back_differently_cannot_build_a_config():
    # A state name that disagrees with its index writes text that loads
    # as another state.
    cfg = corridor_config("literal")
    swapped = Difference(Constant(0.5), BeliefVar(0, cfg.model.state_names[1]))
    with pytest.raises(ConfigError, match=r"^predicates\.swapped: '0\.5 - b\(\w+\)' "
                                          r"parses back as a different expression$"):
        replace(cfg, predicates={**cfg.predicates, "swapped": swapped})


# Trees built in Python, each shape at any height. Each is held to the
# nesting limit by its height alone, whatever its text would cost the
# parser.
def _nest(k, wrap, inner):
    for _ in range(k):
        inner = wrap(inner)
    return inner


_CORRIDOR = corridor_config("literal")
_GOAL = parse_formula("F at_goal", _CORRIDOR.predicates, _CORRIDOR.model.state_index)
_ATOM = parse_formula("near_patroller", _CORRIDOR.predicates, _CORRIDOR.model.state_index)
_B = BeliefVar(0, _CORRIDOR.model.state_names[0])
_HALF = Constant(0.5)


def _nest2(h, wrap, leaves):
    """wrap, which adds two levels, nested exactly h tall on leaves[0]
    (1 tall) or leaves[1] (2 tall)."""
    return _nest((h - 1) // 2, wrap, leaves[1 - h % 2])


def _alternate(phi, atom, first):
    """And or Or of phi and atom, whichever phi is not, so that phi is
    an operand of its own and the tree grows one level."""
    op = Or if isinstance(phi, And) else And
    return op(phi, atom) if first else op(atom, phi)


# Each shape builds a tree exactly h tall. A chain of one operator is
# one node, so a tall chain alternates `&` with `|`, one node per run.
FORMULA_SHAPES = {
    "conjunction-chain": lambda h: Always(
        _nest(h - 2, lambda phi: _alternate(phi, _ATOM, True), _ATOM)),
    "nested-conjunction": lambda h: Always(
        _nest(h - 2, lambda phi: _alternate(phi, _ATOM, False), _ATOM)),
    "always-over-nested-disjunctions": lambda h: Always(_nest2(
        h - 1, lambda phi: Or(_ATOM, And(_ATOM, phi)), (_ATOM, Or(_ATOM, _ATOM)))),
    "conjunction-of-nested-disjunctions": lambda h: And(_GOAL, Always(_nest2(
        h - 2, lambda phi: Or(And(phi, _ATOM), _ATOM), (_ATOM, Or(_ATOM, _ATOM))))),
}
_B2 = (_B, Min((_B,)))
EXPR_SHAPES = {
    "difference-chain": lambda h: _nest(h - 1, lambda e: Difference(e, _B), _B),
    "nested-difference": lambda h: _nest(h - 1, lambda e: Difference(_B, e), _B),
    "nested-min": lambda h: _nest(h - 1, lambda e: Min((e, _B)), _B),
    "difference-of-min": lambda h: _nest2(h, lambda e: Difference(_HALF, Min((e,))), _B2),
    "unary-minus": lambda h: _nest(h - 1, lambda e: Difference(Constant(0.0), e), _B),
    "product-of-sums": lambda h: _nest2(h, lambda e: Product((_B, Sum((_HALF, e)))), _B2),
    "sum-led-by-difference": lambda h: _nest2(
        h, lambda e: Sum((Difference(e, _B), Max((_HALF, _B)))), _B2),
    "max-of-differences": lambda h: _nest2(h, lambda e: Max((Difference(e, _B),)), _B2),
}


@pytest.mark.parametrize("shape", FORMULA_SHAPES)
def test_a_formula_built_in_python_is_held_to_the_parsers_limit(shape):
    build = FORMULA_SHAPES[shape]
    assert all(height(build(h)) == h for h in (MAX_NESTING, MAX_NESTING + 1))
    replace(_CORRIDOR, formula=build(MAX_NESTING))
    with pytest.raises(ConfigError) as err:
        replace(_CORRIDOR, formula=build(MAX_NESTING + 1))
    assert str(err.value) == f"formula: nested deeper than {MAX_NESTING} levels"


@pytest.mark.parametrize("shape", EXPR_SHAPES)
def test_a_predicate_built_in_python_is_held_to_the_parsers_limit(shape):
    build, states = EXPR_SHAPES[shape], _CORRIDOR.model.state_index
    assert all(height(build(h)) == h for h in (MAX_NESTING, MAX_NESTING + 1))
    # Its text parses back within the parser's levels.
    assert parse_expr(expr_text(build(MAX_NESTING)), states) == build(MAX_NESTING)
    replace(_CORRIDOR, predicates={**_CORRIDOR.predicates, "deep": build(MAX_NESTING)})
    with pytest.raises(ConfigError) as err:
        replace(_CORRIDOR, predicates={**_CORRIDOR.predicates, "deep": build(MAX_NESTING + 1)})
    assert str(err.value) == f"predicates.deep: nested deeper than {MAX_NESTING} levels"


def test_a_formula_nested_a_thousand_levels_is_a_config_error():
    for phi in (FORMULA_SHAPES["nested-conjunction"](1000),
                FORMULA_SHAPES["conjunction-chain"](1000)):
        with pytest.raises(ConfigError, match="^formula: nested deeper than 100 levels$"):
            replace(_CORRIDOR, formula=phi)


def test_a_predicate_nested_a_thousand_levels_is_a_config_error():
    # A sum first in a sum and a product first in a product, which no
    # text spells, nest as deep as any other node.
    for expr in (EXPR_SHAPES["nested-difference"](1000),
                 _nest(1000, lambda e: Sum((e, _B)), _B),
                 _nest(1000, lambda e: Product((e, _B)), _B)):
        with pytest.raises(ConfigError,
                           match=r"^predicates\.deep: nested deeper than 100 levels$"):
            replace(_CORRIDOR, predicates={**_CORRIDOR.predicates, "deep": expr})


def test_text_within_the_parsers_levels_can_build_a_tree_too_tall():
    # Each parenthesized sum in a product costs the parser one level but
    # adds a sum and a product to the tree's height.
    text = "b(bad)"
    for _ in range(50):
        text = f"({text} * b(bad) + b(good))"
    assert height(parse_expr(text, {"good": 0, "bad": 1})) == 101
    data = base_config()
    data["predicates"]["risky"] = text
    with pytest.raises(ConfigError, match=r"^predicates\.risky: nested deeper than 100 levels$"):
        parse(data)


def _tall_scenario():
    """The corridor with a predicate and a formula 100 tall, the formula
    a conjunction of 98 × `F deep` and a `G` over `deep` atoms whose `&`
    and `|` alternate, so that the monitor translates the predicate and
    the shield and the oracle evaluate it."""
    deep = EXPR_SHAPES["difference-chain"](MAX_NESTING)
    atom = BeliefPred("deep", deep)
    core = _nest(MAX_NESTING - 3, lambda f: _alternate(f, atom, True), atom)
    phi = And(*[Eventually(atom)] * (MAX_NESTING - 2), Always(core))
    return replace(_CORRIDOR, predicates={**_CORRIDOR.predicates, "deep": deep},
                   formula=phi, formula_text=pretty_print(phi))


def test_trees_at_the_height_limit_pass_every_walker(tmp_path):
    cfg = _tall_scenario()
    deep = cfg.predicates["deep"]
    assert height(deep) == height(cfg.formula) == MAX_NESTING
    result = run_batch(cfg.to_scenario(), cfg.seed, episodes=2)
    trace = tmp_path / "tall.trace.jsonl"
    write_traces(result, trace, cfg.name, cfg.shield_mode, cfg.horizon)
    report = audit_traces(cfg, read_traces(trace))
    assert report.ok and len(report.episodes) == 2
    assert all(len(ep.obligations) == MAX_NESTING - 1 for ep in report.episodes)
    # Printing, repr and == walk each tree to its leaves.
    assert parse_formula(describe(cfg.formula), cfg.predicates,
                         cfg.model.state_index) == cfg.formula
    assert parse_expr(expr_text(deep), cfg.model.state_index) == deep
    again = _tall_scenario()
    for tree, same in ((cfg.formula, again.formula), (deep, again.predicates["deep"])):
        assert tree == same and tree is not same
        assert repr(tree) == repr(same)


def test_a_product_inside_a_product_survives_write_and_load(tmp_path):
    cfg = corridor_config("literal")
    nested = parse_expr("0.3 * (0.7 * b(a1_h1))", cfg.model.state_index)
    assert nested.children[1] == parse_expr("0.7 * b(a1_h1)", cfg.model.state_index)
    write_config(replace(cfg, predicates={**cfg.predicates, "scaled": nested}),
                 tmp_path / "nested.yaml")
    assert load_config(tmp_path / "nested.yaml").predicates["scaled"] == nested


def test_a_negative_constant_survives_write_and_load(tmp_path):
    cfg = corridor_config("literal")
    b0 = BeliefVar(0, cfg.model.state_names[0])
    predicates = {**cfg.predicates, "neg": Sum((b0, Constant(-0.5))),
                  "zero_minus": Difference(Constant(0.0), Constant(0.5))}
    built = replace(cfg, predicates=predicates)
    write_config(built, tmp_path / "neg.yaml")
    assert "neg: b(a0_h1) + -0.5" in (tmp_path / "neg.yaml").read_text()
    assert "zero_minus: 0.0 - 0.5" in (tmp_path / "neg.yaml").read_text()
    assert load_config(tmp_path / "neg.yaml").predicates == predicates


@pytest.mark.parametrize("kind", [Sum, Product, Min, Max])
def test_an_empty_node_built_in_python_is_a_config_error(kind):
    with pytest.raises(ConfigError, match=r"^predicates\.x: '[a-z()]*' does not parse back"):
        replace(_CORRIDOR, predicates={**_CORRIDOR.predicates, "x": kind(())})


NAMES = st.one_of(st.sampled_from(YAML_WORDS), st.text(min_size=1, max_size=4))


@st.composite
def scenario_specs(draw) -> dict:
    """Specs for small scenarios with arbitrary names, half of them
    edited by one of RULE_BREAKS."""
    names = partial(st.lists, NAMES, min_size=1, unique=True)
    agents = draw(st.lists(st.tuples(NAMES, names(max_size=3), names(max_size=2)),
                           min_size=1, max_size=2, unique_by=lambda agent: agent[0]))
    n_joint_actions = int(np.prod([len(actions) for _, actions, _ in agents]))
    spec = {
        "name": draw(NAMES),
        "states": draw(names(max_size=4)),
        "agents": agents,
        "tables": draw(st.integers(0, 2**32 - 1)),
        "policy": draw(st.one_of(st.sampled_from(["greedy", "random"]),
                                 st.integers(0, n_joint_actions - 1))),
        "shield": draw(st.sampled_from(SHIELD_MODES)),
        "horizon": draw(st.integers(1, 3)),
        "episodes": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
    }
    flaw = draw(st.none() | st.sampled_from(sorted(RULE_BREAKS)))
    return spec if flaw is None else RULE_BREAKS[flaw][0](spec)


def seeded_with(specs):
    """Run a property on each of `specs` before the drawn ones."""
    def decorate(test):
        for spec in specs:
            test = example(spec=spec)(test)
        return test
    return decorate


def assert_same_config(a: ScenarioConfig, b: ScenarioConfig) -> None:
    for table in ("transition", "observation", "reward"):
        assert np.array_equal(getattr(a.model, table), getattr(b.model, table))
    assert np.array_equal(a.model.initial.probs, b.model.initial.probs)
    names = ("state_names", "agent_names", "action_names", "observation_names")
    assert [getattr(a.model, k) for k in names] == [getattr(b.model, k) for k in names]
    settings_ = ("name", "predicates", "formula", "formula_text", "monitor", "policy",
                 "shield_mode", "horizon", "episodes", "seed")
    assert [getattr(a, k) for k in settings_] == [getattr(b, k) for k in settings_]


@seeded_with([flaw(PAIR_SPEC) for flaw, _ in RULE_BREAKS.values()] + [
    {**PAIR_SPEC, "name": word, "states": YAML_WORDS,
     "agents": [(word, YAML_WORDS, YAML_WORDS[::-1])]} for word in YAML_WORDS])
@settings(max_examples=150, deadline=None)
@given(spec=scenario_specs())
def test_what_the_api_builds_round_trips_through_a_file(spec, tmp_path_factory):
    try:
        cfg = build_scenario(spec)
    except (ValueError, ConfigError):
        return
    first = tmp_path_factory.getbasetemp() / "api_first.yaml"
    second = tmp_path_factory.getbasetemp() / "api_second.yaml"
    write_config(cfg, first)
    back = load_config(first)
    assert_same_config(back, cfg)
    write_config(back, second)
    assert first.read_bytes() == second.read_bytes()


# --------------------------------------------------------------------------
# The bulk table fill, held to the per-entry reference


# Each table's entry keys: (state key, value key).
FILL_TABLES = {"transition": ("from", "next"), "observation": ("next", "dist"),
               "reward": ("state", "value")}


class Entry(dict):
    """A mapping type of its own, which the reader takes as any dict."""


class Weight(float):
    """A number type of its own, which the reader takes as any float."""


# What `_number` refuses, and other number types: it takes np.float64,
# a float subclass and an int, and refuses np.float32 and np.int64.
BAD_NUMBERS = [True, "0.5", None, [0.5], float("nan"), float("inf"), float("-inf"), 10**400]
ODD_NUMBERS = [np.float64(0.25), Weight(0.25), 0, np.float32(0.25), np.int64(0)]


def _number_edit(draw, entry, key_value):
    value = draw(st.sampled_from(BAD_NUMBERS + ODD_NUMBERS))
    if key_value == "value":
        entry["value"] = value
    elif isinstance(entry.get(key_value), dict) and entry[key_value]:
        entry[key_value][draw(st.sampled_from(list(entry[key_value])))] = value


def _label_edit(draw, entry, key_value):
    if isinstance(entry.get(key_value), dict):
        entry[key_value][draw(st.sampled_from(["nowhere", 3, None, ("s0",)]))] = 0.0


def _collapse(entries, i, key_from, key_value):
    """Replace every entry of entries[i]'s state by one whole-row entry
    with entries[i]'s value, where the first of them was."""
    if key_from not in entries[i]:
        return
    state = entries[i][key_from]
    same = [j for j, e in enumerate(entries) if isinstance(e, dict) and e.get(key_from) == state]
    whole = {key_from: state, key_value: copy.deepcopy(entries[i][key_value])}
    for j in reversed(same):
        del entries[j]
    entries.insert(same[0], whole)


# Edits of one entry, each (draw, entries, i, state key, value key).
# "dict-subclass" and "collapse" keep a file valid, and so may
# "number" and "whole-row"; every other edit is a fault.
ENTRY_EDITS = {
    "not-a-mapping": lambda draw, es, i, kf, kv: es.__setitem__(
        i, draw(st.sampled_from([None, "entry", [1], 0.5]))),
    "unknown-key": lambda draw, es, i, kf, kv: es[i].__setitem__("bogus", 1),
    "no-state": lambda draw, es, i, kf, kv: es[i].pop(kf, None),
    "unknown-state": lambda draw, es, i, kf, kv: es[i].__setitem__(
        kf, draw(st.sampled_from(["nowhere", ["s0"], 0, None]))),
    "value": lambda draw, es, i, kf, kv: es[i].__setitem__(
        kv, draw(st.sampled_from([0.5, {}, "x", None, ["s0"], {"s0": 1.0}]))),
    "number": lambda draw, es, i, kf, kv: _number_edit(draw, es[i], kv),
    "unknown-label": lambda draw, es, i, kf, kv: _label_edit(draw, es[i], kv),
    "action": lambda draw, es, i, kf, kv: es[i].__setitem__("action", draw(st.sampled_from(
        [None, "a0_0", [], ["fly"], ["a0_0", "a0_0", "a0_0"], ("a0_0",), [["a0_0"]],
         ["a0_0"], ["a0_0", "a1_0"], ["a0_1", "a1_0"]]))),
    "whole-row": lambda draw, es, i, kf, kv: es[i].pop("action", None),
    "duplicate": lambda draw, es, i, kf, kv: es.insert(
        draw(st.integers(0, len(es))), copy.deepcopy(es[i])),
    "drop": lambda draw, es, i, kf, kv: es.pop(i),
    "dict-subclass": lambda draw, es, i, kf, kv: es.__setitem__(i, Entry(es[i])),
    "collapse": lambda draw, es, i, kf, kv: _collapse(es, i, kf, kv),
}


def fill_data(spec: dict) -> dict:
    return config_to_dict(build_scenario({**PAIR_SPEC, "policy": "greedy", **spec}))


@st.composite
def fill_cases(draw) -> dict:
    """A dyadic scenario's mapping with 0-3 edits of its table entries."""
    agents = [(f"agent{i}", [f"a{i}_{j}" for j in range(draw(st.integers(1, 3)))],
               [f"z{i}_{j}" for j in range(draw(st.integers(1, 2)))])
              for i in range(draw(st.integers(1, 2)))]
    data = fill_data({"states": [f"s{i}" for i in range(draw(st.integers(1, 4)))],
                      "agents": agents, "tables": draw(st.integers(0, 2**32 - 1))})
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(FILL_TABLES)))
        entries = data.get(key) or []
        if not entries:
            continue
        i = draw(st.integers(0, len(entries) - 1))
        edit = draw(st.sampled_from(sorted(ENTRY_EDITS)))
        if isinstance(entries[i], dict) or edit in ("not-a-mapping", "duplicate", "drop"):
            ENTRY_EDITS[edit](draw, entries, i, *FILL_TABLES[key])
    return data


def parse_outcome(data):
    """The config parse_config builds from data, or its error's text."""
    try:
        return parse_config(data, source="drawn")
    except ConfigError as exc:
        return str(exc)


def edited(data: dict, edit) -> dict:
    edit(data)
    return data


def _repeat_whole_row(data, later: dict | None = None, before: bool = False) -> None:
    """Collapse the pair scenario's first transition state into a whole
    row, then add `later` (a copy of that row by default) after it, or
    before it."""
    _collapse(data["transition"], 0, "from", "next")
    extra = copy.deepcopy(data["transition"][0]) if later is None else later
    data["transition"].insert(0 if before else len(data["transition"]), extra)


_PAIR_DATA = fill_data({})
_ACTION_ENTRY = copy.deepcopy(_PAIR_DATA["transition"][1])


@settings(max_examples=200, deadline=None)
@given(data=fill_cases())
@example(data=edited(fill_data({}), lambda d: d["transition"][0]["next"].update(
    good=np.float64(d["transition"][0]["next"].get("good", 0.0)))))
@example(data=edited(fill_data({}), lambda d: d["observation"].__setitem__(
    1, Entry(d["observation"][1]))))
@example(data=edited(fill_data({}), lambda d: d["reward"][0].update(value=True)))
@example(data=edited(fill_data({}), lambda d: d["transition"][1]["next"].update(
    bad=float("nan"))))
@example(data=edited(fill_data({}), lambda d: d["observation"][0]["dist"].update(
    {"hot+ping": 10**400})))
@example(data=edited(fill_data({}), _repeat_whole_row))
@example(data=edited(fill_data({}), lambda d: _repeat_whole_row(d, _ACTION_ENTRY)))
@example(data=edited(fill_data({}), lambda d: _repeat_whole_row(d, _ACTION_ENTRY, True)))
@example(data=edited(fill_data({}), lambda d: (
    d["transition"][0].update(next="x"), d["transition"].append(d["transition"][1]))))
@example(data=fill_data({"states": [f"s{i}" for i in range(48)], "agents": [
    ("runner", ["go", "wait", "turn"], ["hot", "cold"]),
    ("watcher", ["scan", "rest"], ["ping", "pong"])]}))
def test_the_bulk_fill_gives_the_per_entry_fill_or_its_error(data):
    got = parse_outcome(data)
    with mock.patch.object(config, "_fill_rows", reference_fill_rows):
        expected = parse_outcome(data)
    if isinstance(expected, str):
        assert got == expected
        return
    assert not isinstance(got, str), got
    for table in ("transition", "observation", "reward"):
        assert getattr(got.model, table).tobytes() == getattr(expected.model, table).tobytes()
    assert_same_config(got, expected)
