"""Scenario config parsing: schema validation with located errors, exact
renormalization, and round trips through the YAML form."""

import copy
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import (
    Always,
    Belief,
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
    NegBeliefPred,
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
from beliefshield.presets import FORMULA, corridor_config


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
        NegBeliefPred("risky", Difference(BeliefVar(1, "bad"), Constant(0.5)))
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


@pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
def test_invalid_yaml_is_a_config_error_with_either_loader(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(config, "_YAML_LOADER", loader)
    bad = tmp_path / "broken.yaml"
    bad.write_text("{]")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(bad)


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


def test_a_product_inside_a_product_survives_write_and_load(tmp_path):
    cfg = corridor_config("literal")
    nested = parse_expr("0.3 * (0.7 * b(a1_h1))", cfg.model.state_index)
    assert nested.children[1] == parse_expr("0.7 * b(a1_h1)", cfg.model.state_index)
    write_config(replace(cfg, predicates={**cfg.predicates, "scaled": nested}),
                 tmp_path / "nested.yaml")
    assert load_config(tmp_path / "nested.yaml").predicates["scaled"] == nested


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
