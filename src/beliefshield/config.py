"""Scenario configuration: YAML schema, validation, and round-trip.

A scenario file is a mapping with these keys (* = required):

  name            scenario label (default: file stem)
  states*         list of state names
  agents*         list of {name, actions, observations}
  initial*        map state -> probability (missing states are 0)
  transition*     list of {from, action?, next: {state: prob}}
  observation*    list of {next, action?, dist: {joint obs: prob}}
  reward          list of {state, action?, value} (default: all zero)
  predicates      map name -> belief expression text
  formula*        formula text over predicates and state sets
  monitor         {delta, gamma, rho, eps}
  policy          {kind: fixed|greedy|random, action?: [name, ...]}
  shield          'off' | literal | conservative (quote 'off': YAML reads
                  a bare off as false)
  horizon         steps per episode (default 100)
  episodes        episodes per batch (default 1)
  seed            base RNG seed (default 0)

`action` is a list of per-agent action names; omitting it makes the
entry apply to every joint action. Joint observation keys join the
per-agent observation names with '+'. A missing or null optional
section takes its default; `monitor` and `policy`, when given, must be
mappings. Every (state, action) pair must be covered by exactly one
transition entry and one observation entry.
Rows are validated as written (each must already sum to 1 within 1e-9,
with no negative entry) and only then renormalized exactly.

Rules on names and settings live in the constructors (`check_names`,
`MonitorConfig`, `ScenarioConfig`); this module checks the YAML shape:
types, keys, coverage, stochastic rows and finite numbers.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from ._gc import paused_gc
from .barrier import FtParams, LinearAlpha
from .errors import BeliefShieldError, ConfigError
from .ldtl import BeliefExpr, Formula, expr_text, height
from .model import (OBS_JOIN, Belief, Mpomdp, check_names, components_from_flat,
                     flat_from_components, validate_tables)
from .monitor import Monitor, MonitorConfig, compile_monitor
from .parsing import MAX_NESTING, parse_expr, parse_formula
from .sim import (
    SHIELD_MODES, FixedAction, GreedyReward, NominalPolicy, RandomUniform,
    Scenario,
)

# libyaml's parser when PyYAML was built with it (several times faster on
# large tables), else the pure-Python one; both build the same data.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# Integer run settings: (key, default, lower bound).
RUN_SETTINGS = (("horizon", 100, 1), ("episodes", 1, 1), ("seed", 0, 0))


def checked_index(value, bound: int, what: str, where: str) -> int:
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or not 0 <= value < bound):
        raise ConfigError(f"{what} {value!r} out of range [0, {bound})", where)
    return value


def _check_expr_text(expr: BeliefExpr, state_index: dict[str, int], path: str) -> None:
    """Require that expr's text parses back to expr, so that a written
    file loads it unchanged."""
    text = expr_text(expr)
    try:
        same = parse_expr(text, state_index) == expr
    except BeliefShieldError as exc:
        raise ConfigError(f"{text!r} does not parse back: {exc}", path) from exc
    if not same:
        raise ConfigError(f"{text!r} parses back as a different expression", path)


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario whose settings construction checks. Its monitor is
    compiled once, at construction, into `start_monitor`; every episode
    and the audit start from it. `dataclasses.replace` constructs anew,
    so a changed setting is checked again and a monitor compiled anew."""

    name: str
    model: Mpomdp
    predicates: dict[str, BeliefExpr]
    formula: Formula
    formula_text: str
    monitor: MonitorConfig
    policy: NominalPolicy
    shield_mode: str
    horizon: int
    episodes: int
    seed: int
    start_monitor: Monitor = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shield_mode not in SHIELD_MODES:
            raise ConfigError(f"unknown shield mode {self.shield_mode!r} "
                              f"(expected one of {SHIELD_MODES})", "shield")
        for key, _, lower in RUN_SETTINGS:
            value = getattr(self, key)
            if not isinstance(value, int) or isinstance(value, bool) or value < lower:
                raise ConfigError(f"expected an integer >= {lower}", key)
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("expected a non-empty string", "name")
        if not isinstance(self.policy, NominalPolicy):
            raise ConfigError(f"expected a FixedAction, GreedyReward or RandomUniform, "
                              f"got {self.policy!r}", "policy")
        if isinstance(self.policy, FixedAction):
            checked_index(self.policy.action, self.model.n_joint_actions, "joint action",
                          "policy.action")
        # The one bound on every tree, parsed or built in Python: its
        # height, measured without recursion before any walker below
        # (printing, ==, the monitor's translation) recurses into it.
        too_deep = f"nested deeper than {MAX_NESTING} levels"
        for name, expr in self.predicates.items():
            if height(expr) > MAX_NESTING:
                raise ConfigError(too_deep, f"predicates.{name}")
            _check_expr_text(expr, self.model.state_index, f"predicates.{name}")
        if height(self.formula) > MAX_NESTING:
            raise ConfigError(too_deep, "formula")
        object.__setattr__(self, "start_monitor",
                           compile_monitor(self.formula, self.model, self.monitor))

    def to_scenario(self, abort_on_violation: bool = False) -> Scenario:
        return Scenario(
            model=self.model,
            monitor=self.start_monitor,
            policy=self.policy,
            shield_mode=self.shield_mode,
            horizon=self.horizon,
            abort_on_violation=abort_on_violation,
        )


def _require(data: dict, key: str, source: str):
    if key not in data:
        raise ConfigError(f"missing required key {key!r}", source)
    return data[key]


def _mapping(value, keys, path: str) -> dict:
    """`value`, checked to be a mapping whose keys all lie in `keys`
    (any keys when `keys` is None)."""
    if not isinstance(value, dict):
        raise ConfigError("expected a mapping", path)
    if keys is not None:
        extra = set(value) - set(keys)
        if extra:
            raise ConfigError(f"unknown keys: {sorted(extra)}", path)
    return value


def _name_list(value, what: str, path: str) -> list[str]:
    """A list of `what` names, held to the model's name rules."""
    if not isinstance(value, list):
        raise ConfigError("expected a list of names", path)
    try:
        check_names(value, what)
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    # False for NaN, the infinities and integers beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"expected a finite number, got {value!r}", path)
    return float(value)


MONITOR_SETTINGS = ("delta", "gamma", "rho", "eps")


def monitor_settings(mon: MonitorConfig) -> dict[str, float]:
    """The flat {delta, gamma, rho, eps} form of a monitor config."""
    return {"delta": mon.delta, "gamma": mon.alpha.gamma,
            "rho": mon.ft.rho, "eps": mon.ft.eps}


def monitor_from_settings(settings: dict[str, float], path: str) -> MonitorConfig:
    """The monitor config for flat settings; missing ones take
    `MonitorConfig()`'s values, and an out-of-range one is a
    `ConfigError` at `path`."""
    s = {**monitor_settings(MonitorConfig()), **settings}
    try:
        return MonitorConfig(delta=s["delta"], alpha=LinearAlpha(s["gamma"]),
                             ft=FtParams(rho=s["rho"], eps=s["eps"]))
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def _parse_agents(raw, path: str) -> tuple[list[str], list[list[str]], list[list[str]]]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("expected a non-empty list of agents", path)
    names, actions, observations = [], [], []
    for i, entry in enumerate(raw):
        here = f"{path}[{i}]"
        _mapping(entry, None, here)
        names.append(entry.get("name"))
        # The names so far, so that a repeat is located at its own entry.
        _name_list(names, "agent", f"{here}.name")
        actions.append(_name_list(entry.get("actions"), "action", f"{here}.actions"))
        observations.append(_name_list(entry.get("observations"), "observation",
                                       f"{here}.observations"))
        _mapping(entry, ("name", "actions", "observations"), here)
    return names, actions, observations


def _joint_observation_labels(observation_names) -> list[str]:
    """Each joint observation's label, by flat index: the agents'
    observation names joined with '+', as in `none+ping_a`."""
    radices = tuple(len(z) for z in observation_names)
    return [OBS_JOIN.join(names[c] for names, c in
                          zip(observation_names, components_from_flat(flat, radices)))
            for flat in range(int(np.prod(radices)))]


class _JointIndex:
    """Name lookup for states and joint actions/observations."""

    def __init__(self, states: list[str], action_names: list[list[str]],
                 observation_names: list[list[str]]):
        self.state_index = {s: i for i, s in enumerate(states)}
        self.action_names = action_names
        self.observation_names = observation_names
        self.action_radices = [len(a) for a in action_names]
        self.n_joint_actions = int(np.prod(self.action_radices))
        self.joint_obs_index = {
            label: flat for flat, label in enumerate(_joint_observation_labels(observation_names))}

    def state(self, name, path: str) -> int:
        if name not in self.state_index:
            raise ConfigError(f"unknown state {name!r}", path)
        return self.state_index[name]

    def joint_action(self, value, path: str) -> int:
        if (not isinstance(value, list) or len(value) != len(self.action_names)
                or not all(isinstance(a, str) for a in value)):
            raise ConfigError(
                f"expected a list of {len(self.action_names)} action names", path)
        comps = []
        for i, (name, known) in enumerate(zip(value, self.action_names)):
            if name not in known:
                raise ConfigError(f"unknown action {name!r} for agent {i}", f"{path}[{i}]")
            comps.append(known.index(name))
        return flat_from_components(tuple(comps), tuple(self.action_radices))

    def joint_observation(self, label, path: str) -> int:
        if label not in self.joint_obs_index:
            raise ConfigError(f"unknown joint observation {label!r}", path)
        return self.joint_obs_index[label]

    def actions_for(self, entry: dict, path: str) -> list[int]:
        if "action" in entry:
            return [self.joint_action(entry["action"], f"{path}.action")]
        return list(range(self.n_joint_actions))


def _dist_row(index, width: int, dist, path: str) -> np.ndarray:
    """A non-empty map label -> probability as a row of `width`."""
    if not isinstance(dist, dict) or not dist:
        raise ConfigError("expected a non-empty probability map", path)
    row = np.zeros(width)
    for name, value in dist.items():
        where = f"{path}.{name}"
        row[index(name, where)] = _number(value, where)
    return row


def _fill_rows(table: np.ndarray, entries, idx: _JointIndex, key_from: str,
               key_value: str, read_value, path: str, noun: str = "entry") -> np.ndarray:
    """Fill a (state, joint action, ...) table from config entries, each
    {key_from: state, action?, key_value: value}, and return the mask of
    (state, joint action) pairs they cover."""
    covered = np.zeros(table.shape[:2], dtype=bool)
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        _mapping(entry, (key_from, "action", key_value), here)
        q = idx.state(entry.get(key_from), f"{here}.{key_from}")
        value = read_value(entry.get(key_value), f"{here}.{key_value}")
        for a in idx.actions_for(entry, here):
            if covered[q, a]:
                raise ConfigError(
                    f"duplicate {noun} for state {entry[key_from]!r}, "
                    f"joint action {a}", here)
            covered[q, a] = True
            table[q, a] = value
    return covered


def parse_config(data, source: str = "<config>") -> ScenarioConfig:
    """Validate a parsed YAML mapping and build the scenario config."""
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", source)
    _mapping(data, ("name", "states", "agents", "initial", "transition",
                    "observation", "reward", "predicates", "formula", "monitor",
                    "policy", "shield", "horizon", "episodes", "seed"), source)

    states = _name_list(_require(data, "states", source), "state", "states")
    agent_names, action_names, observation_names = _parse_agents(
        _require(data, "agents", source), "agents")
    idx = _JointIndex(states, action_names, observation_names)
    n, na = len(states), idx.n_joint_actions
    nz = len(idx.joint_obs_index)

    initial_raw = _require(data, "initial", source)
    if not isinstance(initial_raw, dict) or not initial_raw:
        raise ConfigError("expected a non-empty map state -> probability", "initial")
    p0 = np.zeros(n)
    for name, value in initial_raw.items():
        p0[idx.state(name, f"initial.{name}")] = _number(value, f"initial.{name}")

    transition = np.zeros((n, na, n))
    observation = np.zeros((n, na, nz))
    for key, table, key_from, key_value, index in (
            ("transition", transition, "from", "next", idx.state),
            ("observation", observation, "next", "dist", idx.joint_observation)):
        entries = _require(data, key, source)
        if not isinstance(entries, list) or not entries:
            raise ConfigError("expected a non-empty list of entries", key)
        covered = _fill_rows(table, entries, idx, key_from, key_value,
                             partial(_dist_row, index, table.shape[2]), key)
        missing = np.argwhere(~covered)
        if missing.size:
            q, a = missing[0]
            raise ConfigError(
                f"{len(missing)} (state, action) pairs have no entry; first missing: "
                f"state {states[q]!r}, joint action {a}", key)

    reward = np.zeros((n, na))
    entries = [] if data.get("reward") is None else data["reward"]
    if not isinstance(entries, list):
        raise ConfigError("expected a list of entries", "reward")
    _fill_rows(reward, entries, idx, "state", "value", _number, "reward", noun="reward")

    violations = validate_tables(p0, transition, observation)
    if violations:
        shown = "; ".join(str(v) for v in violations[:5])
        more = f" (and {len(violations) - 5} more)" if len(violations) > 5 else ""
        raise ConfigError(f"model tables are not stochastic: {shown}{more}", source)
    # Validation passed: renormalize rows exactly.
    p0 = p0 / p0.sum()
    transition = transition / transition.sum(axis=2, keepdims=True)
    observation = observation / observation.sum(axis=2, keepdims=True)

    model = Mpomdp(
        state_names=tuple(states),
        agent_names=tuple(agent_names),
        action_names=tuple(tuple(a) for a in action_names),
        observation_names=tuple(tuple(z) for z in observation_names),
        initial=Belief(p0),
        transition=transition,
        observation=observation,
        reward=reward,
    )

    predicates: dict[str, BeliefExpr] = {}
    predicates_raw = {} if data.get("predicates") is None else data["predicates"]
    if not isinstance(predicates_raw, dict):
        raise ConfigError("expected a map name -> expression text", "predicates")
    for name, text in predicates_raw.items():
        if not isinstance(text, str):
            raise ConfigError("expected expression text", f"predicates.{name}")
        try:
            predicates[name] = parse_expr(text, idx.state_index)
        except BeliefShieldError as exc:
            raise ConfigError(str(exc), f"predicates.{name}") from exc

    formula_text = _require(data, "formula", source)
    if not isinstance(formula_text, str):
        raise ConfigError("expected formula text", "formula")
    try:
        formula = parse_formula(formula_text, predicates, idx.state_index)
    except BeliefShieldError as exc:
        raise ConfigError(str(exc), "formula") from exc

    # A missing or null section means the defaults; anything else must
    # be a mapping.
    mon_raw = _mapping({} if data.get("monitor") is None else data["monitor"],
                       MONITOR_SETTINGS, "monitor")
    monitor = monitor_from_settings(
        {k: _number(mon_raw[k], f"monitor.{k}") for k in MONITOR_SETTINGS if k in mon_raw},
        "monitor")

    pol_raw = _mapping({"kind": "greedy"} if data.get("policy") is None else data["policy"],
                       None, "policy")
    kind = pol_raw.get("kind")
    policy: NominalPolicy
    if kind == "fixed":
        _mapping(pol_raw, ("kind", "action"), "policy")
        policy = FixedAction(idx.joint_action(pol_raw.get("action"), "policy.action"))
    elif kind in ("greedy", "random"):
        if set(pol_raw) - {"kind"}:
            raise ConfigError(f"policy kind {kind!r} takes no other keys", "policy")
        policy = GreedyReward() if kind == "greedy" else RandomUniform()
    else:
        raise ConfigError(
            f"unknown policy kind {kind!r} (expected fixed, greedy, or random)",
            "policy.kind")

    if data.get("shield") is False:
        raise ConfigError("false is not a shield mode; YAML reads an unquoted off "
                          "as false, so write 'off'", "shield")

    # Construction checks the settings and compiles the monitor; a
    # parseable but unmonitorable formula is a config error, not a
    # runtime one.
    try:
        return ScenarioConfig(
            name=data.get("name", source),
            model=model,
            predicates=predicates,
            formula=formula,
            formula_text=formula_text,
            monitor=monitor,
            policy=policy,
            shield_mode=data.get("shield", "off"),
            **{key: data.get(key, default) for key, default, _ in RUN_SETTINGS},
        )
    except ConfigError:
        raise
    except BeliefShieldError as exc:
        raise ConfigError(str(exc), "formula") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    """Load and check a scenario file, read as UTF-8 whatever the
    locale."""
    path = Path(path)
    with paused_gc():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read file: {exc.strerror or exc}", str(path)) from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"not UTF-8: {exc}", str(path)) from exc
        try:
            data = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"not valid YAML: {exc}", str(path)) from exc
        if isinstance(data, dict) and "name" not in data:
            data = {**data, "name": path.stem}
        return parse_config(data, source=str(path))


def _dist_map(labels, row: np.ndarray) -> dict[str, float]:
    return {labels[j]: float(p) for j, p in enumerate(row) if p != 0.0}


def _table_entries(table: np.ndarray, states, key_from: str, key_value: str,
                   write_value, action_lists) -> list[dict]:
    """Entries for a (state, joint action, ...) table, the inverse of
    `_fill_rows`. A state whose rows agree across every joint action gets
    one entry without an action; empty or zero values are left out."""
    entries = []
    for state, rows in zip(states, table):
        if all(np.array_equal(rows[0], row) for row in rows[1:]):
            keyed = [({}, rows[0])]
        else:
            keyed = [({"action": action}, row) for action, row in zip(action_lists, rows)]
        for action, row in keyed:
            value = write_value(row)
            if value:
                entries.append({key_from: state, **action, key_value: value})
    return entries


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """The YAML-ready mapping for a scenario config."""
    m = cfg.model
    action_lists = [list(m.joint_action_label(a)) for a in range(m.n_joint_actions)]
    obs_labels = _joint_observation_labels(m.observation_names)
    reward_entries = _table_entries(m.reward, m.state_names, "state", "value",
                                    float, action_lists)
    data = {
        "name": cfg.name,
        "states": list(m.state_names),
        "agents": [{"name": name, "actions": list(actions), "observations": list(obs)}
                   for name, actions, obs in zip(m.agent_names, m.action_names,
                                                 m.observation_names)],
        "initial": _dist_map(m.state_names, cfg.model.initial.probs),
        "transition": _table_entries(m.transition, m.state_names, "from", "next",
                                     partial(_dist_map, m.state_names), action_lists),
        "observation": _table_entries(m.observation, m.state_names, "next", "dist",
                                      partial(_dist_map, obs_labels), action_lists),
    }
    if reward_entries:
        data["reward"] = reward_entries
    if cfg.predicates:
        data["predicates"] = {name: expr_text(expr)
                              for name, expr in cfg.predicates.items()}
    data["formula"] = cfg.formula_text
    data["monitor"] = monitor_settings(cfg.monitor)
    if isinstance(cfg.policy, FixedAction):
        data["policy"] = {"kind": "fixed", "action": action_lists[cfg.policy.action]}
    else:
        data["policy"] = {"kind": "greedy" if isinstance(cfg.policy, GreedyReward) else "random"}
    data["shield"] = cfg.shield_mode
    data.update((key, getattr(cfg, key)) for key, _, _ in RUN_SETTINGS)
    return data


def write_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=False, width=100))
