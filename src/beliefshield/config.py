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

Each table (transition, observation, reward) is filled from its entry
list in bulk: one pass gathers every entry's state, joint action and
numbers, the (state, joint action) pairs are counted with one
`np.bincount`, and the table is written with one assignment. When any
entry is faulty, the error is the one the first faulty entry in file
order gives, read on its own after the entries before it, with the
same text and path.

Rules on names and settings live in the constructors (`check_names`,
`MonitorConfig`, `ScenarioConfig`); this module checks the YAML shape:
types, keys, coverage, stochastic rows and finite numbers.

`load_config` reads a file from its parser's event stream, with the
parser `yaml.load` would use (libyaml's when PyYAML has it), and builds
the data `yaml.load` builds without its node graph: each mapping and
sequence is filled as its events arrive, and an alias is the object its
anchor built. Each distinct scalar (text and implicit flags) is
resolved once, by YAML 1.1's rules and the exponent resolver below, and
built once by the loader's own constructor. An explicit tag other than
`!`, a merge key `<<` or value key `=`, an unhashable key, a repeated
key, a duplicate anchor, an undefined alias or a second document goes
to `yaml.load`, whose value or error stands. A mapping key equal to an
earlier explicit key of its mapping, which PyYAML would let override
it, is an error of the loader (`_UniqueKeys`): "found duplicate key",
at the mapping's start and at the first such key in the file. A date
that does not exist, such as a plain `2001-02-30`, is a ConfigError at
its line and column, and so is a collection nested deeper than
`parsing.MAX_NESTING` levels: the reader reads on to the end of a file
it leaves to `yaml.load`, so no file that holds one reaches it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import NoReturn

import numpy as np
import yaml

from ._gc import paused_gc
from .barrier import FtParams, LinearAlpha
from .errors import BeliefShieldError, ConfigError
from .ldtl import BeliefExpr, Formula, expr_text, height
from .model import OBS_JOIN, Belief, Mpomdp, check_names, joint_labels, validate_tables
from .monitor import Monitor, MonitorConfig, compile_monitor
from .parsing import MAX_NESTING, parse_expr, parse_formula
from .sim import (
    SHIELD_MODES, FixedAction, GreedyReward, NominalPolicy, RandomUniform,
    Scenario,
)


_MERGE_TAG = "tag:yaml.org,2002:merge"
_VALUE_TAG = "tag:yaml.org,2002:value"


class _UniqueKeys:
    """A loader mixin that refuses a mapping key equal to an earlier
    explicit key of its mapping, where PyYAML keeps the later value, in
    PyYAML's words for an unhashable key. A key merged in with `<<` may
    still be overridden.

    The document's node graph is walked in file order before it is
    built, so the error is at the first repeated key in the file: the
    constructor itself builds nested mappings breadth first."""

    def construct_document(self, node):
        seen = set()
        todo = [node]
        while todo:
            item = todo.pop()
            if type(item) is tuple:  # (mapping node, its keys so far, key node)
                mapping, keys, key_node = item
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE_TAG:
                    # A value key `=` is built as the string it spells.
                    key = (key_node.value if key_node.tag == _VALUE_TAG
                           else self.construct_object(key_node))
                    if key in keys:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", mapping.start_mark,
                            "found duplicate key", key_node.start_mark)
                    keys.add(key)
            elif item not in seen:  # an alias is its anchor's node
                seen.add(item)
                if isinstance(item, yaml.SequenceNode):
                    todo.extend(reversed(item.value))
                elif isinstance(item, yaml.MappingNode):
                    keys = set()
                    for key_node, value_node in reversed(item.value):
                        todo += [value_node, key_node, (item, keys, key_node)]
        return super().construct_document(node)


class _YamlLoader(_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader on libyaml's parser when PyYAML was built with it
    (several times faster on large tables), else on the pure-Python one;
    both build the same data. A repeated mapping key is an error."""


class _YamlDumper(yaml.SafeDumper):
    """The safe dumper, which quotes a string wherever the loader would
    read its plain text as something else."""


# PyYAML resolves plain scalars by YAML 1.1, whose floats need a dot and
# a signed exponent, so `1e-3` and `-5e-10` would load as strings. YAML
# 1.2 and JSON read every number with an exponent as a float. Added
# after PyYAML's own resolvers, this one reads only what they read as a
# string: `3` stays an int.
for _cls in (_YamlLoader, _YamlDumper):
    _cls.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"))
_YAML_LOADER = _YamlLoader

_STR_TAG = "tag:yaml.org,2002:str"
# What the reader returns for a construct that only `yaml.load` builds.
_FALLBACK = object()
# A list being filled has this as its pending key; a mapping has _NO_KEY
# until its next key is read, then that key until its value is.
_IN_LIST, _NO_KEY = object(), object()


def _read_yaml(text: str):
    """What `yaml.load(text, Loader=_YAML_LOADER)` returns, built
    straight from the loader's parser events, or from `yaml.load` itself
    for a construct the event reader leaves to it."""
    loader = _YAML_LOADER(text)
    try:
        data = _build(loader)
    finally:
        loader.dispose()
    return yaml.load(text, Loader=_YAML_LOADER) if data is _FALLBACK else data


def _scalar(loader, event):
    """A scalar event's value, as the composer resolves its tag and the
    constructor builds it; an impossible date is an error at the
    scalar."""
    tag = loader.resolve(yaml.ScalarNode, event.value, event.implicit)
    if tag == _STR_TAG:
        return event.value
    construct = loader.yaml_constructors.get(tag)
    if construct is None:  # a merge key `<<` or a value key `=`
        return _FALLBACK
    try:
        return construct(loader, yaml.ScalarNode(tag, event.value,
                                                 event.start_mark, event.end_mark))
    except ValueError as exc:
        raise yaml.constructor.ConstructorError(
            None, None,
            f"cannot read {event.value!r} as a {tag.rpartition(':')[2]}: {exc}",
            event.start_mark) from exc


def _too_deep(event) -> yaml.YAMLError:
    return yaml.constructor.ConstructorError(
        None, None, f"nested deeper than {MAX_NESTING} levels", event.start_mark)


def _fallback(loader, depth: int):
    """_FALLBACK, once the rest of the stream, read from `depth` open
    collections, has shown no collection nested deeper than MAX_NESTING:
    `yaml.load` recurses once per level, in C with libyaml, and a deep
    enough file overflows its stack. A parse error ends the check, since
    `yaml.load` stops at it too, past no deeper collection."""
    get_event = loader.get_event
    while True:
        try:
            event = get_event()
        except yaml.YAMLError:
            return _FALLBACK
        kind = type(event)
        if kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
            depth += 1
            if depth > MAX_NESTING:
                raise _too_deep(event)
        elif kind is yaml.SequenceEndEvent or kind is yaml.MappingEndEvent:
            depth -= 1
        elif kind is yaml.StreamEndEvent:
            return _FALLBACK


def _build(loader):
    """The single document's data from the loader's events, each
    mapping and sequence filled as its events arrive, or _FALLBACK.
    Scalars are resolved and built once per distinct (text, implicit);
    every built scalar is immutable, so sharing one is exact. A
    collection nested deeper than MAX_NESTING is an error at its start,
    in the event reader or before any `yaml.load`."""
    get_event = loader.get_event
    scalars: dict = {}
    anchors: dict = {}
    get_event()  # the stream's start
    if type(get_event()) is yaml.StreamEndEvent:
        return None
    root: list = []
    top, key = root, _IN_LIST
    stack = []
    while True:
        event = get_event()
        kind = type(event)
        if kind is yaml.ScalarEvent:
            if event.tag is not None and event.tag != "!":
                return _fallback(loader, len(stack))
            try:
                value = scalars[event.value, event.implicit]
            except KeyError:
                value = scalars[event.value, event.implicit] = _scalar(loader, event)
                if value is _FALLBACK:
                    return _fallback(loader, len(stack))
        elif kind is yaml.AliasEvent:
            value = anchors.get(event.anchor, _FALLBACK)
            # An undefined alias, or an unhashable key.
            if value is _FALLBACK or key is _NO_KEY and isinstance(value, (list, dict)):
                return _fallback(loader, len(stack))
        elif kind is yaml.SequenceStartEvent or kind is yaml.MappingStartEvent:
            if len(stack) == MAX_NESTING:
                raise _too_deep(event)
            if event.tag is not None and event.tag != "!" or key is _NO_KEY:
                return _fallback(loader, len(stack) + 1)
            value = [] if kind is yaml.SequenceStartEvent else {}
        elif kind is yaml.DocumentEndEvent:
            break
        else:  # the end of a sequence or a mapping
            top, key = stack.pop()
            continue
        if key is _IN_LIST:
            top.append(value)
        elif key is _NO_KEY:
            # A repeated key, which `yaml.load` refuses: at that key
            # unless an error it meets first, composing the whole
            # document, stands.
            if value in top:
                return _fallback(loader, len(stack))
            key = value
        else:
            top[key] = value
            key = _NO_KEY
        if kind is yaml.SequenceStartEvent:
            stack.append((top, key))
            top, key = value, _IN_LIST
        elif kind is yaml.MappingStartEvent:
            stack.append((top, key))
            top, key = value, _NO_KEY
        if event.anchor is not None and kind is not yaml.AliasEvent:
            if event.anchor in anchors:
                return _fallback(loader, len(stack))
            anchors[event.anchor] = value
    # A second document.
    if type(get_event()) is not yaml.StreamEndEvent:
        return _fallback(loader, 0)
    return root[0]


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
    return [OBS_JOIN.join(names) for names in joint_labels(observation_names)]


# An entry without an action covers every joint action.
_EVERY = object()


class _JointIndex:
    """Name lookup for states and joint actions/observations."""

    def __init__(self, states: list[str], action_names: list[list[str]],
                 observation_names: list[list[str]]):
        self.state_index = {s: i for i, s in enumerate(states)}
        self.action_names = action_names
        self.joint_action_index = {
            label: flat for flat, label in enumerate(joint_labels(action_names))}
        self.n_joint_actions = len(self.joint_action_index)
        self.labels = {"state": self.state_index, "joint observation": {
            label: flat for flat, label in enumerate(_joint_observation_labels(observation_names))}}

    def find(self, what: str, name, path: str) -> int:
        """The index of a `what` ("state" or "joint observation") label.
        Any other name is unknown, an unhashable one included."""
        try:
            return self.labels[what][name]
        except (KeyError, TypeError):
            raise ConfigError(f"unknown {what} {name!r}", path) from None

    def joint_action(self, value, path: str) -> int:
        if (not isinstance(value, list) or len(value) != len(self.action_names)
                or not all(isinstance(a, str) for a in value)):
            raise ConfigError(
                f"expected a list of {len(self.action_names)} action names", path)
        for i, (name, known) in enumerate(zip(value, self.action_names)):
            if name not in known:
                raise ConfigError(f"unknown action {name!r} for agent {i}", f"{path}[{i}]")
        return self.joint_action_index[tuple(value)]

    def actions_for(self, entry: dict, path: str) -> list[int]:
        if "action" in entry:
            return [self.joint_action(entry["action"], f"{path}.action")]
        return list(range(self.n_joint_actions))


def _floats(values: list) -> np.ndarray | None:
    """`values` as one float64 array, each read as `_number` reads it,
    or None when `_number` refuses one of them."""
    if set(map(type, values)) <= {float}:
        out = np.array(values, dtype=np.float64)
        return out if np.isfinite(out).all() else None
    try:
        return np.array([_number(v, "") for v in values], dtype=np.float64)
    except ConfigError:
        return None


def _gather(entries: list, idx: _JointIndex, key_from: str, key_value: str,
            column: str | None) -> tuple[np.ndarray, ...] | None:
    """One pass over the entries: each entry's state index, its joint
    action index (-1 for a whole row) and its number of values, and each
    value's column and number, as (states, actions, widths, columns,
    numbers). A number entry is one value in column 0. None when any
    entry is faulty; `_first_fault` then says which."""
    keys = {key_from, "action", key_value}
    if not (all(map(isinstance, entries, repeat(dict)))
            and all(map(keys.issuperset, entries))):
        return None
    count = len(entries)
    joint = idx.joint_action_index

    def action(names) -> int:
        if names is _EVERY:
            return -1
        if not isinstance(names, list):
            raise TypeError
        return joint[tuple(names)]

    values = [entry.get(key_value) for entry in entries]
    try:
        states = np.fromiter(map(idx.state_index.__getitem__,
                                 [entry.get(key_from) for entry in entries]), np.intp, count)
        actions = np.fromiter(map(action, [entry.get("action", _EVERY) for entry in entries]),
                              np.intp, count)
        if column is None:
            widths, columns = np.ones(count, np.intp), np.zeros(count, np.intp)
        elif all(map(isinstance, values, repeat(dict))) and all(values):
            widths = np.fromiter(map(len, values), np.intp, count)
            columns = np.fromiter(map(idx.labels[column].__getitem__, chain.from_iterable(values)),
                                  np.intp, int(widths.sum()))
            values = list(chain.from_iterable(map(dict.values, values)))
        else:
            return None
    except (KeyError, TypeError):  # an unknown or unhashable name, or not a list of names
        return None
    numbers = _floats(values)
    return None if numbers is None else (states, actions, widths, columns, numbers)


def _check_value(value, column: str | None, idx: _JointIndex, path: str) -> None:
    """Refuse an entry's value as the entry alone is read: a number, or
    a non-empty map of `column` labels to numbers, each number checked
    before its label."""
    if column is None:
        _number(value, path)
        return
    if not isinstance(value, dict) or not value:
        raise ConfigError("expected a non-empty probability map", path)
    for name, p in value.items():
        where = f"{path}.{name}"
        _number(p, where)
        idx.find(column, name, where)


def _first_fault(entries: list, idx: _JointIndex, key_from: str, key_value: str,
                 column: str | None, path: str, noun: str) -> NoReturn:
    """Raise for the first faulty entry in file order: each entry is
    checked as it alone is read (its keys, state, value and action), and
    its pairs against those of the entries before it."""
    covered = set()
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        _mapping(entry, (key_from, "action", key_value), here)
        q = idx.find("state", entry.get(key_from), f"{here}.{key_from}")
        _check_value(entry.get(key_value), column, idx, f"{here}.{key_value}")
        for a in idx.actions_for(entry, here):
            if (q, a) in covered:
                raise ConfigError(
                    f"duplicate {noun} for state {entry[key_from]!r}, "
                    f"joint action {a}", here)
            covered.add((q, a))
    raise AssertionError(f"{path}: refused as a whole, but no entry is faulty")


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, ..., c - 1 for each count c, end to end."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _fill_rows(table: np.ndarray, entries: list, idx: _JointIndex, key_from: str,
               key_value: str, column: str | None, path: str,
               noun: str = "entry") -> np.ndarray:
    """Fill a (state, joint action, ...) table from config entries, each
    {key_from: state, action?, key_value: value}, and return the mask of
    (state, joint action) pairs they cover. Each value is a row: a map
    of `column` labels ("state" or "joint observation") to
    probabilities, or with column None one number.

    The entries are gathered in one pass, the pairs they cover counted
    with one `np.bincount` (a pair covered twice is a duplicate, also
    when one whole-row entry repeats) and the table written with one
    assignment. On a fault, `_first_fault` raises for the first faulty
    entry."""
    gathered = _gather(entries, idx, key_from, key_value, column)
    if gathered is not None:
        states, actions, widths, columns, numbers = gathered
        n, na = table.shape[:2]
        width = table.size // (n * na)
        # Each entry covers `reps` pairs from its first: one, or a whole
        # row's na.
        whole = actions < 0
        first = states * na + np.where(whole, 0, actions)
        reps = np.where(whole, na, 1)
        coverage = np.bincount(np.repeat(first, reps) + _ranks(reps), minlength=n * na)
        if coverage.max(initial=0) <= 1:
            # Each number goes to its column in each of its entry's pairs.
            copies = np.repeat(reps, widths)
            at = np.repeat(np.repeat(first, widths) * width + columns, copies)
            table.reshape(-1)[at + _ranks(copies) * width] = np.repeat(numbers, copies)
            return coverage.reshape(n, na) == 1
    _first_fault(entries, idx, key_from, key_value, column, path, noun)


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
    nz = len(idx.labels["joint observation"])

    initial_raw = _require(data, "initial", source)
    if not isinstance(initial_raw, dict) or not initial_raw:
        raise ConfigError("expected a non-empty map state -> probability", "initial")
    p0 = np.zeros(n)
    for name, value in initial_raw.items():
        p0[idx.find("state", name, f"initial.{name}")] = _number(value, f"initial.{name}")

    transition = np.zeros((n, na, n))
    observation = np.zeros((n, na, nz))
    for key, table, key_from, key_value, column in (
            ("transition", transition, "from", "next", "state"),
            ("observation", observation, "next", "dist", "joint observation")):
        entries = _require(data, key, source)
        if not isinstance(entries, list) or not entries:
            raise ConfigError("expected a non-empty list of entries", key)
        covered = _fill_rows(table, entries, idx, key_from, key_value, column, key)
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
    _fill_rows(reward, entries, idx, "state", "value", None, "reward", noun="reward")

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
            data = _read_yaml(text)
        # A ValueError is an impossible date that `yaml.load` built.
        except (yaml.YAMLError, ValueError) as exc:
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
    action_lists = [list(label) for label in m.action_labels]
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
        yaml.dump(config_to_dict(cfg), Dumper=_YamlDumper, sort_keys=False, width=100))
