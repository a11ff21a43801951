"""Shared test helpers: random model generation, the reference
evaluators (the tree-walking `evaluate_expr` that compiled barriers
match bit for bit, the recursive finite-trace `oracle_satisfies` that
the oracle's columns match, and `monitor_step`, which evaluates both
beliefs of a step afresh), the independent two-pass posterior oracle
the filter is checked against, the one-action-at-a-time brute-force
reference the shield's rule is checked against, the entry-by-entry
table fill the scenario reader's bulk fill is held to, the step-by-step
audit the lockstep audit is held to, counters of monitor compilations
and barrier evaluations, and the editing of trace lines and of the
beliefs they record."""

from __future__ import annotations

import base64
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from beliefshield import CONSERVATIVE, LITERAL, monitor
from beliefshield.audit import (
    EpisodeAudit, ObligationAudit, _check_obligations, _verdict_mismatches,
)
from beliefshield.config import ScenarioConfig, _mapping, _number, checked_index
from beliefshield.errors import ConfigError, TraceMismatch, ZeroLikelihood
from beliefshield.ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference, Eventually,
    Formula, Max, Min, Next, Or, Product, StateSet, Sum, Until,
)
from beliefshield.model import (
    Belief, Mpomdp, belief_update, expected_reward, predicted_belief,
)
from beliefshield.monitor import Monitor, Records, barrier_values, check_step, passed
from beliefshield.traceio import STEP_COLUMNS, EpisodeRecord, encode_belief, recorded_belief

# A version 3 step row's column positions by name.
COLUMN = {name: i for i, name in enumerate(STEP_COLUMNS)}


def decode_belief(text: str) -> np.ndarray:
    """A version 2 or 3 trace belief as a writable float64 array."""
    return np.frombuffer(base64.b64decode(text, validate=True), "<f8").copy()


def edit_belief(rec, key, edit) -> None:
    """Decode the version 2 or 3 belief rec[key] (a header's key, a
    version 2 step's key or a row's column), apply edit(entries) to the
    array in place, and store it encoded again."""
    entries = decode_belief(rec[key])
    edit(entries)
    rec[key] = encode_belief(entries)


def edit_trace(path: Path, out: Path, episode: int, step: int | None, edit) -> Path:
    """Write the trace at `path` to `out` with edit(line) applied to one
    parsed line, which is then written back as json.dumps writes it: the
    line of `step` in `episode` (a version 3 row or a version 1 or 2
    object), or with step None the episode's header. Every other line
    is copied as it is."""
    lines = path.read_text().splitlines()
    current = None
    for i, text in enumerate(lines):
        rec = json.loads(text)
        if isinstance(rec, dict) and rec["type"] == "header":
            current, hit = rec["episode"], step is None
        elif isinstance(rec, list):
            hit = rec[0] == step
        else:
            hit = rec["type"] == "step" and rec["step"] == step
        if hit and current == episode:
            edit(rec)
            lines[i] = json.dumps(rec, separators=(",", ":"))
            break
    else:
        raise AssertionError(f"no line of episode {episode} step {step} in {path}")
    out.write_text("\n".join(lines) + "\n")
    return out


def count_calls(monkeypatch, name: str, module=monitor) -> list:
    """Every call of `module.<name>` (a `beliefshield.monitor` function
    by default) from here on, through whichever beliefshield module's
    name for it; each entry is a returning call's positional arguments
    and its result."""
    calls = []
    real = getattr(module, name)

    def counting(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("beliefshield") and getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def compile_calls(monkeypatch) -> list:
    """Every `compile_monitor` call (`beliefshield.config`'s among them)."""
    return count_calls(monkeypatch, "compile_monitor")


@pytest.fixture
def barrier_calls(monkeypatch) -> list:
    """Every `barrier_values` call (the simulator's, the shield's and
    the audit's among them): one per belief evaluated."""
    return count_calls(monkeypatch, "barrier_values")


def evaluate_expr(expr: BeliefExpr, belief: Belief) -> float:
    """Evaluate an expression at a belief point."""
    if isinstance(expr, Constant):
        return float(expr.value)
    if isinstance(expr, BeliefVar):
        return belief[expr.index]
    if isinstance(expr, Sum):
        out = 0.0
        for c in expr.children:
            out += evaluate_expr(c, belief)
        return out
    if isinstance(expr, Difference):
        return evaluate_expr(expr.left, belief) - evaluate_expr(expr.right, belief)
    if isinstance(expr, Product):
        out = 1.0
        for c in expr.children:
            out *= evaluate_expr(c, belief)
        return out
    if isinstance(expr, Min):
        return min(evaluate_expr(c, belief) for c in expr.children)
    if isinstance(expr, Max):
        return max(evaluate_expr(c, belief) for c in expr.children)
    raise TypeError(f"not a belief expression: {expr!r}")


class Letter(NamedTuple):
    """One position of a word: hidden state index and the entries of the
    belief held, as a list of floats, which every belief atom the oracle
    evaluates at this position reads."""

    state: int
    entries: list[float]


def oracle_satisfies(phi: Formula, word: tuple[Letter, ...], i: int = 0) -> bool:
    """Ground-truth satisfaction of phi at position i of a finite word:
    the recursive reference that `ldtl.oracle_columns` is held to."""
    if not 0 <= i < len(word):
        raise IndexError(f"position {i} outside word of length {len(word)}")
    if isinstance(phi, StateSet):
        return (word[i].state in phi.indices) != phi.negated
    if isinstance(phi, BeliefPred):
        # Two comparisons rather than one flipped: a NaN value is false
        # under both polarities.
        value = evaluate_expr(phi.expr, word[i].entries)
        return value >= 0.0 if phi.negated else value < 0.0
    # Plain loops rather than all/any over generators, which cost about
    # twice as much per operand; each stops at the same operand.
    if isinstance(phi, And):
        for c in phi.children:
            if not oracle_satisfies(c, word, i):
                return False
        return True
    if isinstance(phi, Or):
        for c in phi.children:
            if oracle_satisfies(c, word, i):
                return True
        return False
    if isinstance(phi, Next):
        # No next position on a finite word: false at the last letter.
        return i + 1 < len(word) and oracle_satisfies(phi.child, word, i + 1)
    if isinstance(phi, Until):
        for j in range(i, len(word)):
            if oracle_satisfies(phi.right, word, j):
                for k in range(i, j):
                    if not oracle_satisfies(phi.left, word, k):
                        return False
                return True
        return False
    if isinstance(phi, Eventually):
        for j in range(i, len(word)):
            if oracle_satisfies(phi.child, word, j):
                return True
        return False
    if isinstance(phi, Always):
        for j in range(i, len(word)):
            if not oracle_satisfies(phi.child, word, j):
                return False
        return True
    raise TypeError(f"not a formula: {phi!r}")


def values_at(mon: Monitor, b: Belief) -> Monitor:
    """mon moved to b: the same obligations, holding their barrier
    values at b."""
    return replace(mon, values=barrier_values(mon, b.probs))


def monitor_step(mon: Monitor, b_prev: Belief, b_next: Belief) -> tuple[Records, Monitor]:
    """Check the transition b_prev -> b_next against every obligation.

    Pure: returns the verdict and the successor monitor. The first call
    treats b_prev as the starting belief (position 0) and runs the
    activation checks described in `beliefshield.monitor`'s docstring.
    """
    mon = values_at(mon, b_prev)
    return check_step(mon, barrier_values(mon, b_next.probs))


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    p = rng.random(n) + 1e-3
    return p / p.sum()


def random_model(rng: np.random.Generator, max_states: int = 6,
                 max_agents: int = 3, max_radix: int = 3) -> Mpomdp:
    """A random dense model with strictly positive observation rows, so
    every observation has positive likelihood from every belief."""
    n = int(rng.integers(1, max_states + 1))
    n_agents = int(rng.integers(1, max_agents + 1))
    action_radices = [int(rng.integers(1, max_radix + 1)) for _ in range(n_agents)]
    obs_radices = [int(rng.integers(1, max_radix + 1)) for _ in range(n_agents)]
    na = int(np.prod(action_radices))
    nz = int(np.prod(obs_radices))

    transition = rng.random((n, na, n)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    observation = rng.random((n, na, nz)) + 1e-3
    observation /= observation.sum(axis=2, keepdims=True)
    reward = rng.normal(size=(n, na))

    return Mpomdp(
        state_names=tuple(f"s{i}" for i in range(n)),
        agent_names=tuple(f"agent{i}" for i in range(n_agents)),
        action_names=tuple(
            tuple(f"a{i}_{j}" for j in range(r)) for i, r in enumerate(action_radices)),
        observation_names=tuple(
            tuple(f"z{i}_{j}" for j in range(r)) for i, r in enumerate(obs_radices)),
        initial=Belief(random_simplex(rng, n)),
        transition=transition,
        observation=observation,
        reward=reward,
    )


def two_pass_posterior(b: Belief, action: int, obs: int, m: Mpomdp) -> np.ndarray | None:
    """Reference Bayes update, written as two explicit passes: predict
    each successor state with a scalar loop, then correct by the
    observation likelihood and normalize. Returns None when the
    observation has zero probability."""
    n = m.n_states
    predicted = [0.0] * n
    for q_next in range(n):
        acc = 0.0
        for q in range(n):
            acc += float(b.probs[q]) * float(m.transition[q, action, q_next])
        predicted[q_next] = acc
    unnormalized = [float(m.observation[q_next, action, obs]) * predicted[q_next]
                    for q_next in range(n)]
    total = sum(unnormalized)
    if total <= 1e-12:
        return None
    return np.array([u / total for u in unnormalized])


@dataclass(frozen=True)
class ActionCheck:
    """One joint action's step under the shared observation z."""

    action: int
    belief: Belief | None        # posterior under z; None when z is impossible
    verdict: Records | None      # the monitor's verdict on that step
    monitor: Monitor | None      # the successor monitor
    safe: bool                   # passes under z and, if conservative, every other z
    reward: float | None         # expected reward at the posterior
    changed: int                 # agents whose action differs from the nominal's


# The documented tie band: reward deviations within it of a level's least
# count as tied.
REWARD_TIE = 1e-9


@dataclass(frozen=True)
class ShieldReference:
    """Every action's check, in flat order, and the nominal's reference
    reward (its one-step prediction's when z is impossible after it)."""

    nominal_reward: float
    actions: tuple[ActionCheck, ...]

    @property
    def safe(self) -> list[ActionCheck]:
        return [c for c in self.actions if c.safe]

    @property
    def level(self) -> list[ActionCheck]:
        """The deciding level: the safe actions that change the fewest
        agents, in flat order (the nominal alone when it is safe)."""
        safe = self.safe
        fewest = min((c.changed for c in safe), default=None)
        return [c for c in safe if c.changed == fewest]

    @property
    def choice(self) -> ActionCheck | None:
        """The documented rule over every action: fewest agents changed,
        then the least |reward - nominal reward| with deviations within
        REWARD_TIE of the level's least tied, then the lowest flat index.
        None when no action is safe."""
        level = self.level
        if not level:
            return None
        devs = [abs(c.reward - self.nominal_reward) for c in level]
        return next(c for c, d in zip(level, devs) if d <= min(devs) + REWARD_TIE)


def _passes_every_other_observation(m: Mpomdp, mon: Monitor, b: Belief, z: int,
                                    action: int) -> bool:
    likelihoods = predicted_belief(b, action, m) @ m.observation[:, action, :]
    for other_z, weight in enumerate(likelihoods):
        if other_z == z or weight <= 0.0:
            continue
        try:
            b_other = belief_update(b, action, other_z, m)
        except ZeroLikelihood:
            return False
        other_verdict, _ = monitor_step(mon, b, b_other)
        if not passed(other_verdict):
            return False
    return True


def shield_reference(m: Mpomdp, mon: Monitor, b: Belief, z: int, a_nominal: int,
                     mode: str = LITERAL) -> ShieldReference:
    """The shield's candidate check done the long way, for every action:
    a full belief_update and monitor_step per action and, in conservative
    mode, per other observation of positive predicted probability. A
    zero-likelihood update makes an action unsafe."""
    nominal_names = m.joint_action_label(a_nominal)
    checks = []
    for action in range(m.n_joint_actions):
        changed = sum(x != y for x, y in zip(m.joint_action_label(action), nominal_names))
        try:
            b_next = belief_update(b, action, z, m)
        except ZeroLikelihood:
            checks.append(ActionCheck(action, None, None, None, False, None, changed))
            continue
        verdict, successor = monitor_step(mon, b, b_next)
        safe = passed(verdict) and (
            mode != CONSERVATIVE or _passes_every_other_observation(m, mon, b, z, action))
        checks.append(ActionCheck(action, b_next, verdict, successor, safe,
                                  expected_reward(b_next, action, m), changed))
    nominal = checks[a_nominal]
    if nominal.belief is None:
        r_n = expected_reward(Belief(predicted_belief(b, a_nominal, m)), a_nominal, m)
    else:
        r_n = nominal.reward
    return ShieldReference(r_n, tuple(checks))


def _reference_row(idx, column: str, width: int, dist, path: str) -> np.ndarray:
    """A non-empty map label -> probability as a row of `width`."""
    if not isinstance(dist, dict) or not dist:
        raise ConfigError("expected a non-empty probability map", path)
    row = np.zeros(width)
    for name, value in dist.items():
        where = f"{path}.{name}"
        row[idx.find(column, name, where)] = _number(value, where)
    return row


def reference_fill_rows(table: np.ndarray, entries, idx, key_from: str, key_value: str,
                        column: str | None, path: str, noun: str = "entry") -> np.ndarray:
    """`config._fill_rows` one entry at a time: each entry is checked
    and written in file order, and the first fault raised where it is
    met. The reference the bulk fill is held to, with its signature."""
    covered = np.zeros(table.shape[:2], dtype=bool)
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        _mapping(entry, (key_from, "action", key_value), here)
        q = idx.find("state", entry.get(key_from), f"{here}.{key_from}")
        where = f"{here}.{key_value}"
        if column is None:
            value = _number(entry.get(key_value), where)
        else:
            value = _reference_row(idx, column, table.shape[2], entry.get(key_value), where)
        for a in idx.actions_for(entry, here):
            if covered[q, a]:
                raise ConfigError(
                    f"duplicate {noun} for state {entry[key_from]!r}, "
                    f"joint action {a}", here)
            covered[q, a] = True
            table[q, a] = value
    return covered


def _reference_error(value, probs: np.ndarray, where: str) -> float:
    """The largest deviation of a recorded belief, decoded, from probs;
    0.0 for equal bytes."""
    recorded = recorded_belief(value, len(probs), where)
    if recorded == probs.tobytes():
        return 0.0
    return float(np.max(np.abs(np.frombuffer(recorded, "<f8") - probs)))


def reference_audit(cfg: ScenarioConfig, ep: EpisodeRecord) -> EpisodeAudit:
    """`audit.audit_episode` one step at a time, the reference the
    lockstep audit is held to: the header, then at each step its indices
    (checked_index), the belief replayed from the last one by
    belief_update and held to 1e-9 of the recorded one, and check_step's
    records compared with the recorded verdict; the oracle is the
    recursive one, on the word of the replayed beliefs."""
    m, mon = cfg.model, cfg.start_monitor
    _check_obligations(ep, mon)
    header = f"episode {ep.episode} header"
    max_err = _reference_error(ep.header.get("initial_belief", []), m.initial.probs, header)
    if not max_err <= 1e-9:
        raise TraceMismatch(ep.episode, 0, max_err)
    state = checked_index(ep.header.get("initial_state"), m.n_states, "initial state", header)
    belief = m.initial
    word = [Letter(state, belief.probs.tolist())]
    oids = [ob.oid for ob in mon.obligations]
    failed, mismatches = set(), []
    for row in ep.steps:
        step = row[COLUMN["step"]]
        where = f"episode {ep.episode} step {step}"
        action = checked_index(row[COLUMN["executed"]], m.n_joint_actions, "executed action",
                               where)
        obs = checked_index(row[COLUMN["observation"]], m.n_joint_observations, "observation",
                            where)
        state = checked_index(row[COLUMN["next_state"]], m.n_states, "next state", where)
        try:
            belief = belief_update(belief, action, obs, m)
        except ZeroLikelihood:
            raise TraceMismatch(ep.episode, step, float("inf")) from None
        err = _reference_error(row[COLUMN["belief"]], belief.probs, where)
        max_err = max(max_err, err)
        if not err <= 1e-9:
            raise TraceMismatch(ep.episode, step, err)
        records, mon = check_step(mon, barrier_values(mon, belief.probs))
        mismatches += _verdict_mismatches(row[COLUMN["verdict"]], records, oids, step, where)
        failed.update(oid for oid, (status, _, _) in zip(oids, records) if status == "fail")
        word.append(Letter(state, belief.probs.tolist()))
    phi = cfg.formula
    conjuncts = phi.children if isinstance(phi, And) else (phi,)
    return EpisodeAudit(
        episode=ep.episode,
        steps=len(ep.steps),
        end_reason=ep.end.get("reason", ""),
        max_belief_error=max_err,
        obligations=tuple(
            ObligationAudit(oid=ob.oid, label=ob.label, clean=ob.oid not in failed,
                            discharged=ob.oid not in mon.pending(),
                            oracle=oracle_satisfies(conjunct, tuple(word)))
            for ob, conjunct in zip(mon.obligations, conjuncts)),
        verdict_mismatches=tuple(mismatches),
    )
