"""Episode simulation: nominal policies, the shielded step loop, and
batch runs with per-episode RNG streams.

Per step the loop samples the nominal action's next state, samples the
observation there, and hands that observation to the shield. When the
shield overrides, the true next state is resampled under the executed
action while the belief advances with the executed action and the same
observation, so the recorded verdict is the one the executed belief
actually produced. The RNG draw order (nominal next state, observation,
then executed next state only on override) is fixed; identical seeds
reproduce identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import fmean

import numpy as np

from ._gc import paused_gc
from .errors import SafetyDeadlock, ZeroLikelihood
from .model import (
    Belief, Mpomdp, belief_update, expected_reward, sample_initial_state,
    sample_observation, sample_transition,
)
from .monitor import Monitor, Records, barrier_values, check_step, passed
from .shield import CONSERVATIVE, LITERAL, shield_step

SHIELD_OFF = "off"
SHIELD_MODES = (SHIELD_OFF, LITERAL, CONSERVATIVE)

END_HORIZON = "horizon"
END_DEADLOCK = "deadlock"
END_ZERO_LIKELIHOOD = "zero_likelihood"
END_VIOLATION_ABORT = "violation_abort"


@dataclass(frozen=True)
class FixedAction:
    """Always pick the same flat joint action."""

    action: int


@dataclass(frozen=True)
class GreedyReward:
    """Pick the action maximising expected immediate reward under the
    current belief; ties go to the lowest flat index."""


@dataclass(frozen=True)
class RandomUniform:
    """Pick a joint action uniformly at random."""


NominalPolicy = FixedAction | GreedyReward | RandomUniform


def select_action(policy: NominalPolicy, belief: Belief, m: Mpomdp,
                  rng: np.random.Generator) -> int:
    if isinstance(policy, FixedAction):
        return policy.action
    if isinstance(policy, GreedyReward):
        rewards = [expected_reward(belief, a, m) for a in range(m.n_joint_actions)]
        return int(np.argmax(rewards))
    if isinstance(policy, RandomUniform):
        return int(rng.integers(m.n_joint_actions))
    raise TypeError(f"unknown policy: {policy!r}")


@dataclass(frozen=True)
class Scenario:
    """Everything one episode needs: the model, a compiled monitor to
    start each episode from, the nominal policy, and run settings."""

    model: Mpomdp
    monitor: Monitor
    policy: NominalPolicy
    shield_mode: str = SHIELD_OFF
    horizon: int = 100
    abort_on_violation: bool = False

    def __post_init__(self) -> None:
        if self.shield_mode not in SHIELD_MODES:
            raise ValueError(f"unknown shield mode: {self.shield_mode!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


@dataclass(frozen=True)
class TraceStep:
    step: int
    prev_state: int
    nominal: int
    executed: int
    overridden: bool
    observation: int
    next_state: int
    belief: Belief
    verdict: Records
    realized_reward: float
    nominal_reward: float | None = None
    candidate_rewards: tuple[tuple[int, float], ...] = ()


@dataclass(frozen=True)
class Trace:
    episode: int
    initial_state: int
    initial_belief: Belief
    steps: tuple[TraceStep, ...]
    end_reason: str
    end_detail: dict = field(default_factory=dict)

    @property
    def violation_steps(self) -> list[TraceStep]:
        return [s for s in self.steps if not passed(s.verdict)]

    @property
    def override_count(self) -> int:
        return sum(1 for s in self.steps if s.overridden)


def run_episode(scenario: Scenario, rng: np.random.Generator,
                episode: int = 0) -> Trace:
    m = scenario.model
    belief, mon = m.initial, scenario.monitor
    state = sample_initial_state(m, rng)
    initial_state = state
    steps: list[TraceStep] = []
    end_reason = END_HORIZON
    end_detail: dict = {}

    for step in range(1, scenario.horizon + 1):
        a_nom = select_action(scenario.policy, belief, m, rng)
        q_nom = sample_transition(state, a_nom, m, rng)
        z = sample_observation(q_nom, a_nom, m, rng)

        if scenario.shield_mode == SHIELD_OFF:
            executed, overridden = a_nom, False
            nominal_reward: float | None = None
            candidate_rewards: tuple[tuple[int, float], ...] = ()
            try:
                b_next = belief_update(belief, a_nom, z, m)
            except ZeroLikelihood:
                end_reason = END_ZERO_LIKELIHOOD
                end_detail = {"action": a_nom, "observation": z}
                break
            verdict, mon = check_step(mon, barrier_values(mon, b_next.probs))
            next_state = q_nom
        else:
            try:
                decision = shield_step(m, mon, belief, z, a_nom, mode=scenario.shield_mode)
            except SafetyDeadlock as exc:
                end_reason = END_DEADLOCK
                end_detail = {"step": exc.step,
                              "candidate_barriers": exc.candidate_barriers}
                break
            executed = decision.executed
            overridden = decision.overridden
            nominal_reward = decision.nominal_reward
            candidate_rewards = decision.candidate_rewards
            b_next = decision.next_belief
            verdict = decision.verdict
            mon = decision.next_monitor
            next_state = (sample_transition(state, executed, m, rng)
                          if overridden else q_nom)

        steps.append(TraceStep(
            step=step,
            prev_state=state,
            nominal=a_nom,
            executed=executed,
            overridden=overridden,
            observation=z,
            next_state=next_state,
            belief=b_next,
            verdict=verdict,
            realized_reward=float(m.reward[state, executed]),
            nominal_reward=nominal_reward,
            candidate_rewards=candidate_rewards,
        ))
        state, belief = next_state, b_next

        if scenario.abort_on_violation and not passed(verdict):
            end_reason = END_VIOLATION_ABORT
            break

    return Trace(
        episode=episode,
        initial_state=initial_state,
        initial_belief=m.initial,
        steps=tuple(steps),
        end_reason=end_reason,
        end_detail=end_detail,
    )


@dataclass(frozen=True)
class BatchResult:
    """A batch's traces, and the (oid, kind, label) of each obligation of
    the monitor every episode starts from, in its order: the order of
    every step's verdict records, which a trace file lists once per
    episode."""

    base_seed: int
    traces: tuple[Trace, ...]
    obligations: tuple[tuple[str, str, str], ...]

    def episode_rows(self) -> list[dict]:
        """Per-episode summary rows, one dict per episode."""
        rows = []
        kinds = [kind for _, kind, _ in self.obligations]
        for t in self.traces:
            # Only reach obligations count: a next or bare conjunct is
            # discharged by its single check at step 1.
            reached = [s.step for s in t.steps
                       for kind, (status, _, _) in zip(kinds, s.verdict)
                       if status == "discharged" and kind in ("eventually", "until")]
            rows.append({
                "episode": t.episode,
                "steps": len(t.steps),
                "end_reason": t.end_reason,
                "violations": len(t.violation_steps),
                "overrides": t.override_count,
                "first_discharge_step": reached[0] if reached else "",
                "total_reward": round(sum(s.realized_reward for s in t.steps), 9),
            })
        return rows

    def aggregate(self) -> dict:
        rows = self.episode_rows()
        discharge = [r["first_discharge_step"] for r in rows
                     if r["first_discharge_step"] != ""]
        return {
            "episodes": len(rows),
            "total_steps": sum(r["steps"] for r in rows),
            "violation_steps": sum(r["violations"] for r in rows),
            "episodes_with_violation": sum(1 for r in rows if r["violations"]),
            "override_steps": sum(r["overrides"] for r in rows),
            "deadlocks": sum(1 for r in rows if r["end_reason"] == END_DEADLOCK),
            "mean_discharge_step": fmean(discharge) if discharge else None,
        }


def run_batch(scenario: Scenario, base_seed: int, episodes: int) -> BatchResult:
    """Run independent episodes with per-episode RNG streams spawned
    from the base seed, so any prefix of the batch is reproducible."""
    if episodes < 1:
        raise ValueError("episodes must be at least 1")
    children = np.random.SeedSequence(base_seed).spawn(episodes)
    with paused_gc():
        traces = tuple(
            run_episode(scenario, np.random.default_rng(children[i]), episode=i)
            for i in range(episodes)
        )
    return BatchResult(base_seed=base_seed, traces=traces,
                       obligations=tuple((ob.oid, ob.kind, ob.label)
                                         for ob in scenario.monitor.obligations))
