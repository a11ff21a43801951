"""One-step greedy safety shield.

Given the nominal joint action, the shared observation, and the current
belief, the shield accepts the nominal action when its belief update
passes the monitor. Otherwise it checks every joint action under the
same observation, keeps those whose updates pass, and executes the one
whose expected immediate reward (over its own updated belief) deviates
least, in squared distance, from the nominal's reference reward. Ties
resolve to the lowest flat action index. A candidate whose update has
zero likelihood is unsafe, not an error; if no candidate passes, the
shield raises SafetyDeadlock rather than executing anything unsafe.

In "conservative" mode a candidate must additionally pass under every
observation of positive predicted probability, not just the shared one.

The nominal action is checked first, on its own. Only when it fails are
the alternatives checked, in one batched pass: every predicted belief
and posterior comes from a few array operations that repeat the
filter's per-action arithmetic exactly (so beliefs, rewards and barrier
values are bit-identical to belief_update's), the barriers at the
current belief are evaluated once, and a Belief and a successor Monitor
are built only for the executed action. enumerate_safe_actions is the
one-candidate-at-a-time definition the batch must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SafetyDeadlock, ZeroLikelihood
from .model import (
    LIKELIHOOD_FLOOR, Belief, Mpomdp, belief_update, expected_reward,
    observation_likelihoods,
)
from .monitor import (
    BarrierValues, Monitor, StepVerdict, barrier_values, check_step, monitor_step,
    step_passes,
)

LITERAL = "literal"
CONSERVATIVE = "conservative"


@dataclass(frozen=True)
class SafeCandidate:
    action: int
    belief: Belief
    verdict: StepVerdict
    monitor: Monitor
    reward: float


@dataclass(frozen=True)
class ShieldDecision:
    """Outcome of one shield invocation.

    executed is the flat joint-action index; verdict/next_belief/
    next_monitor describe its update; candidate_rewards lists (flat
    index, reward) for the safe candidates considered (just the nominal
    when it passed outright).
    """

    executed: int
    overridden: bool
    nominal_reward: float
    candidate_rewards: tuple[tuple[int, float], ...]
    verdict: StepVerdict
    next_belief: Belief
    next_monitor: Monitor


def _try_candidate(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int,
                   action: int, mode: str) -> SafeCandidate | None:
    """The candidate's update and verdict, or None when unsafe."""
    try:
        b_next = belief_update(b_prev, action, z, m)
    except ZeroLikelihood:
        return None
    verdict, successor = monitor_step(mon, b_prev, b_next)
    if not verdict.passed:
        return None
    if mode == CONSERVATIVE:
        likelihoods = observation_likelihoods(b_prev, action, m)
        for other_z, weight in enumerate(likelihoods):
            if other_z == z or weight <= 0.0:
                continue
            try:
                b_other = belief_update(b_prev, action, other_z, m)
            except ZeroLikelihood:
                return None
            other_verdict, _ = monitor_step(mon, b_prev, b_other)
            if not other_verdict.passed:
                return None
    return SafeCandidate(
        action=action,
        belief=b_next,
        verdict=verdict,
        monitor=successor,
        reward=expected_reward(b_next, action, m),
    )


def enumerate_safe_actions(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int,
                           mode: str = LITERAL) -> list[SafeCandidate]:
    """All joint actions whose updates pass the monitor under z, in
    flat-index order. Exposed for diagnostics and audits; shield_step
    selects from exactly this set."""
    out = []
    for action in range(m.n_joint_actions):
        cand = _try_candidate(m, mon, b_prev, z, action, mode)
        if cand is not None:
            out.append(cand)
    return out


def _posteriors(m: Mpomdp, b_prev: Belief, observations: list[int]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted beliefs (A, n), posteriors (A, len(observations), n) and
    their normalizers (A, len(observations)) for every joint action.

    The prediction runs one matrix-vector product per action slice of
    the transition table, the very product predicted_belief computes, so
    the rows match it bit for bit (one product over the table reshaped
    to (n, A*n) differs in the last bits for some table shapes). The
    correction multiplies elementwise and sums each contiguous row as
    belief_update does. Rows whose normalizer is at most
    LIKELIHOOD_FLOOR are impossible and left unnormalized.
    """
    predicted = b_prev.probs @ m.transition.transpose(1, 0, 2)
    numer = np.multiply(predicted[:, None, :],
                        m.observation[:, :, observations].transpose(1, 2, 0), order="C")
    denom = numer.sum(axis=-1)
    posterior = numer / np.where(denom > LIKELIHOOD_FLOOR, denom, 1.0)[..., None]
    return predicted, posterior, denom


def _reward(belief: np.ndarray, action: int, m: Mpomdp) -> float:
    # expected_reward's arithmetic on a raw posterior row.
    return float(belief @ m.reward[:, action])


def _barriers_after(mon: Monitor, prev: BarrierValues, belief: np.ndarray
                    ) -> dict[str, float]:
    """Recorded barrier value of each obligation, for deadlock reports."""
    verdict, _ = check_step(mon, prev, barrier_values(mon, belief.tolist()))
    return {r.oid: r.barrier for r in verdict.records if r.barrier is not None}


def shield_step(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int,
                a_nominal: int, mode: str = LITERAL) -> ShieldDecision:
    """Accept the nominal action or substitute the safe alternative with
    the closest expected reward. Raises SafetyDeadlock when nothing is
    safe."""
    if mode not in (LITERAL, CONSERVATIVE):
        raise ValueError(f"unknown shield mode: {mode!r}")

    nominal = _try_candidate(m, mon, b_prev, z, a_nominal, mode)
    if nominal is not None:
        return ShieldDecision(
            executed=a_nominal,
            overridden=False,
            nominal_reward=nominal.reward,
            candidate_rewards=((a_nominal, nominal.reward),),
            verdict=nominal.verdict,
            next_belief=nominal.belief,
            next_monitor=nominal.monitor,
        )

    observations = [z] if mode == LITERAL else list(range(m.n_joint_observations))
    k = observations.index(z)
    predicted, posterior, denom = _posteriors(m, b_prev, observations)
    possible = denom > LIKELIHOOD_FLOOR
    prev = barrier_values(mon, b_prev.probs.tolist())

    def safe(action: int) -> bool:
        # Under z and, in conservative mode, every other observation of
        # positive predicted probability, i.e. of positive normalizer.
        return all(
            possible[action, j] and step_passes(mon, prev, posterior[action, j].tolist())
            for j in range(len(observations)) if j == k or denom[action, j] > 0.0)

    if possible[a_nominal, k]:
        r_n = _reward(posterior[a_nominal, k], a_nominal, m)
    else:
        # Nominal update impossible under z: fall back to the one-step
        # prediction so the reference reward stays defined.
        r_n = _reward(predicted[a_nominal], a_nominal, m)

    # The nominal already failed the same checks one at a time.
    candidates = [(a, _reward(posterior[a, k], a, m))
                  for a in range(m.n_joint_actions) if a != a_nominal and safe(a)]
    if not candidates:
        raise SafetyDeadlock(mon.step_count + 1, {
            a: _barriers_after(mon, prev, posterior[a, k]) if possible[a, k] else {}
            for a in range(m.n_joint_actions)})

    best, best_reward = candidates[0]
    best_dev = (best_reward - r_n) ** 2
    for action, reward in candidates[1:]:
        dev = (reward - r_n) ** 2
        if dev < best_dev:  # ties keep the earlier (lower) flat index
            best, best_dev = action, dev

    row = posterior[best, k]
    verdict, successor = check_step(mon, prev, barrier_values(mon, row.tolist()))
    return ShieldDecision(
        executed=best,
        overridden=True,
        nominal_reward=r_n,
        candidate_rewards=tuple(candidates),
        verdict=verdict,
        next_belief=Belief(row),
        next_monitor=successor,
    )
