"""One-step greedy safety shield.

Given the nominal joint action, the shared observation z, and the
current belief, the shield accepts the nominal action when its belief
update passes the monitor. Otherwise it checks every other joint action
the same way, in flat-index order, and executes the safe one whose
expected immediate reward (over its own updated belief) deviates least,
in squared distance, from the nominal's reference reward. Ties resolve
to the lowest flat action index. A candidate whose update has zero
likelihood is unsafe, not an error; if no candidate passes, the shield
raises SafetyDeadlock rather than executing anything unsafe.

In "conservative" mode a candidate must additionally pass under every
observation of positive predicted probability, not just the shared one.

Every candidate, the nominal included, goes through one check built on
the filter's own two steps: predicted_belief once, then the correction
under z. In conservative mode, once z passes, the prediction is
corrected under every observation at once, as the (Z, n) product of
the action's observation block and the prediction, whose row sums are
the likelihoods; a posterior is divided out only for the observations
checked, up to the first that fails. Each product, sum and quotient is
correct's own, so beliefs, rewards and barrier values are those of
belief_update bit for bit, and the likelihood floor splits impossible
from failing observations as correct does. The shield evaluates only posteriors,
each once; a Belief, verdict and successor Monitor are built only for
the executed action. The tests check every decision against a
brute-force reference that updates the belief and evaluates both
beliefs' barriers one action at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SafetyDeadlock
from .model import LIKELIHOOD_FLOOR, Belief, Mpomdp, predicted_belief
from .monitor import (
    BarrierValues, Monitor, StepVerdict, barrier_values, check_step, step_passes,
)

LITERAL = "literal"
CONSERVATIVE = "conservative"


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


def _reward(belief: np.ndarray, action: int, m: Mpomdp) -> float:
    # expected_reward's arithmetic on a raw belief vector.
    return float(belief @ m.reward[:, action])


def _corrections(m: Mpomdp, predicted: np.ndarray, action: int
                 ) -> tuple[np.ndarray, list[float]]:
    """correct's numerator under every observation, as the rows of one
    (Z, n) product, and its normalizers, the rows' sums."""
    numer = m.observation[:, action, :].T * predicted
    return numer, numer.sum(axis=1).tolist()


def _passes_under(mon: Monitor, numer: np.ndarray, likelihood: list[float],
                  obs: int) -> bool:
    """Whether the step to the posterior under obs passes; an observation
    of zero likelihood is impossible and passes, one whose likelihood is
    positive but at most the floor does not."""
    if likelihood[obs] <= LIKELIHOOD_FLOOR:
        return likelihood[obs] == 0.0
    return step_passes(mon, barrier_values(mon, numer[obs] / likelihood[obs]))


def _check(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int, action: int,
           mode: str) -> tuple[np.ndarray, BarrierValues | None, bool]:
    """One candidate action, predicted once: (row, values, safe).

    row is the posterior under z, or the prediction when z is impossible
    after the action (values is then None); values are the barriers at
    the posterior; safe says whether the step passes under z and, in
    conservative mode, under every other observation.
    """
    predicted = predicted_belief(b_prev, action, m)
    # correct's arithmetic under z, the one row literal mode reads.
    numer = m.observation[:, action, z] * predicted
    likelihood = float(numer.sum())
    if likelihood <= LIKELIHOOD_FLOOR:
        return predicted, None, False
    posterior = numer / likelihood
    values = barrier_values(mon, posterior)
    safe = step_passes(mon, values)
    if safe and mode == CONSERVATIVE:
        rows, likelihoods = _corrections(m, predicted, action)
        safe = all(_passes_under(mon, rows, likelihoods, other)
                   for other in range(m.n_joint_observations) if other != z)
    return posterior, values, safe


def _barriers_after(mon: Monitor, values: BarrierValues | None) -> dict[str, float]:
    """Recorded barrier value of each obligation, for deadlock reports."""
    if values is None:
        return {}
    verdict, _ = check_step(mon, values)
    return {r.oid: r.barrier for r in verdict.records if r.barrier is not None}


def shield_step(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int,
                a_nominal: int, mode: str = LITERAL) -> ShieldDecision:
    """Accept the nominal action or substitute the safe alternative with
    the closest expected reward, where mon has reached b_prev. Raises
    SafetyDeadlock when nothing is safe."""
    if mode not in (LITERAL, CONSERVATIVE):
        raise ValueError(f"unknown shield mode: {mode!r}")

    nominal = _check(m, mon, b_prev, z, a_nominal, mode)
    row, values, nominal_safe = nominal
    # With z impossible after the nominal, row is its one-step
    # prediction, so the reference reward stays defined.
    r_n = _reward(row, a_nominal, m)
    if nominal_safe:
        best, candidates = a_nominal, [(a_nominal, r_n)]
    else:
        checks = {a: nominal if a == a_nominal else _check(m, mon, b_prev, z, a, mode)
                  for a in range(m.n_joint_actions)}
        candidates = [(a, _reward(row, a, m)) for a, (row, _, safe) in checks.items() if safe]
        if not candidates:
            raise SafetyDeadlock(mon.step_count + 1, {
                a: _barriers_after(mon, values) for a, (_, values, _) in checks.items()})
        # min keeps the first of equal deviations: the lowest flat index.
        best = min(candidates, key=lambda c: (c[1] - r_n) ** 2)[0]
        row, values, _ = checks[best]

    verdict, successor = check_step(mon, values)
    return ShieldDecision(
        executed=best,
        overridden=not nominal_safe,
        nominal_reward=r_n,
        candidate_rewards=tuple(candidates),
        verdict=verdict,
        next_belief=Belief(row),
        next_monitor=successor,
    )
