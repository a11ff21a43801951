"""One-step greedy safety shield.

Given the nominal joint action, the shared observation z, and the
current belief, the shield accepts the nominal action when its belief
update passes the monitor. Otherwise it interferes as little as it can,
choosing lexicographically:

1. the fewest agents whose action component differs from the nominal's;
2. the least |r - r_n|, where r is a candidate's expected immediate
   reward over its own updated belief and r_n the nominal's reference
   reward; every candidate within REWARD_TIE (in reward units) of the
   least deviation at its level counts as tied;
3. the lowest flat action index.

Candidates are checked level by level, one agent changed, then two, and
so on, in flat-index order within a level, and the search stops after
the first level with a safe candidate. No candidate of a later level
can beat it under the rule, so stopping there is exact. Measuring ties
against the level's least deviation, not pairwise, keeps "tied"
transitive; and since candidates that no agent's reward separates tie
mathematically, the band keeps the last bits of a reward sum from
picking among them. A candidate whose update has zero likelihood is
unsafe, not an error; if no action at any level passes, the shield
raises SafetyDeadlock rather than executing anything unsafe.

In "conservative" mode a candidate must additionally pass under every
observation of positive predicted probability, not just the shared one.

Every candidate, the nominal included, goes through one check built on
the filter's own two steps: predicted_belief once, then correct under
z. The step to that posterior is walked once, by the monitor's
walk_step, which returns the step's records and the changes its rules
make; the candidate passes under z when no record fails. In
conservative mode, once z passes, the same prediction goes through
correct under each other observation in turn, and each posterior's
step is walked the same way, up to the first that fails. An
observation correct refuses with ZeroLikelihood passes when its
likelihood is exactly zero (it cannot happen) and fails when it is
positive but at most the floor. The shield evaluates only posteriors,
each once, and walks each posterior once, a deadlock included: the
executed action's records are its own walk's under z, a deadlock
report lists the barriers each action's walk under z recorded, and the
executed action's Belief and successor Monitor are the only ones
built. The tests check every decision against a brute-force reference
that updates the belief and evaluates both beliefs' barriers one
action at a time, for every action.

The decision is a ShieldDecision, an immutable NamedTuple that the
simulator unpacks by position in one statement; `decision._replace(...)`
gives an edited copy, and it equals a plain tuple of the same items.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import SafetyDeadlock, ZeroLikelihood
from .model import Belief, Mpomdp, correct, joint_labels, predicted_belief
from .monitor import (
    BarrierValues, Changes, Monitor, Records, barrier_values, passed, successor, walk_step,
)

LITERAL = "literal"
CONSERVATIVE = "conservative"

# Reward deviations within this distance of a level's least count as tied.
REWARD_TIE = 1e-9


class ShieldDecision(NamedTuple):
    """Outcome of one shield invocation.

    executed is the flat joint-action index; verdict (check_step's
    records), next_belief and next_monitor describe its update;
    candidate_rewards lists (flat index, reward) for the safe candidates
    of the deciding level, in flat order (just the nominal when it
    passed outright).
    """

    executed: int
    overridden: bool
    nominal_reward: float
    candidate_rewards: tuple[tuple[int, float], ...]
    verdict: Records
    next_belief: Belief
    next_monitor: Monitor


def _reward(belief: np.ndarray, action: int, m: Mpomdp) -> float:
    # expected_reward's arithmetic on a raw belief vector.
    return float(np.add.reduce(belief * m.reward_rows[action]))


def _passes_elsewhere(m: Mpomdp, mon: Monitor, predicted: np.ndarray, action: int,
                      z: int) -> bool:
    """Whether the step from predicted, the prediction after action,
    passes under every observation but z, checked in observation order
    up to the first that fails. An observation of zero likelihood is
    impossible and passes, one whose likelihood is positive but at most
    the floor does not."""
    for obs in range(m.n_joint_observations):
        if obs == z:
            continue
        try:
            posterior = correct(predicted, action, obs, m)
        except ZeroLikelihood as exc:
            if exc.denominator == 0.0:
                continue
            return False
        if not passed(walk_step(mon, barrier_values(mon, posterior))[0]):
            return False
    return True


def _check(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int, action: int, mode: str
           ) -> tuple[np.ndarray, BarrierValues | None, Records | None, Changes | None, bool]:
    """One candidate action, predicted once: (row, values, records,
    changes, safe).

    row is the posterior under z, or the prediction when z is impossible
    after the action (values, records and changes are then None);
    values are the barriers at the posterior, and records and changes
    walk_step's for the step under z. safe says whether that step passes
    and, in conservative mode, the step under every other observation
    passes too.
    """
    predicted = predicted_belief(b_prev, action, m)
    try:
        posterior = correct(predicted, action, z, m)
    except ZeroLikelihood:
        return predicted, None, None, None, False
    values = barrier_values(mon, posterior)
    records, changes = walk_step(mon, values)
    safe = passed(records) and (mode != CONSERVATIVE
                                or _passes_elsewhere(m, mon, predicted, action, z))
    return posterior, values, records, changes, safe


@cache
def _levels(action_names: tuple[tuple[str, ...], ...],
            nominal: int) -> tuple[tuple[int, ...], ...]:
    """The joint actions other than nominal, grouped by the number of
    agents whose action name differs from nominal's, fewest first, in
    flat order within each level; levels with no action are left out."""
    labels = joint_labels(action_names)
    target = labels[nominal]
    levels: list[list[int]] = [[] for _ in action_names]
    for a, label in enumerate(labels):
        changed = sum(x != y for x, y in zip(label, target))
        if changed:
            levels[changed - 1].append(a)
    return tuple(tuple(level) for level in levels if level)


def shield_step(m: Mpomdp, mon: Monitor, b_prev: Belief, z: int,
                a_nominal: int, mode: str = LITERAL) -> ShieldDecision:
    """Accept the nominal action or substitute the safe alternative that
    changes the fewest agents' actions and, among those, has the closest
    expected reward, where mon has reached b_prev. Raises SafetyDeadlock
    when nothing is safe."""
    if mode not in (LITERAL, CONSERVATIVE):
        raise ValueError(f"unknown shield mode: {mode!r}")

    nominal = _check(m, mon, b_prev, z, a_nominal, mode)
    row, values, records, changes, safe = nominal
    # With z impossible after the nominal, row is its one-step
    # prediction, so the reference reward stays defined.
    r_n = _reward(row, a_nominal, m)
    overridden = not safe
    if not overridden:
        best, candidates = a_nominal, [(a_nominal, r_n)]
    else:
        checks = {a_nominal: nominal}
        for level in _levels(m.action_names, a_nominal):
            for a in level:
                checks[a] = _check(m, mon, b_prev, z, a, mode)
            candidates = [(a, _reward(checks[a][0], a, m)) for a in level if checks[a][4]]
            if candidates:
                break
        else:
            # Each action's barriers as its walk under z recorded them;
            # none where z is impossible after it.
            raise SafetyDeadlock(mon.step_count + 1, {
                a: {ob.oid: barrier
                    for ob, (_, barrier, _) in zip(mon.obligations, checks[a][2] or ())
                    if barrier is not None}
                for a in range(m.n_joint_actions)})
        # Candidates are in flat order, so the first within the tie band
        # of the least deviation has the lowest index.
        least = min(abs(r - r_n) for _, r in candidates)
        best = next(a for a, r in candidates if abs(r - r_n) <= least + REWARD_TIE)
        row, values, records, changes, _ = checks[best]

    return ShieldDecision(best, overridden, r_n, tuple(candidates), records,
                          Belief.owning(row), successor(mon, changes, values))
