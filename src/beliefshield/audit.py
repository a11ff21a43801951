"""Trace audit: replay a recorded run through the exact filter and the
monitor, and evaluate the formula's finite-trace semantics on the
replayed word.

The replay recomputes every belief from the recorded actions and
observations; any deviation beyond 1e-9 from the recorded beliefs
raises TraceMismatch. Monitor verdicts are recomputed the same way and
compared record by record: oid, kind, status and detail exactly, the
barrier value within 1e-9, and the step's passed flag. The finite-trace
verdict per top-level conjunct is reported alongside; the monitor checks
sufficient barrier conditions on beliefs, so its verdicts need not
coincide with the hidden-state semantics and a disagreement is
informational, not an audit failure.

One pass evaluates each replayed belief once, with the simulator's
arithmetic step for step. The oracle takes each letter's belief entries
once and applies each belief atom's compiled evaluator, which is
bit-identical to the tests' tree-walking reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, checked_index
from .errors import ConfigError, TraceMismatch, ZeroLikelihood
from .ldtl import Letter, oracle_satisfies
from .model import Belief, belief_update
from .monitor import (
    Monitor, ObligationRecord, StepVerdict, barrier_values, check_step, conjuncts,
)
from .traceio import EpisodeRecord

BELIEF_TOL = 1e-9


@dataclass(frozen=True)
class StepContext:
    """One recorded step and what its replay reached."""

    record: dict
    belief_after: Belief
    verdict: StepVerdict
    monitor_after: Monitor


@dataclass(frozen=True)
class ObligationAudit:
    oid: str
    label: str
    clean: bool        # no fail record at any step
    discharged: bool   # nothing left pending at the end
    oracle: bool       # finite-trace verdict of the conjunct on the word


@dataclass(frozen=True)
class EpisodeAudit:
    episode: int
    steps: int
    end_reason: str
    max_belief_error: float
    obligations: tuple[ObligationAudit, ...]
    verdict_mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.verdict_mismatches


@dataclass(frozen=True)
class AuditReport:
    episodes: tuple[EpisodeAudit, ...]

    @property
    def ok(self) -> bool:
        return all(ep.ok for ep in self.episodes)


def _recorded_belief(value, n_states: int, where: str) -> np.ndarray:
    try:
        recorded = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"belief is not a list of numbers: {exc}", where) from exc
    if recorded.shape != (n_states,):
        raise ConfigError(
            f"belief has {recorded.size} entries, model has {n_states} states", where)
    return recorded


def replay_episode(cfg: ScenarioConfig, ep: EpisodeRecord) -> tuple[list[StepContext], float]:
    """Recompute the episode's beliefs and verdicts from its recorded
    actions and observations. Raises TraceMismatch when a replayed
    belief deviates from the recorded one by more than 1e-9, or by a
    non-finite amount (a NaN or null entry)."""
    m = cfg.model
    recorded0 = _recorded_belief(ep.header.get("initial_belief", []), m.n_states,
                                 f"episode {ep.episode} header")
    max_err = float(np.max(np.abs(recorded0 - m.initial.probs)))
    # Negated, so that a NaN deviation fails too.
    if not max_err <= BELIEF_TOL:
        raise TraceMismatch(ep.episode, 0, max_err)

    belief, mon = m.initial, cfg.start_monitor
    contexts: list[StepContext] = []
    for rec in ep.steps:
        step = rec["step"]
        where = f"episode {ep.episode} step {step}"
        action = checked_index(rec.get("executed"), m.n_joint_actions,
                               "executed action", where)
        obs = checked_index(rec.get("observation"), m.n_joint_observations,
                            "observation", where)
        checked_index(rec.get("next_state"), m.n_states, "next state", where)
        try:
            b_next = belief_update(belief, action, obs, m)
        except ZeroLikelihood as exc:
            raise TraceMismatch(ep.episode, step, float("inf")) from exc
        recorded = _recorded_belief(rec.get("belief", []), m.n_states, where)
        err = float(np.max(np.abs(recorded - b_next.probs)))
        max_err = max(max_err, err)
        if not err <= BELIEF_TOL:
            raise TraceMismatch(ep.episode, step, err)
        verdict, mon = check_step(mon, barrier_values(mon, b_next.probs.tolist()))
        contexts.append(StepContext(rec, b_next, verdict, mon))
        belief = b_next
    return contexts, max_err


def _same_record(recorded: dict, replayed: ObligationRecord) -> bool:
    barrier = recorded.get("barrier")
    if barrier is None or replayed.barrier is None:
        same_barrier = barrier is None and replayed.barrier is None
    else:
        same_barrier = (isinstance(barrier, float)
                        and abs(barrier - replayed.barrier) <= BELIEF_TOL)
    return (same_barrier and recorded.get("kind") == replayed.kind
            and recorded.get("status") == replayed.status
            and recorded.get("detail") == replayed.detail)


def _verdict_mismatches(episode: int, contexts: list[StepContext]) -> tuple[str, ...]:
    out = []
    for ctx in contexts:
        step = ctx.record["step"]
        where = f"episode {episode} step {step}"
        try:
            recorded = {r["oid"]: r for r in ctx.record["verdict"]["records"]}
            replayed = {r.oid: r for r in ctx.verdict.records}
            diff = [oid for oid in sorted(recorded.keys() | replayed.keys())
                    if oid not in recorded or oid not in replayed
                    or not _same_record(recorded[oid], replayed[oid])]
            passed = ctx.record["verdict"]["passed"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed verdict: {type(exc).__name__} {exc}", where) from exc
        if not isinstance(passed, bool):
            raise ConfigError(f"malformed verdict: passed is {passed!r}, not a boolean", where)
        if diff:
            out.append(f"step {step}: recorded and replayed verdicts differ on {diff}")
        if passed != ctx.verdict.passed:
            out.append(f"step {step}: recorded passed flag {passed}, "
                       f"replayed {ctx.verdict.passed}")
    return tuple(out)


def audit_episode(cfg: ScenarioConfig, ep: EpisodeRecord) -> tuple[EpisodeAudit, list[StepContext]]:
    m = cfg.model
    contexts, max_err = replay_episode(cfg, ep)
    initial_state = checked_index(ep.header.get("initial_state"), m.n_states,
                                  "initial state", f"episode {ep.episode} header")
    word = [Letter(initial_state, m.initial)]
    word.extend(Letter(ctx.record["next_state"], ctx.belief_after) for ctx in contexts)

    final_mon = contexts[-1].monitor_after if contexts else cfg.start_monitor
    failed_oids = {r.oid for ctx in contexts for r in ctx.verdict.records
                   if r.status == "fail"}
    pending = set(final_mon.pending())

    obligations = []
    for ob, conjunct in zip(final_mon.obligations, conjuncts(cfg.formula)):
        obligations.append(ObligationAudit(
            oid=ob.oid,
            label=ob.label,
            clean=ob.oid not in failed_oids,
            discharged=ob.oid not in pending,
            oracle=oracle_satisfies(conjunct, tuple(word)),
        ))

    audit = EpisodeAudit(
        episode=ep.episode,
        steps=len(contexts),
        end_reason=ep.end.get("reason", ""),
        max_belief_error=max_err,
        obligations=tuple(obligations),
        verdict_mismatches=_verdict_mismatches(ep.episode, contexts),
    )
    return audit, contexts


def audit_traces(cfg: ScenarioConfig, episodes: list[EpisodeRecord]) -> AuditReport:
    return AuditReport(tuple(audit_episode(cfg, ep)[0] for ep in episodes))
