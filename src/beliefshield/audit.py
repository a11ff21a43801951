"""Trace audit: replay a recorded run through the exact filter and the
monitor, and evaluate the formula's finite-trace semantics on the
replayed word.

`audit_episode` first checks that the obligations the episode lists
are the monitor's, in its order, then makes one pass over the
episode's step rows (`traceio.STEP_COLUMNS`) in file order. Each step's
indices are checked, its belief is recomputed from the recorded action
and observation and compared, the monitor steps on the replayed belief,
and its verdict is compared with the recorded one; the first fault in
file order is the one raised. Versions 1 and 2 list no obligations in
the header; there the first step's records' oids and kinds stand for
them (see `traceio.EpisodeRecord`), and their labels are not checked.

A version 2 or 3 belief whose string is the replayed belief's encoding
(`traceio.encode_belief`) has error 0.0 and is never decoded; any other
is decoded by its episode's trace version (`traceio.recorded_belief`),
which rejects a malformed one. A recorded belief whose bytes equal the
replayed belief's has error 0.0; otherwise the error is the largest
entry-wise deviation, and one beyond 1e-9, or not finite, raises
TraceMismatch.

Verdict records are compared in order, position by position, as the
writer lists them in the monitor's obligation order, so a file whose
records are reordered does not audit. Each is [status, barrier,
detail]: the status must be equal and the barrier value within 1e-9.
A detail is compared by what it says, not by how it prints: its text
outside number tokens must be equal, integer tokens must be equal, and
other numbers, printed with `%.6g`, must agree within one unit in their
sixth significant digit. A barrier a last bit away from the recorded one
can print one digit apart, as in a trace written by another numpy
release or by a filter that added in another order.

The finite-trace verdict per top-level conjunct is reported alongside;
the monitor checks sufficient barrier conditions on beliefs, so its
verdicts need not coincide with the hidden-state semantics and a
disagreement is informational, not an audit failure. The oracle takes
each letter's belief entries once and applies each belief atom's
compiled evaluator, which is bit-identical to the tests' tree-walking
reference.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._gc import paused_gc
from .config import ScenarioConfig, checked_index
from .errors import ConfigError, TraceMismatch, ZeroLikelihood
from .ldtl import Letter, oracle_satisfies
from .model import belief_update
from .monitor import (
    Monitor, ObligationRecord, StepVerdict, barrier_values, check_step, conjuncts,
)
from .traceio import EpisodeRecord, encode_belief, recorded_belief

BELIEF_TOL = 1e-9

# A number as `%.6g` or `str` of an int prints it.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


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


def _belief_error(value, ep: EpisodeRecord, probs: np.ndarray, where: str) -> float:
    """Largest deviation of a belief recorded in ep from a replayed one;
    NaN when a recorded entry is NaN. A version 2 or 3 string equal to the
    replayed belief's encoding skips the decode, and equal bytes skip the
    arithmetic: one or the other is every step of an untampered trace. A
    malformed string never equals an encoding, so it is always decoded
    and refused."""
    if ep.version >= 2 and value == encode_belief(probs):
        return 0.0
    recorded = recorded_belief(value, ep.version, len(probs), where)
    if recorded == probs.tobytes():
        return 0.0
    return float(np.max(np.abs(np.frombuffer(recorded, "<f8") - probs)))


def _same_detail(recorded, replayed: str) -> bool:
    """Whether a recorded detail says what the replayed one says: equal
    text outside number tokens, equal integers, and other numbers within
    1e-9 + 1e-5 * max(|x|, |y|)."""
    if recorded == replayed:
        return True
    if not isinstance(recorded, str):
        return False
    got, want = _NUMBER.split(recorded), _NUMBER.split(replayed)
    if len(got) != len(want) or got[::2] != want[::2]:
        return False
    for x, y in zip(got[1::2], want[1::2]):
        if not any(c in x or c in y for c in ".eE"):
            if int(x) != int(y):
                return False
        elif not abs(float(x) - float(y)) <= 1e-9 + 1e-5 * max(abs(float(x)), abs(float(y))):
            return False
    return True


def _same_record(recorded, replayed: ObligationRecord, where: str) -> bool:
    """Whether a recorded [status, barrier, detail] agrees with a replayed
    record. Raises ConfigError at `where` for an entry of another shape."""
    if type(recorded) is not list or len(recorded) != 3:
        raise ConfigError(f"malformed verdict: record {recorded!r} is not "
                          "[status, barrier, detail]", where)
    status, barrier, detail = recorded
    if barrier is None or replayed.barrier is None:
        same_barrier = barrier is None and replayed.barrier is None
    else:
        same_barrier = (type(barrier) is float
                        and abs(barrier - replayed.barrier) <= BELIEF_TOL)
    return (same_barrier and status == replayed.status
            and _same_detail(detail, replayed.detail))


def _verdict_mismatches(recorded, verdict: StepVerdict, step: int, where: str) -> list[str]:
    """How a step's recorded verdict differs from the replayed one,
    record by record in order. Raises ConfigError at `where` unless it
    is a list of one well-formed record per obligation."""
    replayed = verdict.records
    if type(recorded) is not list or len(recorded) != len(replayed):
        raise ConfigError(f"malformed verdict: expected a list of {len(replayed)} records, "
                          f"got {recorded!r}", where)
    diff = [r.oid for got, r in zip(recorded, replayed) if not _same_record(got, r, where)]
    if diff:
        return [f"step {step}: recorded and replayed verdicts differ on {diff}"]
    return []


def _check_obligations(ep: EpisodeRecord, mon: Monitor) -> None:
    """Raises ConfigError at the episode's header when the obligations
    its verdicts are listed by are not the monitor's."""
    listed = ep.obligations
    if ep.version < 3:
        if listed is None:
            return
        expected = [[ob.oid, ob.kind] for ob in mon.obligations]
    else:
        expected = [[ob.oid, ob.kind, ob.label] for ob in mon.obligations]
    if listed != expected:
        raise ConfigError(f"obligations {listed!r} are not the monitor's {expected!r}",
                          f"episode {ep.episode} header")


def audit_episode(cfg: ScenarioConfig, ep: EpisodeRecord) -> EpisodeAudit:
    """Replay one episode in a single pass over its steps. Raises
    TraceMismatch when a replayed belief deviates from the recorded one
    by more than 1e-9, or by a non-finite amount (a NaN or null entry),
    and ConfigError for a malformed line; the first fault in file order
    is the one raised."""
    m = cfg.model
    _check_obligations(ep, cfg.start_monitor)
    where = f"episode {ep.episode} header"
    max_err = _belief_error(ep.header.get("initial_belief", []), ep, m.initial.probs, where)
    # Negated, so that a NaN deviation fails too.
    if not max_err <= BELIEF_TOL:
        raise TraceMismatch(ep.episode, 0, max_err)
    initial_state = checked_index(ep.header.get("initial_state"), m.n_states,
                                  "initial state", where)

    belief, mon = m.initial, cfg.start_monitor
    word = [Letter(initial_state, belief)]
    failed: set[str] = set()
    mismatches: list[str] = []
    for row in ep.steps:
        step, _, _, executed, _, observation, next_state, recorded, records, _, _, _ = row
        where = f"episode {ep.episode} step {step}"
        action = checked_index(executed, m.n_joint_actions, "executed action", where)
        obs = checked_index(observation, m.n_joint_observations, "observation", where)
        state = checked_index(next_state, m.n_states, "next state", where)
        try:
            belief = belief_update(belief, action, obs, m)
        except ZeroLikelihood as exc:
            raise TraceMismatch(ep.episode, step, float("inf")) from exc
        err = _belief_error(recorded, ep, belief.probs, where)
        max_err = max(max_err, err)
        if not err <= BELIEF_TOL:
            raise TraceMismatch(ep.episode, step, err)
        verdict, mon = check_step(mon, barrier_values(mon, belief.probs))
        mismatches.extend(_verdict_mismatches(records, verdict, step, where))
        failed.update(r.oid for r in verdict.records if r.status == "fail")
        word.append(Letter(state, belief))

    pending = set(mon.pending())
    letters = tuple(word)
    return EpisodeAudit(
        episode=ep.episode,
        steps=len(ep.steps),
        end_reason=ep.end.get("reason", ""),
        max_belief_error=max_err,
        obligations=tuple(
            ObligationAudit(oid=ob.oid, label=ob.label, clean=ob.oid not in failed,
                            discharged=ob.oid not in pending,
                            oracle=oracle_satisfies(conjunct, letters))
            for ob, conjunct in zip(mon.obligations, conjuncts(cfg.formula))),
        verdict_mismatches=tuple(mismatches),
    )


def audit_traces(cfg: ScenarioConfig, episodes: list[EpisodeRecord]) -> AuditReport:
    """Audit each episode in turn, with automatic cyclic collection paused
    (see `_gc.paused_gc`): the replay builds beliefs, monitor states and
    letters at every step and frees them by reference counting."""
    with paused_gc():
        return AuditReport(tuple(audit_episode(cfg, ep) for ep in episodes))
