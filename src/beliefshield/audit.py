"""Trace audit: replay a recorded run through the exact filter and the
monitor, and evaluate the formula's finite-trace semantics on the
replayed word.

`audit_episode` first checks that the obligations the episode lists
are the monitor's, in its order, then makes two passes over the
episode's step rows (`traceio.STEP_COLUMNS`) in file order. Versions 1
and 2 list no obligations in the header; there the first step's
records' oids and kinds stand for them (see `traceio.EpisodeRecord`),
and their labels are not checked.

Pass 1 replays the belief chain in two parts. The stacked check
(`_exact_prefix`) first reads the rows up to the first whose indices
are out of range or whose belief its version's decoding
(`traceio.recorded_belief`) refuses, and replays each of their steps
from the recorded belief before it, all at once. Where every step up to
t replays its recorded belief bit for bit, the sequential replay from
the initial belief gives those beliefs too, by induction, so those
steps are verified with error 0.0. From the first step whose replay
differs in any bit, or whose observation the filter would refuse, the
sequential replay runs as it always has: each step's indices are
checked, its belief is recomputed from the last one with `belief_update`
and compared with the recorded one, and the pass stops at the first
fault, and holds it. An untampered trace is verified whole, and
`belief_update` is never called. Pass 2 checks the steps before that
fault in one stacked pass, `monitor.check_steps` on the (T, n) stack of
the beliefs pass 1 replayed, whose records are check_step's step after
step, bit for bit. It then compares each step's records with the
recorded verdict, which raises for a malformed one. Only then is pass
1's fault raised. Within a step the checks
run in the order index, belief, verdict, and pass 2 covers every step
before the first index or belief fault, so the first fault in file
order is the one raised, as in a single pass.

The header's initial belief, held to the model's, and each belief of
the sequential replay are compared one at a time: a version 2 or 3
string that is the replayed belief's encoding (`traceio.encode_belief`)
has error 0.0 and is not decoded; any other is decoded by its episode's
trace version, which rejects a malformed one. A recorded belief whose
bytes equal the replayed belief's has error 0.0; otherwise the error is
the largest entry-wise deviation, and one beyond 1e-9, or not finite,
raises TraceMismatch.

Verdict records are compared in order, position by position, as the
writer lists them in the monitor's obligation order, so a file whose
records are reordered does not audit. Each is [status, barrier,
detail]: the status must be equal and the barrier value within 1e-9.
The monitor's records are in the recorded form, so a recorded verdict
equal to them under `==` is accepted by that one comparison, as every
step of an untampered trace is, provided every recorded barrier is a
float or null: an int or a boolean can equal the replayed float, but a
barrier must be a float, so such a verdict goes to the record-by-record
comparison, which reports it.
A detail is compared by what it says, not by how it prints: its text
outside number tokens must be equal, integer tokens must be equal, and
other numbers, printed with `%.6g`, must agree within one unit in their
sixth significant digit. A barrier a last bit away from the recorded one
can print one digit apart, as in a trace written by another numpy
release or by a filter that added in another order.

The finite-trace verdict per top-level conjunct is reported alongside;
the monitor checks sufficient barrier conditions on beliefs, so its
verdicts need not coincide with the hidden-state semantics and a
disagreement is informational, not an audit failure. The word is the
episode's hidden states, the initial one first, and the stack of the
beliefs held, the initial belief first. `oracle_satisfies` evaluates each
conjunct over all the word's positions at once (`ldtl.oracle_columns`),
equal at every position to the recursive `ldtl.oracle_satisfies`, which
stays as the tests' reference, and reports its first.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ._gc import paused_gc
from .config import ScenarioConfig, checked_index
from .errors import ConfigError, TraceMismatch, ZeroLikelihood
from .ldtl import And, Formula, oracle_columns
from .model import LIKELIHOOD_FLOOR, Belief, Mpomdp, belief_update, belief_updates
from .monitor import Monitor, Records, check_steps
from .traceio import STEP_COLUMNS, EpisodeRecord, encode_belief, recorded_belief

BELIEF_TOL = 1e-9

_VERDICT = STEP_COLUMNS.index("verdict")
# What a recorded barrier may be for the replayed verdict to be accepted
# by equality: _same_record holds any other type to differ.
_BARRIER_TYPES = (float, type(None))

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


def _where(ep: EpisodeRecord, step: int | None) -> str:
    """Where a fault at a step of ep, or at its header (None), is reported."""
    return f"episode {ep.episode} " + ("header" if step is None else f"step {step}")


def _belief_error(value, ep: EpisodeRecord, probs: np.ndarray, step: int | None) -> float:
    """Largest deviation of a belief recorded in ep from a replayed one;
    NaN when a recorded entry is NaN. step is the belief's step, None for
    the header's initial belief. A version 2 or 3 string equal to the
    replayed belief's encoding skips the decode, and equal bytes skip the
    arithmetic. A malformed string never equals an encoding, so it is
    always decoded and refused."""
    if ep.version >= 2 and value == encode_belief(probs):
        return 0.0
    recorded = recorded_belief(value, ep.version, len(probs), _where(ep, step))
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


def _same_record(recorded, replayed: list, where: str) -> bool:
    """Whether a recorded [status, barrier, detail] agrees with a replayed
    one. Raises ConfigError at `where` for an entry of another shape."""
    if type(recorded) is not list or len(recorded) != 3:
        raise ConfigError(f"malformed verdict: record {recorded!r} is not "
                          "[status, barrier, detail]", where)
    status, barrier, detail = recorded
    want_status, want_barrier, want_detail = replayed
    if barrier is None or want_barrier is None:
        same_barrier = barrier is None and want_barrier is None
    else:
        same_barrier = (type(barrier) is float
                        and abs(barrier - want_barrier) <= BELIEF_TOL)
    return (same_barrier and status == want_status
            and _same_detail(detail, want_detail))


def _verdict_mismatches(recorded, replayed: Records, oids: list[str], step: int,
                        where: str) -> list[str]:
    """How a step's recorded verdict differs from the replayed records,
    record by record in order; oids names the obligation at each
    position. Raises ConfigError at `where` unless it is a list of one
    well-formed record per obligation."""
    if type(recorded) is not list or len(recorded) != len(replayed):
        raise ConfigError(f"malformed verdict: expected a list of {len(replayed)} records, "
                          f"got {recorded!r}", where)
    diff = [oid for oid, got, want in zip(oids, recorded, replayed)
            if not _same_record(got, want, where)]
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
                          _where(ep, None))


def _plain_barriers(recorded: list) -> bool:
    """Whether every barrier of a recorded verdict, already equal to the
    replayed one, is a float or null, as _same_record requires of it."""
    for record in recorded:
        if type(record[1]) not in _BARRIER_TYPES:
            return False
    return True


def _exact_prefix(ep: EpisodeRecord, m: Mpomdp) -> tuple[np.ndarray, list[int]]:
    """The initial belief and the recorded beliefs of the longest prefix
    of ep's steps that the sequential replay gives bit for bit, as a
    (k + 1, n) stack, and the next states of those steps.

    The rows are read up to the first whose indices are out of range or
    whose belief its version's decoding refuses. Each of their steps is
    replayed from the recorded belief before it (the initial belief for
    step 1), every step at once (`model.belief_updates`). Where a step's
    replay is the recorded belief bit for bit, and so is every step's
    before it, the sequential replay gives that belief too, by induction
    from the initial belief. The prefix ends at the first step whose
    replay differs in any bit or whose normalizer is at most
    LIKELIHOOD_FLOOR."""
    n_actions, n_observations, n_states = m.n_joint_actions, m.n_joint_observations, m.n_states
    actions, observations, states, raw = [], [], [], []
    for row in ep.steps:
        _, _, _, action, _, obs, state, value, _, _, _, _ = row
        if not (type(action) is int and 0 <= action < n_actions
                and type(obs) is int and 0 <= obs < n_observations
                and type(state) is int and 0 <= state < n_states):
            break
        try:
            # The sequential replay refuses the row again, naming its step.
            raw.append(recorded_belief(value, ep.version, n_states, ""))
        except ConfigError:
            break
        actions.append(action)
        observations.append(obs)
        states.append(state)
    # The initial belief, then the recorded ones, as native float64,
    # which "<f8" is on a little-endian machine.
    chain = np.frombuffer(b"".join([m.initial.probs.astype("<f8").tobytes(), *raw]), "<f8")
    chain = chain.astype(float, copy=False).reshape(len(raw) + 1, n_states)
    if not raw:
        return chain, states
    replayed, normalizers = belief_updates(chain[:-1], np.array(actions), np.array(observations), m)
    exact = ((normalizers > LIKELIHOOD_FLOOR)
             & (replayed.view(np.uint64) == chain[1:].view(np.uint64)).all(axis=1))
    k = int(np.argmin(exact)) if not exact.all() else len(raw)
    return chain[:k + 1], states[:k]


# perfbench/tracing.py times this module global as the `ldtl.oracle`
# layer, so the audit calls the oracle through it, under this name.
def oracle_satisfies(phi: Formula, states: np.ndarray, beliefs: np.ndarray) -> bool:
    """Whether phi holds at the first position of a word given as
    columns (see `ldtl.oracle_columns`): what `ldtl.oracle_satisfies`
    gives on the word of those letters, as a Python bool."""
    return bool(oracle_columns(phi, states, beliefs)[0])


def audit_episode(cfg: ScenarioConfig, ep: EpisodeRecord) -> EpisodeAudit:
    """Replay one episode in two passes over its steps (see the module
    docstring). Raises TraceMismatch when a replayed belief deviates from
    the recorded one by more than 1e-9, or by a non-finite amount (a NaN
    or null entry), and ConfigError for a malformed line; the first fault
    in file order is the one raised."""
    m = cfg.model
    start = cfg.start_monitor
    _check_obligations(ep, start)
    max_err = _belief_error(ep.header.get("initial_belief", []), ep, m.initial.probs, None)
    # Negated, so that a NaN deviation fails too.
    if not max_err <= BELIEF_TOL:
        raise TraceMismatch(ep.episode, 0, max_err)
    initial_state = checked_index(ep.header.get("initial_state"), m.n_states,
                                  "initial state", _where(ep, None))

    # Pass 1: the belief chain, up to the first faulty index or belief:
    # the prefix the stacked check verifies, then the sequential replay
    # from the last belief it verified.
    chain, states = _exact_prefix(ep, m)
    verified = len(states)
    belief = m.initial if verified == 0 else Belief(chain[-1])
    beliefs = []
    fault = None
    try:
        for row in ep.steps[verified:]:
            step, _, _, action, _, obs, state, value, _, _, _, _ = row
            where = _where(ep, step)
            action = checked_index(action, m.n_joint_actions, "executed action", where)
            obs = checked_index(obs, m.n_joint_observations, "observation", where)
            state = checked_index(state, m.n_states, "next state", where)
            try:
                belief = belief_update(belief, action, obs, m)
            except ZeroLikelihood as exc:
                raise TraceMismatch(ep.episode, step, float("inf")) from exc
            err = _belief_error(value, ep, belief.probs, step)
            max_err = max(max_err, err)
            if not err <= BELIEF_TOL:
                raise TraceMismatch(ep.episode, step, err)
            beliefs.append(belief.probs)
            states.append(state)
    except (ConfigError, TraceMismatch) as exc:
        fault = exc
    if beliefs:
        chain = np.concatenate((chain, beliefs))

    # Pass 2: the verdicts of the steps pass 1 replayed, all at once from
    # the stack of their beliefs.
    steps_records, mon = check_steps(start, chain[1:])
    oids = [ob.oid for ob in start.obligations]
    failed: set[str] = set()
    mismatches: list[str] = []
    for row, records in zip(ep.steps, steps_records):
        recorded = row[_VERDICT]
        if recorded != records or not _plain_barriers(recorded):
            step = row[0]
            mismatches.extend(_verdict_mismatches(recorded, records, oids, step,
                                                  _where(ep, step)))
        for oid, (status, _, _) in zip(oids, records):
            if status == "fail":
                failed.add(oid)
    if fault is not None:
        raise fault

    pending = set(mon.pending())
    states = np.array([initial_state, *states], dtype=np.intp)
    conjuncts = cfg.formula.children if isinstance(cfg.formula, And) else (cfg.formula,)
    return EpisodeAudit(
        episode=ep.episode,
        steps=len(ep.steps),
        end_reason=ep.end.get("reason", ""),
        max_belief_error=max_err,
        obligations=tuple(
            ObligationAudit(oid=ob.oid, label=ob.label, clean=ob.oid not in failed,
                            discharged=ob.oid not in pending,
                            oracle=oracle_satisfies(conjunct, states, chain))
            for ob, conjunct in zip(mon.obligations, conjuncts)),
        verdict_mismatches=tuple(mismatches),
    )


def audit_traces(cfg: ScenarioConfig, episodes: list[EpisodeRecord]) -> AuditReport:
    """Audit each episode in turn, with automatic cyclic collection paused
    (see `_gc.paused_gc`): the replay builds beliefs, records and arrays
    for every episode and frees them by reference counting."""
    with paused_gc():
        return AuditReport(tuple(audit_episode(cfg, ep) for ep in episodes))
