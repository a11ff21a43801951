"""Trace audit: replay a recorded run through the exact filter and the
monitor, and evaluate the formula's finite-trace semantics on the
replayed word.

`audit_traces` audits a batch of episodes, and `audit_episode` is the
audit of a batch of one. Each episode's audit first checks that the
obligations the episode lists are the monitor's, in its order, then
makes two passes over the episode's step rows (`traceio.STEP_COLUMNS`)
in file order. Versions 1 and 2 list no obligations in the header;
there the first step's records' oids and kinds stand for them (see
`traceio.EpisodeRecord`), and their labels are not checked. Every
recorded belief is a base64 string of float64 bytes whatever the trace
version: `traceio.read_traces` turns a version 1 list of decimals into
one, and refuses a list that is not of numbers.

Pass 1 replays the belief chain of every episode of the batch at once,
in lockstep (`_Lockstep`). At step t, the rows of every episode still
in lockstep are replayed from the beliefs it holds, as one stack of K
rows (`model.belief_updates`, grouped by action), each with the bits
the one-belief filter gives it. A row whose indices are in range (as
`config.checked_index` has them: an int or numpy integer, not a bool),
whose normalizer is above LIKELIHOOD_FLOOR and whose recorded belief is
the replayed row's encoding (`traceio.matches_encoding`, one base64
pass over the stack) is verified with error 0.0, so no belief of a
clean trace is decoded. Any other row is checked on its own, in this
order: its executed action, observation and next state must be in
range (`config.checked_index`), its normalizer must be above
LIKELIHOOD_FLOOR (else TraceMismatch with an infinite error), and its
recorded belief must lie within 1e-9 of the replayed one. A row that
passes stays in lockstep, and its episode goes on from the replayed
belief, as a replay one step at a time would; at the first row that
fails, the episode leaves the lockstep and the fault is held for its
finish. At the rows that stay, the monitor's own barrier evaluators and
the formula's belief atoms, the only expressions the audit compiles, are
evaluated from one gather over the monitor's leaf table
(`ldtl.gather_leaves`), and their values are kept in one column over the
batch's steps; the beliefs themselves are not kept.

Then each episode is finished in file order. Pass 2 walks the
episode's range of the barrier columns, up to its first fault, with
`monitor.walk_steps`, which gives check_step's records step after step,
bit for bit. Each step's records are then compared with the recorded
verdict, which raises for a malformed one, and only then is pass 1's
fault raised. Within a step the checks run in the order index, belief,
verdict, and pass 2 covers every step before the first index or belief
fault, so the first fault in an episode is the one raised; the
episodes are finished in file order, so the first fault in the file
is, as in one pass over the file.

The header's initial belief, held to the model's, and a step's
recorded belief that has not the replayed bits are compared one at a
time: a string that is the replayed belief's encoding
(`traceio.encode_belief`) has error 0.0 and is not decoded; any other
is decoded (`traceio.recorded_belief`), which rejects a malformed one.
A recorded belief whose bytes equal the replayed belief's has error
0.0; otherwise the error is the largest entry-wise deviation, and one
beyond 1e-9, or not finite, raises TraceMismatch.

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
disagreement is informational, not an audit failure. An episode's word
is its hidden states, the initial one first, and the beliefs held, the
initial belief first. `oracle_satisfies` folds each conjunct once over
the batch's words, laid end to end (`ldtl.fold_oracle`), from the
belief atoms' truths the lockstep kept, and reports each word's first
position. Each word is read on its own, equal at every position to the
recursive oracle the tests keep as the reference.
"""

from __future__ import annotations

import re
from itertools import chain
from dataclasses import dataclass

import numpy as np

from ._gc import paused_gc
from .config import ScenarioConfig, checked_index
from .errors import ConfigError, TraceMismatch
from .ldtl import (
    Formula, atom_truth, belief_atoms, compile_expr, conjuncts, evaluate_columns, fold_oracle,
    gather_leaves,
)
from .model import LIKELIHOOD_FLOOR, Mpomdp, belief_updates
from .monitor import Monitor, Records, walk_steps
from .traceio import (
    STEP_COLUMNS, EpisodeRecord, encode_belief, matches_encoding, recorded_belief,
)

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
    the header's initial belief. A string equal to the replayed belief's
    encoding skips the decode, and equal bytes skip the arithmetic. A
    malformed string never equals an encoding, so it is always decoded
    and refused."""
    if value == encode_belief(probs):
        return 0.0
    recorded = recorded_belief(value, len(probs), _where(ep, step))
    if recorded == probs.tobytes():
        return 0.0
    return float(np.max(np.abs(np.frombuffer(recorded, "<f8") - probs)))


def _row_error(ep: EpisodeRecord, row: list, normalizer: float, probs: np.ndarray,
               m: Mpomdp) -> float:
    """The belief error of a step row of ep whose recorded belief has not
    the bits of probs, the belief replayed under the row's action and
    observation with that normalizer. Raises ConfigError for an index out
    of range, and TraceMismatch for a normalizer at most LIKELIHOOD_FLOOR
    or an error beyond BELIEF_TOL, in that order."""
    step, _, _, action, _, obs, state, value, *_ = row
    where = _where(ep, step)
    checked_index(action, m.n_joint_actions, "executed action", where)
    checked_index(obs, m.n_joint_observations, "observation", where)
    checked_index(state, m.n_states, "next state", where)
    if not normalizer > LIKELIHOOD_FLOOR:
        raise TraceMismatch(ep.episode, step, float("inf"))
    err = _belief_error(value, ep, probs, step)
    # Negated, so that a NaN deviation fails too.
    if not err <= BELIEF_TOL:
        raise TraceMismatch(ep.episode, step, err)
    return err


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


def _indices(columns: tuple[tuple, ...], bounds: tuple[int, ...]
             ) -> tuple[np.ndarray, np.ndarray]:
    """Columns of recorded indices, one per bound, as one intp array,
    and whether every index of each row is one checked_index accepts: an
    int or a numpy integer, not a bool, below its column's bound and not
    negative. An index of a row that is not stands as 0 and has no
    meaning."""
    if set(map(type, chain.from_iterable(columns))) <= {int}:
        raw = np.array(columns)
    else:
        raw = np.array([[v if isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                         else -1 for v in column] for column in columns])
    valid = ((raw >= 0) & (raw < np.array(bounds)[:, None])).all(axis=0)
    if not valid.all():
        raw = np.where(valid, raw, 0)
    return raw.astype(np.intp), valid


class _Lockstep:
    """Pass 1 over a batch in lockstep, and what it gives pass 2 and the
    oracle.

    At step t the rows of every episode still in lockstep are replayed
    from the beliefs the lockstep holds as one stack
    (`model.belief_updates`). A row whose recorded belief has the
    replayed bits (`traceio.matches_encoding`) stays with error 0.0; any
    other stays only while `_row_error` passes it, and its episode's
    first fault is held in `faults`. At the rows that stay, one gather
    over the monitor's leaf table reads the leaves of every barrier and
    belief atom, and each
    barrier's value and each atom's truth are kept, each episode's steps
    and word positions in one range of their columns over the batch; the
    beliefs are not.
    Afterwards each conjunct's oracle is folded once over the batch's
    words."""

    def __init__(self, cfg: ScenarioConfig, episodes: list[EpisodeRecord]):
        m, start = cfg.model, cfg.start_monitor
        bounds = (m.n_joint_actions, m.n_joint_observations, m.n_states)
        steps = [ep.steps for ep in episodes]
        lengths = np.array([len(rows) for rows in steps], dtype=np.intp)
        # Each episode's first step among the batch's steps, and its
        # word's first position among the words' positions: a word is
        # the initial position and one per step.
        first_step = np.concatenate(([0], np.cumsum(lengths)))
        word_start = first_step[:-1] + np.arange(len(episodes))
        self.first_step = first_step.tolist()
        # The steps of each episode the lockstep verified, the largest
        # belief error among them, and the fault that ended them, if any.
        self.verified = lengths.tolist()
        self.max_error = [0.0] * len(episodes)
        self.faults: list[Exception | None] = [None] * len(episodes)
        states = np.zeros(len(episodes) + first_step[-1], dtype=np.min_scalar_type(m.n_states))
        # An initial state out of range stands as 0: its episode raises
        # at its header before the oracle is read.
        initial, _ = _indices(([ep.header.get("initial_state") for ep in episodes],),
                              (m.n_states,))
        states[word_start] = initial[0]
        atoms = belief_atoms(cfg.formula)
        truths = {id(atom): np.zeros(len(states), dtype=bool) for atom in atoms}
        # The monitor's own evaluators and leaf table. Each barrier holds
        # its belief atoms' expressions as they are, so the table has a
        # slot for every leaf of every atom, and one gather per step
        # reads the leaves of all of them.
        barriers = [ob.evaluators for ob in start.obligations]
        atom_values = [compile_expr(atom.expr, start.leaves.slot) for atom in atoms]
        # Each barrier's values at every step of the batch.
        self.columns = [[np.zeros(first_step[-1]) for _ in evaluators] for evaluators in barriers]

        at = np.flatnonzero(lengths)  # the episodes in lockstep
        beliefs = np.tile(m.initial.probs, (len(at), 1))
        step = 0
        with np.errstate(over="ignore", invalid="ignore"):
            leaves = gather_leaves(start.leaves, m.initial.probs[None]).T
            for atom, f in zip(atoms, atom_values):
                truths[id(atom)][word_start] = atom_truth(atom, evaluate_columns(f, leaves))[0]
            while len(at):
                rows = [steps[i][step] for i in at.tolist()]
                _, _, _, actions, _, observations, next_states, values, *_ = zip(*rows)
                indices, valid = _indices((actions, observations, next_states), bounds)
                posteriors, normalizers = belief_updates(beliefs, indices[0], indices[1], m)
                step += 1
                replayed = valid & (normalizers > LIKELIHOOD_FLOOR)
                replayed &= matches_encoding(values, posteriors)
                if not replayed.all():
                    for j in np.flatnonzero(~replayed).tolist():
                        i = int(at[j])
                        try:
                            err = _row_error(episodes[i], rows[j], normalizers[j], posteriors[j], m)
                        except (ConfigError, TraceMismatch) as exc:
                            self.verified[i], self.faults[i] = step - 1, exc
                        else:
                            self.max_error[i] = max(self.max_error[i], err)
                            replayed[j] = True
                    at, posteriors, indices = at[replayed], posteriors[replayed], indices[:, replayed]
                at_steps = first_step[at] + (step - 1)
                leaves = gather_leaves(start.leaves, posteriors).T
                for columns, evaluators in zip(self.columns, barriers):
                    for column, f in zip(columns, evaluators):
                        column[at_steps] = evaluate_columns(f, leaves)
                positions = word_start[at] + step
                states[positions] = indices[2]
                for atom, f in zip(atoms, atom_values):
                    truths[id(atom)][positions] = atom_truth(atom, evaluate_columns(f, leaves))
                # An episode verified whole leaves the lockstep.
                going_on = lengths[at] > step
                if not going_on.all():
                    at, posteriors = at[going_on], posteriors[going_on]
                beliefs = posteriors

        word_end = word_start + lengths + 1
        self.oracle = [oracle_satisfies(conjunct, states, truths, word_end)
                       for conjunct in conjuncts(cfg.formula)]

    def walk(self, i: int, start: Monitor) -> tuple[list[Records], Monitor]:
        """Pass 2 of episode i: the records of the steps the lockstep
        verified and the monitor reached, from its range of the barrier
        columns."""
        lo = self.first_step[i]
        hi = lo + self.verified[i]
        return walk_steps(start, [[c[lo:hi].tolist() for c in cols] for cols in self.columns],
                          hi - lo)


# perfbench/tracing.py times this module global as the `ldtl.oracle`
# layer, so the audit calls the oracle through it, under this name.
def oracle_satisfies(phi: Formula, states: np.ndarray, truths: dict[int, np.ndarray],
                     ends: np.ndarray) -> list[bool]:
    """Whether phi holds at the first position of each word of words
    laid end to end as columns (see `ldtl.fold_oracle`): truths maps the
    id of each belief atom of phi to its truth at every position, and
    ends holds the position after each word's last. Python bools."""
    column = fold_oracle(phi, states, lambda atom: truths[id(atom)], ends)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1]
    return column[starts].tolist()


def _finish(cfg: ScenarioConfig, ep: EpisodeRecord, batch: _Lockstep, i: int) -> EpisodeAudit:
    """The audit of episode i of the batch: its header, then pass 2 from
    the batch's columns, up to the fault pass 1 held, if any, which is
    raised after the verdicts before it are compared."""
    m = cfg.model
    start = cfg.start_monitor
    _check_obligations(ep, start)
    max_err = _belief_error(ep.header.get("initial_belief", []), ep, m.initial.probs, None)
    # Negated, so that a NaN deviation fails too.
    if not max_err <= BELIEF_TOL:
        raise TraceMismatch(ep.episode, 0, max_err)
    checked_index(ep.header.get("initial_state"), m.n_states, "initial state",
                  _where(ep, None))

    steps_records, mon = batch.walk(i, start)
    oracle = [column[i] for column in batch.oracle]
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
    if batch.faults[i] is not None:
        raise batch.faults[i]

    pending = set(mon.pending())
    return EpisodeAudit(
        episode=ep.episode,
        steps=len(ep.steps),
        end_reason=ep.end.get("reason", ""),
        max_belief_error=max(max_err, batch.max_error[i]),
        obligations=tuple(
            ObligationAudit(oid=ob.oid, label=ob.label, clean=ob.oid not in failed,
                            discharged=ob.oid not in pending, oracle=holds)
            for ob, holds in zip(mon.obligations, oracle)),
        verdict_mismatches=tuple(mismatches),
    )


def audit_traces(cfg: ScenarioConfig, episodes: list[EpisodeRecord]) -> AuditReport:
    """Audit a batch of episodes: pass 1 over all of them in lockstep,
    then each episode in file order (see the module docstring), with
    automatic cyclic collection paused (see `_gc.paused_gc`): the replay
    builds beliefs, records and arrays for every episode and frees them
    by reference counting. Raises TraceMismatch when a replayed belief
    deviates from the recorded one by more than 1e-9, or by a non-finite
    amount (a NaN or null entry), and ConfigError for a malformed line;
    the first fault in file order is the one raised."""
    with paused_gc():
        batch = _Lockstep(cfg, episodes)
        return AuditReport(tuple(_finish(cfg, ep, batch, i) for i, ep in enumerate(episodes)))


def audit_episode(cfg: ScenarioConfig, ep: EpisodeRecord) -> EpisodeAudit:
    """The audit of one episode: audit_traces of a batch of one."""
    return audit_traces(cfg, [ep]).episodes[0]
