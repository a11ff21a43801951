"""Trace serialization: JSON Lines episode records and a summary CSV.

Each episode contributes a versioned header line, one line per step,
and an end line. Key and column order are fixed and nothing time- or
host-dependent is recorded, so reruns with the same seed produce
byte-identical files.

Version 3 writes each step line as one JSON array, a row whose columns
are, in order (STEP_COLUMNS):

    [step, prev_state, nominal, executed, overridden, observation,
     next_state, belief, [[status, barrier, detail], ...],
     realized_reward, nominal_reward, [[action, reward], ...]]

The verdict column holds one [status, barrier, detail] per obligation,
in the order the header's `obligations` lists them as [oid, kind,
label], the monitor's order. A row names neither its episode, which is
its header's, nor whether the step passed, which is whether no status
is "fail". Header and end lines are JSON objects.

Beliefs (the header's `initial_belief`, each step's belief) are, since
version 2, one base64 string of their entries as little-endian float64,
so the recorded bits are the filter's bits; other floats are written
with full repr precision. Versions 1 and 2 wrote each step line as an
object with its episode, its keys and, per record, its oid and kind;
version 1 wrote beliefs as lists of decimals, also exact under repr.
Both are still read: `read_traces` turns each of their step lines into
the version 3 row (`_row_of`), so every episode it returns holds rows.
`recorded_belief` decodes a belief by its episode's version, where the
audit can name the step it came from. Step numbers, the end line's step
count and each version 1 or 2 step line's and each end line's episode,
which must be its header's, must be JSON integers: `true` or `1.0` is
refused, though either equals 1 in Python.

A step line is filled into one fixed template, whose bytes are the ones
`json.dumps(row, separators=(",", ":"))` writes: strings go through
json's own ASCII escaper, floats through `float.__repr__`, and the
base64 belief needs no escape. Header and end lines, once per episode
and with a free-form end `detail`, go through `json`. A float JSON
cannot hold (inf or nan) is a ConfigError naming the episode, the line
and the field, and then no file is written. Files are written as ASCII,
which every line is, and read as UTF-8 whatever the locale.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from ._gc import paused_gc
from .errors import ConfigError
from .monitor import passed
from .sim import BatchResult, Trace, TraceStep

TRACE_VERSION = 3
READABLE_VERSIONS = (1, 2, 3)

# A version 3 step row is a TraceStep's fields in their order.
STEP_COLUMNS = TraceStep._fields

SUMMARY_FIELDS = ("episode", "steps", "end_reason", "violations", "overrides",
                  "first_discharge_step", "total_reward")


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_string = json.encoder.encode_basestring_ascii
_float = float.__repr__
_NOT_FINITE = frozenset(("inf", "-inf", "nan"))

# A step row as json.dumps(row, separators=(",", ":")) writes it: columns
# in STEP_COLUMNS order, strings through json's own ASCII escaper, floats
# by repr.
_STEP_LINE = '[%d,%d,%d,%d,%s,%d,%d,"%s",[%s],%s,%s,[%s]]'
_RECORD = "[%s,%s,%s]"
_CANDIDATE = "[%d,%s]"


def encode_belief(probs: np.ndarray) -> str:
    """A belief's entries as base64 of their little-endian float64 bytes."""
    return base64.b64encode(probs.astype("<f8", copy=False).tobytes()).decode("ascii")


def matches_encoding(values: Sequence, probs: np.ndarray) -> np.ndarray:
    """Whether each of values is encode_belief of its row of probs, a
    C-contiguous (k, n) float64 stack, as a boolean array. The stack is
    encoded in one pass, each row padded with zero bytes to whole 3-byte
    groups, so that each row's characters are its own. A row's padded
    encoding is its encoding but for the last characters, where the
    encoding has a "=" for each zero byte."""
    k, n = probs.shape
    size = 8 * n
    pad = -size % 3
    width = (size + pad) // 3 * 4
    raw = np.zeros((k, size + pad), dtype=np.uint8)
    raw[:, :size] = probs.astype("<f8", copy=False).view(np.uint8)
    encoded = np.frombuffer(bytearray(binascii.b2a_base64(raw, newline=False)), np.uint8)
    encoded = encoded.reshape(k, width)
    encoded[:, width - pad:] = ord("=")
    # A value of another type or length stands as "?", in no encoding,
    # and so does each character of a value outside ASCII.
    if not (set(map(type, values)) == {str} and set(map(len, values)) == {width}):
        values = [value if type(value) is str and len(value) == width else "?" * width
                  for value in values]
    recorded = np.frombuffer("".join(values).encode("ascii", "replace"), np.uint8)
    return (recorded.reshape(k, width) == encoded).all(axis=1)


def recorded_belief(value, version: int, n_states: int, where: str) -> bytes:
    """The little-endian float64 bytes of a belief recorded by a trace of
    `version`. Raises ConfigError at `where` for a value that is not a
    belief of `n_states` entries in that version's encoding."""
    if version == 1:
        # JSON numbers and null (a NaN) only: asarray would also convert
        # a string or a boolean.
        if not isinstance(value, list):
            raise ConfigError(
                f"belief is not a list of numbers: {type(value).__name__}", where)
        for i, entry in enumerate(value):
            if not (entry is None or isinstance(entry, (int, float))
                    and not isinstance(entry, bool)):
                raise ConfigError(
                    f"belief is not a list of numbers: entry {i} is {entry!r}", where)
        try:
            recorded = np.asarray(value, dtype="<f8")
        except OverflowError as exc:
            raise ConfigError(f"belief is not a list of numbers: {exc}", where) from exc
        if recorded.shape != (n_states,):
            raise ConfigError(
                f"belief has {recorded.size} entries, model has {n_states} states", where)
        return recorded.tobytes()
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ConfigError(f"belief is not a base64 string: {exc}", where) from exc
    if len(raw) != 8 * n_states:
        raise ConfigError(f"belief has {len(raw)} bytes, {n_states} states need "
                          f"{8 * n_states}", where)
    return raw


def _floats(value, field: str = ""):
    """(path, value) of each float inside nested dicts, lists and tuples."""
    if isinstance(value, float):
        yield field, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _floats(item, f"{field}.{key}" if field else str(key))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _floats(item, f"{field}[{i}]")


def _not_finite(fields: dict, where: str) -> ConfigError:
    """The error for the first float in `fields` that JSON cannot write."""
    field, value = next((f, v) for f, v in _floats(fields) if not math.isfinite(v))
    return ConfigError(f"{field} is {_float(value)}, not a finite number", where)


def _header_line(trace: Trace, result: BatchResult, scenario_name: str,
                 shield_mode: str, horizon: int) -> str:
    return _ENCODER.encode({
        "type": "header",
        "version": TRACE_VERSION,
        "scenario": scenario_name,
        "episode": trace.episode,
        "base_seed": result.base_seed,
        "shield": shield_mode,
        "horizon": horizon,
        "obligations": result.obligations,
        "initial_state": trace.initial_state,
        "initial_belief": encode_belief(trace.initial_belief.probs),
    })


def _step_line(episode: int, s: TraceStep) -> str:
    (step, prev_state, nominal, executed, overridden, observation, next_state, belief,
     records, realized_reward, nominal_reward, candidate_rewards) = s
    barriers = ["null" if barrier is None else _float(barrier) for _, barrier, _ in records]
    realized = _float(realized_reward)
    reference = "null" if nominal_reward is None else _float(nominal_reward)
    rewards = [_float(reward) for _, reward in candidate_rewards]
    if not _NOT_FINITE.isdisjoint((realized, reference, *barriers, *rewards)):
        raise _not_finite({"verdict": [{"barrier": barrier} for _, barrier, _ in records],
                           "realized_reward": realized_reward,
                           "nominal_reward": nominal_reward,
                           "candidate_rewards": candidate_rewards},
                          f"episode {episode} step {step}")
    return _STEP_LINE % (
        step, prev_state, nominal, executed, "true" if overridden else "false",
        observation, next_state, encode_belief(belief.probs),
        ",".join([_RECORD % (_string(status), barrier, _string(detail))
                  for (status, _, detail), barrier in zip(records, barriers)]),
        realized, reference,
        ",".join([_CANDIDATE % (action, reward)
                  for (action, _), reward in zip(candidate_rewards, rewards)]),
    )


def _end_line(trace: Trace) -> str:
    try:
        return _ENCODER.encode({
            "type": "end",
            "episode": trace.episode,
            "steps": len(trace.steps),
            "reason": trace.end_reason,
            "detail": trace.end_detail,
        })
    except ValueError as exc:  # a float out of JSON's range
        raise _not_finite({"detail": trace.end_detail},
                          f"episode {trace.episode} end") from exc


def write_traces(result: BatchResult, path: str | Path, scenario_name: str,
                 shield_mode: str, horizon: int) -> None:
    lines = []
    for trace in result.traces:
        lines.append(_header_line(trace, result, scenario_name, shield_mode, horizon))
        lines.extend(_step_line(trace.episode, s) for s in trace.steps)
        lines.append(_end_line(trace))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_summary(result: BatchResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(result.episode_rows())


class EpisodeRecord:
    """One episode as read back from a trace file: its header and end
    lines, its steps as version 3 rows, and the obligations its verdicts
    are listed by. In version 3 these are the header's [oid, kind, label]
    lists. Versions 1 and 2 list none; there they are the [oid, kind] of
    the first step's records, which every later step's must equal, and
    None in an episode without steps."""

    def __init__(self, header: dict, steps: list[list], end: dict,
                 obligations: list | None):
        self.header = header
        self.steps = steps
        self.end = end
        self.obligations = obligations

    @property
    def episode(self) -> int:
        return self.header["episode"]

    @property
    def version(self) -> int:
        return self.header["version"]


def _check_episode(rec: dict, header: dict, where: str) -> None:
    if type(rec.get("episode")) is not int or rec["episode"] != header["episode"]:
        raise ConfigError(f"{rec['type']} record of episode {rec.get('episode')!r} "
                          f"inside episode {header['episode']}", where)


def _row_of(rec: dict, where: str) -> tuple[list, list]:
    """A version 1 or 2 step line as the version 3 row, and the [oid,
    kind] of each of its records. Raises ConfigError at `where` for a
    malformed verdict or a passed flag that its statuses contradict."""
    try:
        records, flag = rec["verdict"]["records"], rec["verdict"]["passed"]
        named = [[r["oid"], r.get("kind")] for r in records]
        verdict = [[r.get("status"), r.get("barrier"), r.get("detail")] for r in records]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed verdict: {type(exc).__name__} {exc}", where) from exc
    if not isinstance(flag, bool):
        raise ConfigError(f"malformed verdict: passed is {flag!r}, not a boolean", where)
    if flag != passed(verdict):
        raise ConfigError(f"malformed verdict: passed is {flag}, statuses "
                          f"{[status for status, _, _ in verdict]}", where)
    row = [rec["step"], rec.get("prev_state"), rec.get("nominal"), rec.get("executed"),
           rec.get("overridden"), rec.get("observation"), rec.get("next_state"),
           rec.get("belief", []), verdict, rec.get("realized_reward"),
           rec.get("nominal_reward"), rec.get("candidate_rewards")]
    return row, named


_scan = json.JSONDecoder().scan_once


def _loads(text: str):
    """json.loads(text), without its two whitespace scans on the path of
    every line the writer writes: one value at position 0 and nothing
    after it but JSON whitespace. Any other text goes to json.loads,
    which returns its value or raises its JSONDecodeError."""
    try:
        value, end = _scan(text, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(text)
    if text[end:].strip(" \t\n\r"):
        return json.loads(text)
    return value


def _row_fault(row: list, header: dict | None, expected: int) -> str:
    """Why a step array is not step `expected` of `header`'s episode."""
    if header is None:
        return "step record outside an episode"
    if header["version"] != 3:
        return (f"episode {header['episode']} step {expected} is an array, "
                f"version {header['version']} writes an object")
    if len(row) != len(STEP_COLUMNS):
        return (f"episode {header['episode']} step {expected} has {len(row)} columns, "
                f"expected {len(STEP_COLUMNS)}")
    return f"step {row[0]} out of order (expected {expected})"


def read_traces(path: str | Path) -> list[EpisodeRecord]:
    """Parse a trace file back into per-episode records, checking line
    structure and ordering. The file is read as bytes one line at a
    time, so a line ends at a newline only (the writer escapes every
    other line break), and each line is decoded as UTF-8 whatever the
    locale.

    A JSON array is a step row, read only inside a version 3 episode,
    where its column count and step number are checked; a step object
    is read only inside a version 1 or 2 episode, and turned into a row.
    A line's structural fault is reported at its file and line. A
    version 1 or 2 line's malformed verdict, or records that name other
    obligations than the episode's first step's, are reported at the
    episode and step, as the audit reports what it finds in a row."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}", str(path)) from exc
    episodes: list[EpisodeRecord] = []
    header: dict | None = None
    steps: list[list] = []
    version = 0  # the open episode's, 0 between episodes
    obligations: list | None = None
    columns = len(STEP_COLUMNS)
    with fh, paused_gc():
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = _loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ConfigError(f"not UTF-8: {exc}", f"{path}:{lineno}") from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}", f"{path}:{lineno}") from exc
            if (type(rec) is list and version == 3 and len(rec) == columns
                    and type(rec[0]) is int and rec[0] == len(steps) + 1):
                steps.append(rec)
                continue
            where = f"{path}:{lineno}"
            if type(rec) is list:
                raise ConfigError(_row_fault(rec, header, len(steps) + 1), where)
            if not isinstance(rec, dict):
                raise ConfigError("expected a JSON object or array", where)
            kind = rec.get("type")
            if kind == "header":
                if header is not None:
                    raise ConfigError("header before previous episode ended", where)
                if (type(rec.get("version")) is not int
                        or rec["version"] not in READABLE_VERSIONS):
                    raise ConfigError(
                        f"unsupported trace version {rec.get('version')!r}", where)
                if type(rec.get("episode")) is not int:
                    raise ConfigError("header needs an integer episode", where)
                version = rec["version"]
                obligations = rec.get("obligations") if version == 3 else None
                if version == 3 and type(obligations) is not list:
                    raise ConfigError("version 3 header needs a list of obligations", where)
                header, steps = rec, []
            elif kind == "step":
                if header is None:
                    raise ConfigError("step record outside an episode", where)
                if version == 3:
                    raise ConfigError(f"episode {header['episode']} step {len(steps) + 1} is "
                                      "an object, version 3 writes an array", where)
                _check_episode(rec, header, where)
                if type(rec.get("step")) is not int or rec["step"] != len(steps) + 1:
                    raise ConfigError(
                        f"step {rec.get('step')} out of order (expected {len(steps) + 1})",
                        where)
                at = f"episode {header['episode']} step {rec['step']}"
                row, named = _row_of(rec, at)
                if not steps:
                    obligations = named
                elif named != obligations:
                    raise ConfigError(f"records of obligations {named}, the first step's "
                                      f"are of {obligations}", at)
                steps.append(row)
            elif kind == "end":
                if header is None:
                    raise ConfigError("end record outside an episode", where)
                _check_episode(rec, header, where)
                if type(rec.get("steps")) is not int or rec["steps"] != len(steps):
                    raise ConfigError(
                        f"end record claims {rec.get('steps')} steps, found {len(steps)}",
                        where)
                episodes.append(EpisodeRecord(header, steps, rec, obligations))
                header, version = None, 0
            else:
                raise ConfigError(f"unknown record type {kind!r}", where)
    if header is not None:
        raise ConfigError("file ends inside an episode", str(path))
    if not episodes:
        raise ConfigError("no episodes found", str(path))
    return episodes
