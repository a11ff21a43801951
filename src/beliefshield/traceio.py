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
the version 3 row (`_row_of`), so every episode it returns holds rows,
and turns each version 1 belief into the base64 string of its float64
bytes (`_decimal_belief`), so every belief it returns is one. A list
that is not of JSON numbers and nulls is refused there, at its episode's
header or step. `recorded_belief` decodes a belief, where the audit can
name the step it came from. Step numbers, the end line's step
count and each version 1 or 2 step line's and each end line's episode,
which must be its header's, must be JSON integers: `true` or `1.0` is
refused, though either equals 1 in Python.

An episode is formatted as columns (`_episode_text`): `zip(*steps)`
turns its TraceSteps into the STEP_COLUMNS, and each column goes through
one C-level formatter mapped over it: strings through json's own ASCII
escaper, floats through `float.__repr__`, beliefs through
`binascii.b2a_base64`. One `%` then fills a template of the episode's
lines: its header, one line per step with a slot for each of that
step's records and candidates, and its end line. The bytes are the ones
`json.dumps(row, separators=(",", ":"))` writes. Header and end lines,
once per episode and with a free-form end `detail`, go through `json`.
A float JSON cannot hold (inf or nan) is looked for once per column; the
first one in file order is a ConfigError naming the episode, the line
and the field. Every episode is formatted before the file is opened, so
such a float leaves no file. The episodes are then written one after
another through one ASCII text handle, with no copy of the whole file.
Files are read as UTF-8 whatever the locale.
"""

from __future__ import annotations

import base64
import binascii
import csv
import json
import math
from functools import cache
from itertools import accumulate, chain
from operator import attrgetter
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
_BELIEF = STEP_COLUMNS.index("belief")

SUMMARY_FIELDS = ("episode", "steps", "end_reason", "violations", "overrides",
                  "first_discharge_step", "total_reward")


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_string = json.encoder.encode_basestring_ascii
_float = float.__repr__
_NOT_FINITE = frozenset(("inf", "-inf", "nan"))

_BOOLEAN = ("false", "true")
_FLOAT64 = np.dtype("<f8")
_probs = attrgetter("probs")


@cache
def _step_template(records: int, candidates: int) -> str:
    """The template of a step line, newline included, whose verdict has
    `records` records and whose candidate list has `candidates` pairs: a
    row as json.dumps(row, separators=(",", ":")) writes it, its columns
    in STEP_COLUMNS order, with a slot for each string, as json's ASCII
    escaper writes it, and for each float, as its repr."""
    return ('[%d,%d,%d,%d,%s,%d,%d,"%s",[' + ",".join(["[%s,%s,%s]"] * records)
            + "],%s,%s,[" + ",".join(["[%d,%s]"] * candidates) + "]]\n")


def encode_belief(probs: np.ndarray) -> str:
    """A belief's entries as base64 of their little-endian float64 bytes.
    The bytes are a copy (tobytes): numpy keeps the format of every
    buffer an array exports for as long as the array lives, 56 bytes for
    each belief of a batch."""
    if probs.dtype != _FLOAT64:
        probs = probs.astype(_FLOAT64)
    return binascii.b2a_base64(probs.tobytes(), newline=False).decode("ascii")


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


def recorded_belief(value, n_states: int, where: str) -> bytes:
    """The little-endian float64 bytes of a recorded belief, a base64
    string. Raises ConfigError at `where` for a value that is not the
    encoding of a belief of `n_states` entries."""
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ConfigError(f"belief is not a base64 string: {exc}", where) from exc
    if len(raw) != 8 * n_states:
        raise ConfigError(f"belief has {len(raw)} bytes, {n_states} states need "
                          f"{8 * n_states}", where)
    return raw


def _decimal_belief(value, where: str) -> str:
    """A version 1 belief, a list of decimals, as the base64 string of
    its float64 bytes that later versions record. Raises ConfigError at
    `where` for a value that is not a list of JSON numbers and nulls
    (NaN): asarray would also convert a string or a boolean."""
    if not isinstance(value, list):
        raise ConfigError(f"belief is not a list of numbers: {type(value).__name__}", where)
    for i, entry in enumerate(value):
        if not (entry is None or isinstance(entry, (int, float))
                and not isinstance(entry, bool)):
            raise ConfigError(f"belief is not a list of numbers: entry {i} is {entry!r}",
                              where)
    try:
        return encode_belief(np.asarray(value, dtype=_FLOAT64))
    except OverflowError as exc:
        raise ConfigError(f"belief is not a list of numbers: {exc}", where) from exc


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


def _floats_or_null(values) -> list[str]:
    """Each of values, a float or None, as JSON writes it."""
    try:
        return list(map(_float, values))
    except TypeError:
        return ["null" if value is None else _float(value) for value in values]


def _rows(values: list, width: int, counts: list[int]):
    """values cut into consecutive slices of width * count items, one per
    count."""
    ends = list(accumulate(map(width.__mul__, counts)))
    return map(values.__getitem__, map(slice, [0, *ends], ends))


def _first_not_finite(trace: Trace) -> ConfigError:
    """The error for the first float in the trace's steps that JSON
    cannot write, in file order: by step, and within a step the verdict's
    barriers, then the realized reward, the nominal reward and the
    candidate rewards."""
    for s in trace.steps:
        fields = {"verdict": [{"barrier": barrier} for _, barrier, _ in s.verdict],
                  "realized_reward": s.realized_reward,
                  "nominal_reward": s.nominal_reward,
                  "candidate_rewards": s.candidate_rewards}
        if not all(math.isfinite(value) for _, value in _floats(fields)):
            return _not_finite(fields, f"episode {trace.episode} step {s.step}")


def _episode_text(trace: Trace, header: str) -> str:
    """An episode's header line, step rows and end line, each ending in a
    newline. The steps are formatted as columns, each through one C-level
    formatter, and filled into one template of a line per step."""
    if not trace.steps:
        return "%s\n%s\n" % (header, _end_line(trace))
    (number, prev_state, nominal, executed, overridden, observation, next_state, belief,
     verdict, realized_reward, nominal_reward, candidate_rewards) = zip(*trace.steps)
    # Each record's status, barrier and detail in turn, and each
    # candidate's action and reward, over the whole episode.
    records = list(chain.from_iterable(chain.from_iterable(verdict)))
    pairs = list(chain.from_iterable(chain.from_iterable(candidate_rewards)))
    barriers = _floats_or_null(records[1::3])
    realized = list(map(_float, realized_reward))
    reference = _floats_or_null(nominal_reward)
    rewards = list(map(_float, pairs[1::2]))
    if not (_NOT_FINITE.isdisjoint(barriers) and _NOT_FINITE.isdisjoint(realized)
            and _NOT_FINITE.isdisjoint(reference) and _NOT_FINITE.isdisjoint(rewards)):
        raise _first_not_finite(trace)
    records[0::3] = map(_string, records[0::3])
    records[1::3] = barriers
    records[2::3] = map(_string, records[2::3])
    pairs[1::2] = rewards
    n_records = list(map(len, verdict))
    n_candidates = list(map(len, candidate_rewards))
    flags = map(_BOOLEAN.__getitem__, map(bool, overridden))
    beliefs = map(encode_belief, map(_probs, belief))
    rows = zip(
        zip(number, prev_state, nominal, executed, flags, observation, next_state, beliefs),
        _rows(records, 3, n_records), zip(realized, reference), _rows(pairs, 2, n_candidates))
    template = "".join(["%s\n", *map(_step_template, n_records, n_candidates), "%s\n"])
    return template % (header, *chain.from_iterable(chain.from_iterable(rows)),
                       _end_line(trace))


def write_traces(result: BatchResult, path: str | Path, scenario_name: str,
                 shield_mode: str, horizon: int) -> None:
    """Write a batch as a version 3 trace file. Every episode is formatted
    first, so a float JSON cannot write leaves no file; then the episodes
    are written one after another through one ASCII text handle."""
    episodes = [_episode_text(trace, _header_line(trace, result, scenario_name,
                                                  shield_mode, horizon))
                for trace in result.traces]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(episodes)


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
    version 1 or 2 line's malformed verdict, records that name other
    obligations than the episode's first step's, and a version 1 belief
    that is not a list of numbers are reported at the episode and step
    (or header), as the audit reports what it finds in a row."""
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
                if version == 1:
                    rec["initial_belief"] = _decimal_belief(
                        rec.get("initial_belief", []), f"episode {rec['episode']} header")
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
                if version == 1:
                    row[_BELIEF] = _decimal_belief(row[_BELIEF], at)
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
