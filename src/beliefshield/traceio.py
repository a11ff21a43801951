"""Trace serialization: JSON Lines episode records and a summary CSV.

Each episode contributes a versioned header line, one line per step,
and an end line. Key order is fixed and nothing time- or host-dependent
is recorded, so reruns with the same seed produce byte-identical files.

Version 2 stores each belief (the header's `initial_belief`, each
step's `belief`) as one base64 string of its entries as little-endian
float64, so the recorded bits are the filter's bits; other floats are
written with full repr precision. Version 1 wrote beliefs as lists of
decimals, also exact under repr, and is still read. `read_traces`
parses the JSON only; `recorded_belief` decodes a belief by its
episode's version, where the audit can name the step it came from.
Step numbers, the end line's step count and each step and end line's
episode, which must be its header's, must be JSON integers: `true` or
`1.0` is refused, though either equals 1 in Python.

A step line is filled into one fixed template, whose bytes are the ones
`json.dumps(..., separators=(",", ":"))` writes: strings go through
json's own ASCII escaper, floats through `float.__repr__`, and the
base64 belief needs no escape. Header and end lines, once per episode
and with a free-form end `detail`, go through `json`. A float JSON
cannot hold (inf or nan) is a ConfigError naming the episode, the line
and the field, and then no file is written. Files are written as ASCII,
which every line is, and read as UTF-8 whatever the locale.
"""

from __future__ import annotations

import base64
import csv
import json
import math
from pathlib import Path

import numpy as np

from ._gc import paused_gc
from .errors import ConfigError
from .sim import BatchResult, Trace, TraceStep

TRACE_VERSION = 2
READABLE_VERSIONS = (1, 2)

SUMMARY_FIELDS = ("episode", "steps", "end_reason", "violations", "overrides",
                  "first_discharge_step", "total_reward")


_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
_string = json.encoder.encode_basestring_ascii
_float = float.__repr__
_NOT_FINITE = frozenset(("inf", "-inf", "nan"))

# A step line as json.dumps(..., separators=(",", ":")) writes it: keys in
# this order, strings through json's own ASCII escaper, floats by repr.
_STEP_LINE = ('{"type":"step","episode":%d,"step":%d,"prev_state":%d,"nominal":%d,'
              '"executed":%d,"overridden":%s,"observation":%d,"next_state":%d,'
              '"belief":"%s","verdict":{"passed":%s,"records":[%s]},'
              '"realized_reward":%s,"nominal_reward":%s,"candidate_rewards":[%s]}')
_RECORD = '{"oid":%s,"kind":%s,"status":%s,"barrier":%s,"detail":%s}'
_CANDIDATE = "[%d,%s]"


def encode_belief(probs: np.ndarray) -> str:
    """A belief's entries as base64 of their little-endian float64 bytes."""
    return base64.b64encode(probs.astype("<f8", copy=False).tobytes()).decode("ascii")


def recorded_belief(value, version: int, n_states: int, where: str) -> bytes:
    """The little-endian float64 bytes of a belief recorded by a trace of
    `version`. Raises ConfigError at `where` for a value that is not a
    belief of `n_states` entries in that version's encoding."""
    if version == 1:
        try:
            recorded = np.asarray(value, dtype="<f8")
        except (TypeError, ValueError) as exc:
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


def _header_line(trace: Trace, scenario_name: str, shield_mode: str,
                 horizon: int, base_seed: int) -> str:
    return _ENCODER.encode({
        "type": "header",
        "version": TRACE_VERSION,
        "scenario": scenario_name,
        "episode": trace.episode,
        "base_seed": base_seed,
        "shield": shield_mode,
        "horizon": horizon,
        "initial_state": trace.initial_state,
        "initial_belief": encode_belief(trace.initial_belief.probs),
    })


def _step_line(episode: int, s: TraceStep) -> str:
    records = s.verdict.records
    barriers = ["null" if r.barrier is None else _float(r.barrier) for r in records]
    realized = _float(s.realized_reward)
    nominal = "null" if s.nominal_reward is None else _float(s.nominal_reward)
    rewards = [_float(reward) for _, reward in s.candidate_rewards]
    if not _NOT_FINITE.isdisjoint((realized, nominal, *barriers, *rewards)):
        raise _not_finite({"verdict": {"records": [{"barrier": r.barrier} for r in records]},
                           "realized_reward": s.realized_reward,
                           "nominal_reward": s.nominal_reward,
                           "candidate_rewards": s.candidate_rewards},
                          f"episode {episode} step {s.step}")
    return _STEP_LINE % (
        episode, s.step, s.prev_state, s.nominal, s.executed,
        "true" if s.overridden else "false", s.observation, s.next_state,
        encode_belief(s.belief.probs), "true" if s.verdict.passed else "false",
        ",".join([_RECORD % (_string(r.oid), _string(r.kind), _string(r.status),
                             barrier, _string(r.detail))
                  for r, barrier in zip(records, barriers)]),
        realized, nominal,
        ",".join([_CANDIDATE % (action, reward)
                  for (action, _), reward in zip(s.candidate_rewards, rewards)]),
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
        lines.append(_header_line(trace, scenario_name, shield_mode, horizon,
                                  result.base_seed))
        lines.extend(_step_line(trace.episode, s) for s in trace.steps)
        lines.append(_end_line(trace))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_summary(result: BatchResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(result.episode_rows())


class EpisodeRecord:
    """One episode as read back from a trace file."""

    def __init__(self, header: dict, steps: list[dict], end: dict):
        self.header = header
        self.steps = steps
        self.end = end

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


def read_traces(path: str | Path) -> list[EpisodeRecord]:
    """Parse a trace file back into per-episode records, checking line
    structure and ordering. The file is read as bytes one line at a
    time, so a line ends at a newline only (the writer escapes every
    other line break), and each line is decoded as UTF-8 whatever the
    locale."""
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}", str(path)) from exc
    episodes: list[EpisodeRecord] = []
    header: dict | None = None
    steps: list[dict] = []
    with fh, paused_gc():
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            if not line.strip():
                continue
            try:
                rec = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ConfigError(f"not UTF-8: {exc}", where) from exc
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}", where) from exc
            if not isinstance(rec, dict):
                raise ConfigError("expected a JSON object", where)
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
                header, steps = rec, []
            elif kind == "step":
                if header is None:
                    raise ConfigError("step record outside an episode", where)
                _check_episode(rec, header, where)
                if type(rec.get("step")) is not int or rec["step"] != len(steps) + 1:
                    raise ConfigError(
                        f"step {rec.get('step')} out of order (expected {len(steps) + 1})",
                        where)
                steps.append(rec)
            elif kind == "end":
                if header is None:
                    raise ConfigError("end record outside an episode", where)
                _check_episode(rec, header, where)
                if type(rec.get("steps")) is not int or rec["steps"] != len(steps):
                    raise ConfigError(
                        f"end record claims {rec.get('steps')} steps, found {len(steps)}",
                        where)
                episodes.append(EpisodeRecord(header, steps, rec))
                header = None
            else:
                raise ConfigError(f"unknown record type {kind!r}", where)
    if header is not None:
        raise ConfigError("file ends inside an episode", str(path))
    if not episodes:
        raise ConfigError("no episodes found", str(path))
    return episodes
