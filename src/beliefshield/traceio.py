"""Trace serialization: JSON Lines episode records and a summary CSV.

Each episode contributes a versioned header line, one line per step,
and an end line. Key order is fixed, floats are written with full repr
precision, and nothing time- or host-dependent is recorded, so reruns
with the same seed produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ConfigError
from .sim import BatchResult, Trace, TraceStep

TRACE_VERSION = 1

SUMMARY_FIELDS = ("episode", "steps", "end_reason", "violations", "overrides",
                  "first_discharge_step", "total_reward")


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def _header_line(trace: Trace, scenario_name: str, shield_mode: str,
                 horizon: int, base_seed: int) -> str:
    return _dump({
        "type": "header",
        "version": TRACE_VERSION,
        "scenario": scenario_name,
        "episode": trace.episode,
        "base_seed": base_seed,
        "shield": shield_mode,
        "horizon": horizon,
        "initial_state": trace.initial_state,
        "initial_belief": list(trace.initial_belief.probs),
    })


def _step_line(episode: int, s: TraceStep) -> str:
    return _dump({
        "type": "step",
        "episode": episode,
        "step": s.step,
        "prev_state": s.prev_state,
        "nominal": s.nominal,
        "executed": s.executed,
        "overridden": s.overridden,
        "observation": s.observation,
        "next_state": s.next_state,
        "belief": list(s.belief.probs),
        "verdict": {
            "passed": s.verdict.passed,
            "records": [
                {"oid": r.oid, "kind": r.kind, "status": r.status,
                 "barrier": r.barrier, "detail": r.detail}
                for r in s.verdict.records
            ],
        },
        "realized_reward": s.realized_reward,
        "nominal_reward": s.nominal_reward,
        "candidate_rewards": [list(pair) for pair in s.candidate_rewards],
    })


def _end_line(trace: Trace) -> str:
    return _dump({
        "type": "end",
        "episode": trace.episode,
        "steps": len(trace.steps),
        "reason": trace.end_reason,
        "detail": trace.end_detail,
    })


def write_traces(result: BatchResult, path: str | Path, scenario_name: str,
                 shield_mode: str, horizon: int) -> None:
    lines = []
    for trace in result.traces:
        lines.append(_header_line(trace, scenario_name, shield_mode, horizon,
                                  result.base_seed))
        lines.extend(_step_line(trace.episode, s) for s in trace.steps)
        lines.append(_end_line(trace))
    Path(path).write_text("\n".join(lines) + "\n")


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


def read_traces(path: str | Path) -> list[EpisodeRecord]:
    """Parse a trace file back into per-episode records, checking line
    structure and ordering. The file is read one line at a time, and a
    line ends at a newline only: json.dumps escapes every other line
    break."""
    path = Path(path)
    try:
        fh = path.open(newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot read file: {exc.strerror or exc}", str(path)) from exc
    episodes: list[EpisodeRecord] = []
    header: dict | None = None
    steps: list[dict] = []
    with fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"not valid JSON: {exc}", where) from exc
            if not isinstance(rec, dict):
                raise ConfigError("expected a JSON object", where)
            kind = rec.get("type")
            if kind == "header":
                if header is not None:
                    raise ConfigError("header before previous episode ended", where)
                if rec.get("version") != TRACE_VERSION:
                    raise ConfigError(
                        f"unsupported trace version {rec.get('version')!r}", where)
                if type(rec.get("episode")) is not int:
                    raise ConfigError("header needs an integer episode", where)
                header, steps = rec, []
            elif kind == "step":
                if header is None:
                    raise ConfigError("step record outside an episode", where)
                if rec.get("step") != len(steps) + 1:
                    raise ConfigError(
                        f"step {rec.get('step')} out of order (expected {len(steps) + 1})",
                        where)
                steps.append(rec)
            elif kind == "end":
                if header is None:
                    raise ConfigError("end record outside an episode", where)
                if rec.get("steps") != len(steps):
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
