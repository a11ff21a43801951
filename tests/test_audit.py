"""Trace files and audit replay: round trips, tamper detection, the
finite-trace oracle columns, and version 1 and 2 traces, which stay
readable."""

import base64
import copy
import csv
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import (
    Belief,
    ConfigError,
    Trace,
    TraceMismatch,
    audit_episode,
    audit_traces,
    read_traces,
    run_batch,
    write_summary,
    write_traces,
)
from beliefshield import audit, ldtl, model
from beliefshield.audit import _same_detail
from beliefshield.barrier import FtParams
from beliefshield.model import LIKELIHOOD_FLOOR, predicted_belief
from beliefshield.monitor import passed, walk_steps
from beliefshield.parsing import parse_expr, parse_formula
from beliefshield.sim import BatchResult, TraceStep
from beliefshield.traceio import (
    STEP_COLUMNS, SUMMARY_FIELDS, TRACE_VERSION, _episode_text, _loads, encode_belief,
    matches_encoding,
)
from beliefshield.presets import corridor_config

from conftest import (
    COLUMN, count_calls, decode_belief, edit_belief, edit_trace, reference_audit,
)

DATA = Path(__file__).resolve().parent / "data"
# `run_batch(v1_config().to_scenario(), base_seed=7, episodes=2)` as the
# version 1 writer (commit 3a765b5) wrote it: 2 episodes of 12 steps,
# beliefs as lists of decimals. test_v2_differs_from_v1_only_in_its_belief_encoding
# rebuilds it byte for byte from the version 2 trace of the same batch.
V1_TRACE = DATA / "corridor_literal_v1.trace.jsonl"
# The same batch as the version 2 writer (commit 84e36de) wrote it: step
# lines as objects, beliefs as base64. v2_trace_text rebuilds it byte for
# byte.
V2_TRACE = DATA / "corridor_literal_v2.trace.jsonl"

BELIEF, VERDICT = COLUMN["belief"], COLUMN["verdict"]


def v1_config():
    return replace(corridor_config("literal"), horizon=12)


def dump_line(rec) -> str:
    return json.dumps(rec, separators=(",", ":"))


def reference_v2_step_line(episode: int, s: TraceStep, obligations) -> str:
    """A step line as the version 2 writer wrote it, its records named
    by the batch's (oid, kind, label) obligations."""
    return json.dumps({
        "type": "step",
        "episode": episode,
        "step": s.step,
        "prev_state": s.prev_state,
        "nominal": s.nominal,
        "executed": s.executed,
        "overridden": s.overridden,
        "observation": s.observation,
        "next_state": s.next_state,
        "belief": encode_belief(s.belief.probs),
        "verdict": {
            "passed": passed(s.verdict),
            "records": [
                {"oid": oid, "kind": kind, "status": status,
                 "barrier": barrier, "detail": detail}
                for (oid, kind, _), (status, barrier, detail) in zip(obligations, s.verdict)
            ],
        },
        "realized_reward": s.realized_reward,
        "nominal_reward": s.nominal_reward,
        "candidate_rewards": [list(pair) for pair in s.candidate_rewards],
    }, separators=(",", ":"), allow_nan=False)


def v1_trace_text(v2_text: str) -> str:
    """A version 2 trace file as the version 1 writer wrote the same
    batch: version 1 in each header, and each belief as a list of
    decimals, through json.dumps."""
    lines = []
    for line in v2_text.splitlines():
        rec = json.loads(line)
        if rec["type"] == "header":
            assert rec["version"] == 2
            rec.update(version=1,
                       initial_belief=decode_belief(rec["initial_belief"]).tolist())
        elif rec["type"] == "step":
            rec["belief"] = decode_belief(rec["belief"]).tolist()
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def v2_trace_text(result: BatchResult, scenario: str, shield: str, horizon: int) -> str:
    """A batch's trace file as the version 2 writer wrote it."""
    lines = []
    for t in result.traces:
        lines.append(dump_line({
            "type": "header", "version": 2, "scenario": scenario, "episode": t.episode,
            "base_seed": result.base_seed, "shield": shield, "horizon": horizon,
            "initial_state": t.initial_state,
            "initial_belief": encode_belief(t.initial_belief.probs)}))
        lines.extend(reference_v2_step_line(t.episode, s, result.obligations)
                     for s in t.steps)
        lines.append(dump_line({"type": "end", "episode": t.episode, "steps": len(t.steps),
                                "reason": t.end_reason, "detail": t.end_detail}))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corridor_run(tmp_path_factory):
    cfg = corridor_config("literal")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=3)
    path = tmp_path_factory.mktemp("traces") / "corridor.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return cfg, result, path


@pytest.fixture(scope="module")
def corridor_run_v2(corridor_run, tmp_path_factory):
    """corridor_run's batch as a version 2 trace file."""
    cfg, result, _ = corridor_run
    path = tmp_path_factory.mktemp("traces") / "corridor.v2.trace.jsonl"
    path.write_text(v2_trace_text(result, cfg.name, cfg.shield_mode, cfg.horizon))
    return path


def bump_first_entry(entries):
    entries[0] += 1e-6


def tampered(path, tmp_path, episode, step, edit):
    """The trace at `path` with one line edited (see conftest.edit_trace)."""
    return edit_trace(path, tmp_path / "tampered.trace.jsonl", episode, step, edit)


# --------------------------------------------------------------------------
# Writing and reading


def test_trace_file_round_trip(corridor_run):
    cfg, result, path = corridor_run
    episodes = read_traces(path)
    assert [ep.episode for ep in episodes] == [0, 1, 2]
    assert result.obligations == (
        ("0:always", "always", "G (!near_patroller & !near_debris)"),
        ("1:eventually", "eventually", "F at_goal"))
    for ep, trace in zip(episodes, result.traces):
        assert ep.header["scenario"] == "corridor"
        assert ep.header["shield"] == "literal"
        assert ep.header["horizon"] == 200
        assert ep.header["base_seed"] == cfg.seed
        assert ep.header["initial_state"] == trace.initial_state
        assert ep.header["version"] == TRACE_VERSION == 3
        assert ep.header["obligations"] == ep.obligations == [list(o) for o in result.obligations]
        assert decode_belief(ep.header["initial_belief"]).tobytes() == \
            trace.initial_belief.probs.tobytes()
        assert len(ep.steps) == len(trace.steps)
        assert ep.end["reason"] == trace.end_reason
        first = dict(zip(STEP_COLUMNS, ep.steps[0]))
        assert first["nominal"] == trace.steps[0].nominal
        assert first["executed"] == trace.steps[0].executed
        assert first["overridden"] == trace.steps[0].overridden
        assert decode_belief(first["belief"]).tobytes() == trace.steps[0].belief.probs.tobytes()
        assert first["verdict"] == trace.steps[0].verdict
        assert len(first["verdict"]) == 2


@pytest.mark.parametrize("mode", ["off", "literal", "conservative"])
def test_every_verdict_is_the_row_column_it_is_written_as(mode, tmp_path):
    # check_step's records are the form a version 3 row records: each
    # step's verdict in memory equals its row's verdict column read back.
    cfg = corridor_config(mode)
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=3)
    path = tmp_path / "corridor.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    in_memory = [s.verdict for t in result.traces for s in t.steps]
    assert in_memory
    assert in_memory == [row[VERDICT] for ep in read_traces(path) for row in ep.steps]


def test_rerun_writes_identical_bytes(corridor_run, tmp_path):
    cfg, _, path = corridor_run
    again = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=3)
    other = tmp_path / "again.trace.jsonl"
    write_traces(again, other, cfg.name, cfg.shield_mode, cfg.horizon)
    assert other.read_bytes() == path.read_bytes()


def test_summary_csv_matches_episode_rows(corridor_run, tmp_path):
    _, result, _ = corridor_run
    out = tmp_path / "corridor.summary.csv"
    write_summary(result, out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(SUMMARY_FIELDS)
    expected = result.episode_rows()
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        for field in SUMMARY_FIELDS:
            assert got[field] == str(want[field])
    assert rows[0]["first_discharge_step"] == "4"
    assert rows[0]["violations"] == "0"


@pytest.mark.parametrize("kind, episode, lineno", [("step", 99, 2), ("end", 42, None)])
def test_a_line_of_another_episode_is_a_config_error(corridor_run, corridor_run_v2, tmp_path,
                                                     kind, episode, lineno):
    # Only version 1 and 2 step lines and end lines name their episode.
    path = corridor_run_v2 if kind == "step" else corridor_run[2]
    lines = path.read_text().splitlines()
    if lineno is None:
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if line.startswith('{"type":"end"'))
    rec = json.loads(lines[lineno - 1])
    assert (rec["type"], rec["episode"]) == (kind, 0)
    rec["episode"] = episode
    lines[lineno - 1] = dump_line(rec)
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_traces(bad)
    assert str(err.value) == (
        f"{bad}:{lineno}: {kind} record of episode {episode} inside episode 0")


def test_end_detail_survives_serialization(tmp_path):
    trace = Trace(
        episode=0,
        initial_state=0,
        initial_belief=Belief((1.0,)),
        steps=(),
        end_reason="deadlock",
        end_detail={"step": 1, "candidate_barriers": {0: {"0:always": -0.5}}},
    )
    path = tmp_path / "deadlock.trace.jsonl"
    write_traces(BatchResult(base_seed=0, traces=(trace,), obligations=()), path,
                 "tiny", "literal", 5)
    ep = read_traces(path)[0]
    assert ep.end["reason"] == "deadlock"
    # JSON stringifies the integer action keys.
    assert ep.end["detail"]["candidate_barriers"] == {"0": {"0:always": -0.5}}


def reference_step_line(s: TraceStep) -> str:
    """A step row as json.dumps writes it."""
    return json.dumps([
        s.step, s.prev_state, s.nominal, s.executed, s.overridden, s.observation,
        s.next_state, encode_belief(s.belief.probs),
        s.verdict,
        s.realized_reward, s.nominal_reward, [list(pair) for pair in s.candidate_rewards],
    ], separators=(",", ":"), allow_nan=False)


FINITE = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False)
TEXT = st.sampled_from(['', 'a "quoted" \\ back\\slash', '\x00\x1f\n\r\t\x7f\u2028',
                        'caf\u00e9 \u2603 \U0001f600', '\ud800']) | st.text()
COUNT = st.integers(0, 2**40)
RECORD = st.tuples(st.sampled_from(["pass", "fail", "discharged", "inactive"]) | TEXT,
                   st.none() | FINITE, TEXT).map(list)
TRACE_STEP = st.builds(
    TraceStep, step=COUNT, prev_state=COUNT, nominal=COUNT, executed=COUNT,
    overridden=st.booleans(), observation=COUNT, next_state=COUNT,
    belief=st.lists(FINITE, min_size=1, max_size=4).map(Belief),
    verdict=st.lists(RECORD, max_size=3),
    realized_reward=FINITE, nominal_reward=st.none() | FINITE,
    candidate_rewards=st.lists(st.tuples(COUNT, FINITE), max_size=3).map(tuple))


def tiny_step(**changes) -> TraceStep:
    step = TraceStep(
        step=1, prev_state=0, nominal=0, executed=1, overridden=True, observation=0,
        next_state=0, belief=Belief((1.0,)),
        verdict=[["pass", 0.25, ""], ["pass", -0.5, ""]],
        realized_reward=1.0, nominal_reward=0.5, candidate_rewards=((1, 0.75), (2, 0.5)))
    return step._replace(**changes)


@settings(max_examples=300, deadline=None)
@given(episode=COUNT, s=TRACE_STEP)
@example(episode=0, s=TraceStep(
    step=1, prev_state=0, nominal=0, executed=0, overridden=False, observation=0,
    next_state=0, belief=Belief((1.0,)), verdict=[], realized_reward=-0.0))
def test_a_step_line_has_the_bytes_json_dumps_writes(episode, s):
    trace = Trace(episode=episode, initial_state=0, initial_belief=Belief((1.0,)),
                  steps=(s,), end_reason="horizon")
    header, line, end, after = _episode_text(trace, "header").split("\n")
    assert (header, line, after) == ("header", reference_step_line(s), "")


def reference_trace_text(result: BatchResult, scenario: str, shield: str,
                         horizon: int) -> str:
    """A version 3 trace file as json.dumps writes each of its lines."""
    lines = []
    for t in result.traces:
        lines.append(dump_line({
            "type": "header", "version": TRACE_VERSION, "scenario": scenario,
            "episode": t.episode, "base_seed": result.base_seed, "shield": shield,
            "horizon": horizon, "obligations": result.obligations,
            "initial_state": t.initial_state,
            "initial_belief": encode_belief(t.initial_belief.probs)}))
        lines.extend(reference_step_line(s) for s in t.steps)
        lines.append(dump_line({"type": "end", "episode": t.episode, "steps": len(t.steps),
                                "reason": t.end_reason, "detail": t.end_detail}))
    return "".join(line + "\n" for line in lines)


EPISODE = st.builds(
    Trace, episode=COUNT, initial_state=COUNT,
    initial_belief=st.lists(FINITE, min_size=1, max_size=4).map(Belief),
    steps=st.lists(TRACE_STEP, max_size=5).map(tuple), end_reason=TEXT,
    end_detail=st.dictionaries(TEXT, COUNT | FINITE | TEXT, max_size=2))


@settings(max_examples=200, deadline=None)
@given(traces=st.lists(EPISODE, min_size=1, max_size=3),
       obligations=st.lists(st.tuples(TEXT, TEXT, TEXT), max_size=2))
@example(traces=[Trace(
    episode=0, initial_state=0, initial_belief=Belief((1.0,)), end_reason="horizon",
    steps=(tiny_step(verdict=[["pass", None, "\x00 caf\u00e9"]], nominal_reward=None,
                     realized_reward=-0.0, candidate_rewards=()),
           tiny_step(step=2, verdict=[["fail", 5e-324, ""], ["pass", 1e16, ""]],
                     realized_reward=1e22, candidate_rewards=((0, 0.1), (3, -0.0), (5, 1e16))),
           tiny_step(step=3, verdict=[]),
           tiny_step(step=4, candidate_rewards=((1, 0.75),))))], obligations=[])
def test_a_batch_has_the_bytes_json_dumps_writes(tmp_path_factory, traces, obligations):
    result = BatchResult(base_seed=0, traces=tuple(traces), obligations=tuple(obligations))
    path = tmp_path_factory.mktemp("batch") / "batch.trace.jsonl"
    write_traces(result, path, "tiny \"scenario\"", "literal", 5)
    assert path.read_bytes() == reference_trace_text(
        result, "tiny \"scenario\"", "literal", 5).encode("ascii")


TINY_OBLIGATIONS = (("0:always", "always", "G p"), ("1:eventually", "eventually", "F q"))


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                         (math.nan, "nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where, field, step, detail", [
    ("step 1", "verdict[1].barrier",
     lambda v: tiny_step(verdict=[["pass", 0.25, ""], ["pass", v, ""]]), None),
    ("step 1", "realized_reward", lambda v: tiny_step(realized_reward=v), None),
    ("step 1", "nominal_reward", lambda v: tiny_step(nominal_reward=v), None),
    ("step 1", "candidate_rewards[1][1]",
     lambda v: tiny_step(candidate_rewards=((1, 0.75), (2, v))), None),
    ("end", "detail.candidate_barriers.4.0:always", lambda v: tiny_step(),
     lambda v: {"step": 2, "candidate_barriers": {3: {"0:always": -0.5}, 4: {"0:always": v}}}),
], ids=["barrier", "realized", "nominal", "candidate", "end-detail"])
def test_a_float_json_cannot_write_is_named_and_nothing_is_written(
        tmp_path, value, text, where, field, step, detail):
    trace = Trace(episode=3, initial_state=0, initial_belief=Belief((1.0,)),
                  steps=(step(value),), end_reason="deadlock",
                  end_detail={} if detail is None else detail(value))
    path = tmp_path / "nonfinite.trace.jsonl"
    with pytest.raises(ConfigError) as err:
        write_traces(BatchResult(base_seed=0, traces=(trace,), obligations=TINY_OBLIGATIONS),
                     path, "tiny", "literal", 5)
    assert str(err.value) == f"episode 3 {where}: {field} is {text}, not a finite number"
    assert not path.exists()


def nonfinite_episode(episode: int, changes: dict, detail: dict) -> Trace:
    """Six tiny steps, step i edited by changes[i]."""
    steps = tuple(tiny_step(step=i, **changes.get(i, {})) for i in range(1, 7))
    return Trace(episode=episode, initial_state=0, initial_belief=Belief((1.0,)),
                 steps=steps, end_reason="deadlock", end_detail=detail)


@pytest.mark.parametrize("changes, message", [
    ({"verdict": [["pass", 0.25, ""], ["pass", math.nan, ""]], "realized_reward": math.inf,
      "nominal_reward": -math.inf, "candidate_rewards": ((1, math.inf),)},
     "verdict[1].barrier is nan"),
    ({"realized_reward": -math.inf, "nominal_reward": math.nan,
      "candidate_rewards": ((1, math.inf),)}, "realized_reward is -inf"),
    ({"nominal_reward": math.nan, "candidate_rewards": ((1, math.inf),)},
     "nominal_reward is nan"),
    ({"candidate_rewards": ((1, 0.75), (2, math.inf), (3, math.nan))},
     "candidate_rewards[1][1] is inf"),
], ids=["barrier", "realized", "nominal", "candidate"])
def test_the_first_float_json_cannot_write_in_file_order_is_named(tmp_path, changes, message):
    # Episode 1 step 3 holds the first such float, in the file and within
    # the step. Episode 1 step 5's barrier and episode 2's end detail
    # hold later ones.
    traces = (
        nonfinite_episode(0, {}, {}),
        nonfinite_episode(1, {3: changes, 5: {"verdict": [["pass", -math.inf, ""]]}}, {}),
        nonfinite_episode(2, {}, {"candidate_barriers": {0: {"0:always": math.nan}}}),
    )
    path = tmp_path / "nonfinite.trace.jsonl"
    with pytest.raises(ConfigError) as err:
        write_traces(BatchResult(base_seed=0, traces=traces, obligations=TINY_OBLIGATIONS),
                     path, "tiny", "literal", 5)
    assert str(err.value) == f"episode 1 step 3: {message}, not a finite number"
    assert not path.exists()


def test_the_write_holds_little_more_than_the_file(tmp_path):
    # Episodes are formatted one at a time and written one after another,
    # with no copy of the whole file.
    cfg = corridor_config("literal")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=100)
    path = tmp_path / "corridor.trace.jsonl"
    tracemalloc.start()
    try:
        write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * path.stat().st_size


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
PAD = st.sampled_from(["", " ", "\n", " \t\r\n", "\x0c", "\x0b", "\u2028", "\ufeff", "x"])


@settings(max_examples=500, deadline=None)
@given(text=st.tuples(PAD, JSON.map(json.dumps), PAD).map("".join) | st.text() | st.sampled_from([
    "[1,]", "[1] [2]", '"\\ud800"', "NaN", "-Infinity", "{", "", "01"]))
def test_a_line_is_decoded_as_json_loads_decodes_it(text):
    try:
        want = json.loads(text)
    except json.JSONDecodeError as exc:
        with pytest.raises(json.JSONDecodeError) as err:
            _loads(text)
        assert str(err.value) == str(exc)
    else:
        # Through dumps, so that a NaN equals itself.
        assert json.dumps(_loads(text)) == json.dumps(want)


# --------------------------------------------------------------------------
# Malformed files


def retouched(value: str, edit: int) -> object:
    """A belief's encoding with one edit: 0 leaves it, 1 flips the case
    of a letter, 2 drops its last character, 3 adds one, 4 replaces its
    last with a non-ASCII letter, 5 turns it into the list of its
    characters, 6 pads it with "A" where it has a "="."""
    if edit == 1:
        i = next((i for i, c in enumerate(value) if c.isalpha()), None)
        return value if i is None else value[:i] + value[i].swapcase() + value[i + 1:]
    return [value, value, value[:-1], value + "A", value[:-1] + "\u00e9", list(value),
            value.replace("=", "A")][edit]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.tuples(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n),
              st.integers(0, 6)), min_size=1, max_size=5)))
def test_a_stack_matches_the_encoding_of_each_row(rows):
    # One pass over a (k, n) stack says, row by row, what comparing each
    # value with encode_belief of its row says, whatever n is modulo 3.
    probs = np.array([entries for entries, _ in rows])
    values = [retouched(encode_belief(row), edit) for row, (_, edit) in zip(probs, rows)]
    assert matches_encoding(values, probs).tolist() == [
        value == encode_belief(row) for value, row in zip(values, probs)]


def test_read_rejects_malformed_lines(corridor_run, tmp_path):
    _, _, path = corridor_run
    lines = path.read_text().splitlines()

    def rewrite(new_lines):
        out = tmp_path / "bad.trace.jsonl"
        out.write_text("\n".join(new_lines) + "\n")
        return out

    with pytest.raises(ConfigError) as err:
        read_traces(rewrite(["not json"] + lines[1:]))
    assert "not valid JSON" in str(err.value)
    assert ":1" in str(err.value)

    header = json.loads(lines[0])
    for version in (99, 0, 4, True, 3.0, "3", None):
        header["version"] = version
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([dump_line(header)] + lines[1:]))
        assert f"unsupported trace version {version!r}" in str(err.value)

    header["version"] = 3
    del header["episode"]
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite([dump_line(header)] + lines[1:]))
    assert "header needs an integer episode" in str(err.value)
    assert ":1" in str(err.value)

    # Steps swapped out of order.
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite([lines[0], lines[2], lines[1]] + lines[3:]))
    assert "out of order" in str(err.value)

    # A step before any header.
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite(lines[1:]))
    assert "outside an episode" in str(err.value)

    # End line claiming the wrong count.
    end_idx = next(i for i, l in enumerate(lines) if l.startswith('{"type":"end"'))
    end = json.loads(lines[end_idx])
    end["steps"] += 1
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite(lines[:end_idx] + [dump_line(end)] + lines[end_idx + 1:]))
    assert "claims" in str(err.value)

    # A step number or a step count that only equals an integer: `true`
    # and `1.0` both equal 1 in Python.
    for value in (True, 1.0):
        step = json.loads(lines[1])
        step[0] = value
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([lines[0], dump_line(step)] + lines[2:]))
        assert f"bad.trace.jsonl:2: step {value} out of order (expected 1)" in str(err.value)
        end["steps"] = value
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([lines[0], lines[1], dump_line(end)]))
        assert f"bad.trace.jsonl:3: end record claims {value} steps, found 1" in str(err.value)

    # Header arriving before the previous episode ended.
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite([lines[0], lines[1], lines[0]]))
    assert "before previous episode ended" in str(err.value)

    # Truncated file.
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite(lines[:5]))
    assert "ends inside an episode" in str(err.value)

    unknown = json.loads(lines[0])
    unknown["type"] = "banana"
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite([lines[0], dump_line(unknown)] + lines[2:]))
    assert "unknown record type 'banana'" in str(err.value)

    for neither in ("5", '"step"', "null"):
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([lines[0], neither] + lines[2:]))
        assert "bad.trace.jsonl:2: expected a JSON object or array" in str(err.value)

    # A version 3 header must list its obligations.
    header = json.loads(lines[0])
    for obligations in (None, "0:always", {"0:always": "always"}):
        header["obligations"] = obligations
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([dump_line(header)] + lines[1:]))
        assert str(err.value).endswith(
            "bad.trace.jsonl:1: version 3 header needs a list of obligations")

    # A byte that cannot start a UTF-8 sequence, whatever the locale.
    raw = path.read_bytes().split(b"\n")
    raw[1] = raw[1][:40] + b"\xff" + raw[1][40:]
    broken = tmp_path / "broken.trace.jsonl"
    broken.write_bytes(b"\n".join(raw))
    with pytest.raises(ConfigError) as err:
        read_traces(broken)
    assert str(err.value).startswith(f"{broken}:2: not UTF-8: ")

    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("\n")
    with pytest.raises(ConfigError) as err:
        read_traces(empty)
    assert "no episodes found" in str(err.value)


@pytest.mark.parametrize("edit, columns", [
    (lambda row: row.pop(), 11),
    (lambda row: row.pop(VERDICT), 11),
    (lambda row: row.append(True), 13),
    (lambda row: row.insert(1, 0), 13),
    (lambda row: row.clear(), 0),
], ids=["last-dropped", "verdict-dropped", "one-appended", "one-inserted", "empty"])
def test_a_row_of_another_length_is_a_config_error(corridor_run, tmp_path, edit, columns):
    _, result, path = corridor_run
    lineno = len(result.traces[0].steps) + 3 + 6  # episode 1, step 6
    with pytest.raises(ConfigError) as err:
        read_traces(tampered(path, tmp_path, 1, 6, edit))
    assert str(err.value) == (f"{tmp_path / 'tampered.trace.jsonl'}:{lineno}: episode 1 step 6 "
                              f"has {columns} columns, expected 12")


def test_a_step_object_in_a_v3_episode_is_a_config_error(corridor_run, tmp_path):
    _, result, path = corridor_run
    lines = path.read_text().splitlines()
    lineno = len(result.traces[0].steps) + 3 + 4  # episode 1, step 4
    v2_line = reference_v2_step_line(1, result.traces[1].steps[3], result.obligations)
    assert json.loads(lines[lineno - 1])[0] == 4
    lines[lineno - 1] = v2_line
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_traces(bad)
    assert str(err.value) == (
        f"{bad}:{lineno}: episode 1 step 4 is an object, version 3 writes an array")


def test_a_step_array_in_a_v2_episode_is_a_config_error(corridor_run, corridor_run_v2, tmp_path):
    _, result, path = corridor_run
    lines = corridor_run_v2.read_text().splitlines()
    lines[2] = path.read_text().splitlines()[2]
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as err:
        read_traces(bad)
    assert str(err.value) == (
        f"{bad}:3: episode 0 step 2 is an array, version 2 writes an object")


# --------------------------------------------------------------------------
# Replay and audit


def test_replay_recomputes_beliefs_exactly(corridor_run, monkeypatch):
    cfg, result, path = corridor_run
    verdicts = []

    def recording_walk_steps(mon, columns, t):
        steps_records, reached = walk_steps(mon, columns, t)
        verdicts.extend(steps_records)
        return steps_records, reached

    monkeypatch.setattr(audit, "walk_steps", recording_walk_steps)
    report = audit_traces(cfg, read_traces(path))
    assert [ep.max_belief_error for ep in report.episodes] == [0.0] * len(result.traces)
    assert verdicts == [step.verdict for trace in result.traces for step in trace.steps]


def test_the_audit_checks_no_step_one_at_a_time(corridor_run, monkeypatch):
    cfg, _, path = corridor_run
    episodes = read_traces(path)
    expected = audit_traces(cfg, episodes)
    calls = [count_calls(monkeypatch, name)
             for name in ("check_step", "barrier_values")]
    assert audit_traces(cfg, episodes) == expected
    assert calls == [[], []]


def test_the_audit_compiles_only_the_belief_atoms_over_the_monitors_table(
        corridor_run, monkeypatch):
    # The barriers are the monitor's own evaluators, compiled once with
    # the scenario; the audit compiles each belief atom, over the
    # monitor's leaf table, and nothing else.
    cfg, _, path = corridor_run
    episodes = read_traces(path)
    leaves = cfg.start_monitor.leaves
    calls = count_calls(monkeypatch, "compile_expr", ldtl)
    assert audit_traces(cfg, episodes).ok
    assert [args for args, _ in calls] == [
        (cfg.predicates[name], leaves.slot)
        for name in ("near_patroller", "near_debris", "at_goal")]


def test_audit_accepts_clean_corridor_traces(corridor_run):
    cfg, _, path = corridor_run
    report = audit_traces(cfg, read_traces(path))
    assert report.ok
    for ep in report.episodes:
        assert ep.max_belief_error == 0.0
        assert ep.verdict_mismatches == ()
        always, eventually = ep.obligations
        assert always.oid == "0:always"
        assert always.clean and always.discharged and always.oracle
        assert eventually.oid == "1:eventually"
        assert eventually.clean and eventually.discharged and eventually.oracle


def outcome(audit_of, cfg, ep):
    """What audit_of(cfg, ep) returns, or what it raises, as comparable
    values."""
    try:
        return audit_of(cfg, ep)
    except TraceMismatch as exc:
        return TraceMismatch, str(exc), exc.episode, exc.step, exc.max_error
    except ConfigError as exc:
        return ConfigError, str(exc)


def one_ulp_up(entries):
    i = int(np.argmax(entries))
    entries[i] = np.nextafter(entries[i], np.inf)


def one_belief_filter_calls(monkeypatch) -> list[list]:
    """Every call, from here on, of each of the filter's one-belief
    steps (`belief_update`, `predicted_belief`, `correct`), through
    whichever beliefshield module's name for it."""
    return [count_calls(monkeypatch, name, model)
            for name in ("belief_update", "predicted_belief", "correct")]


@pytest.mark.parametrize("version", [1, 2, 3], ids=lambda version: f"v{version}")
def test_a_clean_audit_replays_no_step_alone(corridor_run, corridor_run_v2, monkeypatch,
                                             version):
    # Every step of a clean trace is replayed in the lockstep's stacks,
    # and no belief through the one-belief filter.
    cfg, _, path = corridor_run
    if version == 1:
        cfg, path = v1_config(), V1_TRACE
    elif version == 2:
        path = corridor_run_v2
    episodes = read_traces(path)
    assert {ep.version for ep in episodes} == {version}
    calls = one_belief_filter_calls(monkeypatch)
    report = audit_traces(cfg, episodes)
    assert report.ok and all(ep.max_belief_error == 0.0 for ep in report.episodes)
    assert calls == [[], [], []]


@pytest.mark.parametrize("version", [1, 2, 3], ids=lambda version: f"v{version}")
def test_a_clean_audit_decodes_no_belief(corridor_run, corridor_run_v2, tmp_path, monkeypatch,
                                         version):
    # Every step's replayed belief is compared with its recorded string
    # by its encoding, so a clean trace is verified without a decode;
    # read_traces hands a version 1 list of decimals over as that string.
    cfg, _, path = corridor_run
    if version == 2:
        path = corridor_run_v2
    elif version == 1:
        path = tmp_path / "corridor.v1.trace.jsonl"
        path.write_text(v1_trace_text(corridor_run_v2.read_text()))
    episodes = read_traces(path)
    assert {ep.version for ep in episodes} == {version}
    calls = []
    real = audit.recorded_belief
    monkeypatch.setattr(audit, "recorded_belief",
                        lambda *args: calls.append(args) or real(*args))
    report = audit_traces(cfg, episodes)
    assert report.ok and all(ep.max_belief_error == 0.0 for ep in report.episodes)
    assert sum(len(ep.steps) for ep in episodes) == 600
    assert calls == []


def test_a_belief_one_ulp_off_is_replayed_step_by_step_from_its_step(
        corridor_run, tmp_path, monkeypatch):
    # The episode stays in the lockstep's stacks past the belief one ulp
    # off, and audits as the step-by-step reference does.
    cfg, _, path = corridor_run
    ep = read_traces(tampered(path, tmp_path, 1, 6,
                              lambda row: edit_belief(row, BELIEF, one_ulp_up)))[1]
    calls = one_belief_filter_calls(monkeypatch)
    report = audit_episode(cfg, ep)
    assert calls == [[], [], []]
    assert report.ok and report.max_belief_error > 0.0
    assert report == reference_audit(cfg, ep)


def observing_corridor(likelihoods, directory: Path, episodes: int):
    """The literal corridor with joint action 0 observing 0 and 1 with
    `likelihoods` in every state, its batch, and the episodes of its
    trace."""
    cfg = corridor_config("literal")
    observation = cfg.model.observation.copy()
    observation[:, 0, :] = likelihoods
    cfg = replace(cfg, model=replace(cfg.model, observation=observation))
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=episodes)
    path = directory / "observing.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return cfg, result, read_traces(path)


@pytest.fixture(scope="module")
def muted_episodes(tmp_path_factory):
    """Two episodes in which observation 1 after joint action 0 has
    likelihood zero: the corridor, and the episodes by trace version, as
    the version 1, 2 and 3 writers write them."""
    directory = tmp_path_factory.mktemp("traces")
    cfg, result, episodes = observing_corridor([1.0, 0.0], directory, 2)
    v2 = v2_trace_text(result, cfg.name, cfg.shield_mode, cfg.horizon)
    versions = {3: episodes}
    for version, text in ((2, v2), (1, v1_trace_text(v2))):
        path = directory / f"observing.v{version}.trace.jsonl"
        path.write_text(text)
        versions[version] = read_traces(path)
    return cfg, versions


@pytest.fixture(scope="module")
def muted_batch_mates(muted_episodes, tmp_path_factory):
    """Clean episodes of the muted corridor, of other lengths than 200
    too, and each one's audit alone: two deadlocked before their first
    step (rho 0.5), two of horizon 1 and two of 200 steps from another
    seed."""
    cfg, _ = muted_episodes
    directory = tmp_path_factory.mktemp("traces")
    stalled = replace(cfg, monitor=replace(cfg.monitor, ft=FtParams(0.5, cfg.monitor.ft.eps)))
    mates = []
    for i, variant in enumerate((stalled, replace(cfg, horizon=1), replace(cfg, seed=cfg.seed + 1))):
        result = run_batch(variant.to_scenario(), base_seed=variant.seed, episodes=2)
        path = directory / f"mates{i}.trace.jsonl"
        write_traces(result, path, variant.name, variant.shield_mode, variant.horizon)
        mates.extend(read_traces(path))
    assert [len(ep.steps) for ep in mates] == [0, 0, 1, 1, 200, 200]
    return mates, [audit_episode(cfg, ep) for ep in mates]


def impossible_observation(row, version):
    row[COLUMN["executed"]], row[COLUMN["observation"]] = 0, 1


def tampered_status(row, version):
    row[VERDICT][0][0] = "tampered"


def step_belief_edit(edit):
    """edit(entries) of a step row's recorded belief, which read_traces
    hands over as base64 whatever the trace version."""
    return lambda row, version: edit_belief(row, BELIEF, edit)


def malformed_belief(row, version):
    """A "!" inside the base64 string of a step row's belief."""
    row[BELIEF] = row[BELIEF][:8] + "!" + row[BELIEF][8:]


def numpy_index(row, version):
    """The executed action as a numpy integer of the same value, which
    checked_index accepts."""
    row[COLUMN["executed"]] = np.int64(row[COLUMN["executed"]])


# One edit of a step after an exact prefix, of each kind pass 1 or the
# verdict comparison tells apart.
EDITS = {
    "one-ulp": step_belief_edit(one_ulp_up),
    "beyond-tolerance": step_belief_edit(bump_first_entry),
    "zero-likelihood": impossible_observation,
    "malformed-belief": malformed_belief,
    "index": lambda row, version: row.__setitem__(COLUMN["executed"], 99),
    "numpy-index": numpy_index,
    "verdict": tampered_status,
}


def audit_in_batch(mates: list, position: int):
    """audit_episode as the audit of a batch of mates with the episode at
    `position`, which holds the mates' audits to be the ones given."""
    episodes, audits = mates

    def audit_of(cfg, ep):
        report = audit_traces(cfg, [*episodes[:position], ep, *episodes[position:]])
        others = report.episodes[:position] + report.episodes[position + 1:]
        assert list(others) == audits
        return report.episodes[position]
    return audit_of


@settings(max_examples=90, deadline=None)
@given(version=st.sampled_from([1, 2, 3]), episode=st.integers(0, 1), step=st.integers(1, 200),
       kind=st.sampled_from(sorted(EDITS)), position=st.integers(0, 6))
@example(version=3, episode=0, step=1, kind="zero-likelihood", position=0)
@example(version=1, episode=1, step=200, kind="one-ulp", position=6)
@example(version=2, episode=0, step=2, kind="beyond-tolerance", position=3)
@example(version=1, episode=0, step=7, kind="malformed-belief", position=2)
@example(version=3, episode=1, step=9, kind="numpy-index", position=4)
def test_an_edited_step_audits_as_the_sequential_replay_does(
        muted_episodes, muted_batch_mates, version, episode, step, kind, position):
    # The edited episode, of any trace version, audits alike alone,
    # inside a batch of clean version 3 episodes of other lengths, which
    # stay in lockstep longer or shorter than it, and by the step-by-step
    # reference from its first step.
    cfg, versions = muted_episodes
    ep = copy.deepcopy(versions[version][episode])
    assert ep.version == version and ep.steps[step - 1][0] == step
    EDITS[kind](ep.steps[step - 1], version)
    got = outcome(audit_episode, cfg, ep)
    assert got == outcome(reference_audit, cfg, ep)
    assert got == outcome(audit_in_batch(muted_batch_mates, position), cfg, ep)
    if kind == "one-ulp":
        assert got.ok and got.max_belief_error > 0.0
    elif kind == "numpy-index":
        assert got.ok
    elif kind == "verdict":
        assert got.verdict_mismatches == (
            f"step {step}: recorded and replayed verdicts differ on ['0:always']",)
    else:
        assert got[0] is (TraceMismatch if kind in ("beyond-tolerance", "zero-likelihood")
                          else ConfigError)


def test_a_step_below_the_likelihood_floor_is_not_verified_by_its_bits(tmp_path):
    # After joint action 0, observation 1 has likelihood 1e-13, at most
    # the floor, so the filter refuses the step even where the recorded
    # belief holds the bits its division gives.
    cfg, _, (ep,) = observing_corridor([1.0 - 1e-13, 1e-13], tmp_path, 1)
    m = cfg.model
    row = ep.steps[4]
    numer = m.observation[:, 0, 1] * predicted_belief(Belief(decode_belief(ep.steps[3][BELIEF])),
                                                      0, m)
    assert 0.0 < numer.sum() <= LIKELIHOOD_FLOOR
    row[COLUMN["executed"]], row[COLUMN["observation"]] = 0, 1
    row[BELIEF] = encode_belief(numer / numer.sum())
    with pytest.raises(TraceMismatch) as err:
        audit_episode(cfg, ep)
    assert (err.value.step, err.value.max_error) == (5, math.inf)


@pytest.mark.parametrize("mode", ["off", "literal", "conservative"])
def test_horizon_one_round_trips_through_the_audit(mode, tmp_path):
    cfg = replace(corridor_config(mode), horizon=1)
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=3)
    assert [len(t.steps) for t in result.traces] == [1, 1, 1]
    path = tmp_path / "h1.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    episodes = read_traces(path)
    assert [len(ep.steps) for ep in episodes] == [1, 1, 1]
    for ep, trace in zip(episodes, result.traces):
        assert ep.header["horizon"] == 1
        assert ep.steps[0][COLUMN["executed"]] == trace.steps[0].executed
        assert ep.steps[0][COLUMN["next_state"]] == trace.steps[0].next_state
    report = audit_traces(cfg, episodes)
    assert report.ok
    assert all(ep.max_belief_error == 0.0 for ep in report.episodes)


def test_audit_reports_unshielded_violations_as_consistent(tmp_path):
    cfg = corridor_config("off")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=2)
    path = tmp_path / "unshielded.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    report = audit_traces(cfg, read_traces(path))
    # The recorded fails replay identically, so the audit itself is clean;
    # the oracle column shows the semantic violation.
    assert report.ok
    always = report.episodes[0].obligations[0]
    assert not always.clean
    assert not always.oracle


def test_a_v2_trace_audits_as_its_v3_trace_does(corridor_run, corridor_run_v2):
    cfg, _, path = corridor_run
    v2, v3 = read_traces(corridor_run_v2), read_traces(path)
    assert [ep.steps for ep in v2] == [ep.steps for ep in v3]
    assert audit_traces(cfg, v2) == audit_traces(cfg, v3)


def test_tampered_belief_raises_trace_mismatch(corridor_run, tmp_path):
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 1, 5, lambda row: edit_belief(row, BELIEF, bump_first_entry))
    with pytest.raises(TraceMismatch) as err:
        audit_traces(cfg, read_traces(bad))
    assert err.value.episode == 1
    assert err.value.step == 5
    assert err.value.max_error == pytest.approx(1e-6, rel=0.1)


def test_tampered_initial_belief_is_step_zero_mismatch(corridor_run, tmp_path):
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 0, None,
                   lambda rec: edit_belief(rec, "initial_belief", bump_first_entry))
    with pytest.raises(TraceMismatch) as err:
        audit_episode(cfg, read_traces(bad)[0])
    assert err.value.step == 0


@pytest.mark.parametrize("column, change", [
    ("executed", lambda a: (a + 1) % 6), ("observation", lambda z: 1 - z),
], ids=["executed", "observation"])
def test_a_tampered_action_or_observation_is_a_belief_mismatch(
        corridor_run, tmp_path, column, change):
    # The replay follows the recorded action and observation, so another
    # one moves the replayed belief away from the recorded one.
    cfg, _, path = corridor_run

    def edit(row):
        row[COLUMN[column]] = change(row[COLUMN[column]])

    with pytest.raises(TraceMismatch) as err:
        audit_traces(cfg, read_traces(tampered(path, tmp_path, 2, 9, edit)))
    assert (err.value.episode, err.value.step) == (2, 9)


def test_tampered_verdict_is_a_mismatch_not_an_exception(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def flip(row):
        assert row[VERDICT][0][0] == "pass"
        row[VERDICT][0][0] = "fail"

    report = audit_traces(cfg, read_traces(tampered(path, tmp_path, 0, 7, flip)))
    assert not report.ok
    bad = report.episodes[0]
    assert not bad.ok
    assert bad.verdict_mismatches == (
        "step 7: recorded and replayed verdicts differ on ['0:always']",)
    assert report.episodes[1].ok


def test_a_fail_status_flipped_to_pass_is_a_mismatch(tmp_path):
    cfg = corridor_config("off")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=2)
    path = tmp_path / "unshielded.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    episode, step, index = next(
        (t.episode, s.step, i) for t in result.traces for s in t.steps
        for i, (status, _, _) in enumerate(s.verdict) if status == "fail")
    oid = result.obligations[index][0]

    def flip(row):
        assert row[VERDICT][index][0] == "fail"
        row[VERDICT][index][0] = "pass"

    report = audit_traces(cfg, read_traces(tampered(path, tmp_path, episode, step, flip)))
    assert [ep.episode for ep in report.episodes if not ep.ok] == [episode]
    assert report.episodes[episode].verdict_mismatches == (
        f"step {step}: recorded and replayed verdicts differ on [{oid!r}]",)


@pytest.mark.parametrize("field, value",
                         [("barrier", 5.0), ("detail", "rewritten"), ("status", "inactive")],
                         ids=["barrier-5.0", "detail-rewritten", "status-inactive"])
def test_tampered_record_field_is_a_mismatch(corridor_run, tmp_path, field, value):
    cfg, _, path = corridor_run

    def edit(row):
        row[VERDICT][0][("status", "barrier", "detail").index(field)] = value

    report = audit_traces(cfg, read_traces(tampered(path, tmp_path, 1, 9, edit)))
    assert not report.ok
    assert [ep.episode for ep in report.episodes if not ep.ok] == [1]
    assert report.episodes[1].verdict_mismatches == (
        "step 9: recorded and replayed verdicts differ on ['0:always']",)


def test_reordered_records_are_a_mismatch(corridor_run, tmp_path):
    # The writer lists records in the monitor's obligation order, and the
    # audit compares them position by position.
    cfg, _, path = corridor_run
    report = audit_traces(cfg, read_traces(
        tampered(path, tmp_path, 1, 9, lambda row: row[VERDICT].reverse())))
    assert [ep.episode for ep in report.episodes if not ep.ok] == [1]
    assert report.episodes[1].verdict_mismatches == (
        "step 9: recorded and replayed verdicts differ on ['0:always', '1:eventually']",)


@pytest.mark.parametrize("edit", [
    lambda obligations: obligations.pop(),
    lambda obligations: obligations.append(["2:next", "next", "X at_goal"]),
    lambda obligations: obligations[1].__setitem__(0, "1:always"),
    lambda obligations: obligations[0].__setitem__(1, "eventually"),
    lambda obligations: obligations[1].__setitem__(2, "F clear"),
    lambda obligations: obligations.reverse(),
    lambda obligations: obligations[0].pop(),
], ids=["one-fewer", "one-more", "oid", "kind", "label", "reordered", "no-label"])
def test_header_obligations_that_are_not_the_monitors_are_a_config_error(
        corridor_run, tmp_path, edit):
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 1, None, lambda header: edit(header["obligations"]))
    episodes = read_traces(bad)
    assert audit_episode(cfg, episodes[0]).ok
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, episodes)
    assert str(err.value).startswith("episode 1 header: obligations ")
    assert "are not the monitor's" in str(err.value)


@pytest.mark.parametrize("edit", [
    lambda verdict: verdict.clear(),
    lambda verdict: verdict.pop(),
    lambda verdict: verdict.append(["pass", None, ""]),
    lambda verdict: verdict.__setitem__(slice(None), [5]),
    lambda verdict: verdict.__setitem__(0, "pass"),
    lambda verdict: verdict.__setitem__(0, verdict[0][:2]),
    lambda verdict: verdict[0].append(""),
], ids=["empty", "one-fewer", "one-more", "not-a-list", "record-not-a-list",
        "record-of-two", "record-of-four"])
def test_a_malformed_verdict_is_a_config_error(corridor_run, tmp_path, edit):
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 2, 8, lambda row: edit(row[VERDICT]))
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(bad))
    assert str(err.value).startswith("episode 2 step 8: malformed verdict: ")


@pytest.mark.parametrize("recorded, replayed, same", [
    ("-0.368137", "-0.368138", True),
    ("decay bound broken (0.9 -> -0.368137)", "decay bound broken (0.9 -> -0.368138)", True),
    ("right barrier 1e-05", "right barrier 1.00001e-05", True),
    ("right barrier -0.368137", "right barrier -0.368141", False),
    ("right barrier 0.5", "right barrier -0.5", False),
    ("deadline 5 passed", "deadline 6 passed", False),
    ("reached at step 4 (deadline 7)", "reached at step 4 (deadline 7.0)", True),
    ("rewritten", "", False),
    ("rewritten", "right barrier 0.5", False),
    ("right barrier 0.5", "left barrier 0.5", False),
    ("barrier 0.5", "barrier 0.5 0.5", False),
    (None, "", False),
], ids=["sixth-digit", "sixth-digit-in-text", "exponent", "fifth-digit", "sign", "integer",
        "integer-and-float", "rewritten-empty", "rewritten-text", "text", "token-count",
        "not-a-string"])
def test_a_detail_is_compared_by_what_it_says(recorded, replayed, same):
    # %.6g prints -0.3681374999999999 as -0.368137 and -0.3681375 as
    # -0.368138: one unit in the sixth significant digit is allowed.
    assert _same_detail(recorded, replayed) is same


# One fault of each kind the audit finds in a step, in the order it checks
# them there: indices, then the belief, then the verdict.
FAULTS = {
    "index": lambda row: row.__setitem__(COLUMN["executed"], 99),
    "belief": lambda row: edit_belief(row, BELIEF, bump_first_entry),
    "verdict": lambda row: row.__setitem__(VERDICT, {}),
}


def located(faults: list[tuple]) -> list[tuple[str, int, int]]:
    """Each (kind, step) or (kind, step, episode) as the latter, in
    episode 0 where it names none."""
    return [(kind, step, *(episode or [0])) for kind, step, *episode in faults]


@pytest.mark.parametrize("faults", [
    # Each order of two kinds on two steps.
    *([(first, 3), (second, 8)] for first in FAULTS for second in FAULTS if first != second),
    # Two or three kinds on one step.
    [("index", 5), ("belief", 5)], [("index", 5), ("verdict", 5)],
    [("belief", 5), ("verdict", 5)], [("index", 5), ("belief", 5), ("verdict", 5)],
    # A fault late in an episode comes before any in a later episode,
    # however early in it.
    [("verdict", 150), ("belief", 3, 2)], [("belief", 150, 1), ("belief", 7, 2)],
    [("index", 200), ("index", 1, 1)], [("belief", 199), ("verdict", 2, 1), ("index", 1, 2)],
    [("verdict", 150, 1), ("belief", 1, 2)],
], ids=lambda faults: "-".join(
    f"{kind}{step}" + (f"@ep{episode}" if episode else "")
    for kind, step, episode in located(faults)))
def test_the_first_fault_in_file_order_is_raised(corridor_run, tmp_path, faults):
    # faults lists (kind, step), in episode 0, or (kind, step, episode),
    # in the order the audit meets them; the first is the one raised.
    cfg, _, path = corridor_run
    faults = located(faults)
    for i, (kind, step, episode) in enumerate(faults):
        path = edit_trace(path, tmp_path / f"fault{i}.trace.jsonl", episode, step, FAULTS[kind])
    with pytest.raises((ConfigError, TraceMismatch)) as err:
        audit_traces(cfg, read_traces(path))
    kind, step, episode = faults[0]
    if kind == "belief":
        assert type(err.value) is TraceMismatch
        assert (err.value.episode, err.value.step) == (episode, step)
    else:
        assert type(err.value) is ConfigError
        what = "executed action 99 out of range" if kind == "index" else "malformed verdict"
        assert str(err.value).startswith(f"episode {episode} step {step}: {what}")


@pytest.fixture(scope="module")
def integral_run(tmp_path_factory):
    """A corridor batch, shield off, whose formula is F in({a0_h1, a0_h2})
    & G !a0_mass: barriers b(a0_h1) + b(a0_h2) - 1 and b(a0_h1) + b(a0_h2).
    The belief puts no mass on a0 at step 1, so they read exactly -1.0
    and 0.0 there."""
    cfg = corridor_config("off")
    states = cfg.model.state_index
    predicates = dict(cfg.predicates, a0_mass=parse_expr("b(a0_h1) + b(a0_h2)", states))
    text = "F in({a0_h1, a0_h2}) & G !a0_mass"
    cfg = replace(cfg, predicates=predicates, formula_text=text,
                  formula=parse_formula(text, predicates, states))
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=1)
    path = tmp_path_factory.mktemp("traces") / "integral.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return cfg, path


@pytest.mark.parametrize("index, barrier", [(0, -1), (1, 0), (1, False)],
                         ids=["int-minus-one", "int-zero", "false"])
def test_an_int_or_bool_barrier_equal_to_the_replayed_float_is_a_mismatch(
        integral_run, tmp_path, index, barrier):
    # JSON keeps -1 and 0 ints and false a boolean, and each equals the
    # replayed float under ==; only a float or null barrier is accepted.
    cfg, path = integral_run
    clean = read_traces(path)[0]
    assert audit_episode(cfg, clean).ok
    recorded = clean.steps[0][VERDICT][index][1]
    assert type(recorded) is float and recorded == barrier

    def edit(row):
        row[VERDICT][index][1] = barrier

    report = audit_episode(cfg, read_traces(tampered(path, tmp_path, 0, 1, edit))[0])
    oid = f"{index}:{('eventually', 'always')[index]}"
    assert report.verdict_mismatches == (
        f"step 1: recorded and replayed verdicts differ on [{oid!r}]",)


def test_out_of_range_indices_are_config_errors(corridor_run, tmp_path):
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 0, 3, lambda row: row.__setitem__(COLUMN["executed"], 99))
    with pytest.raises(ConfigError) as err:
        audit_episode(cfg, read_traces(bad)[0])
    assert "executed action 99 out of range" in str(err.value)
    assert "episode 0 step 3" in str(err.value)


@pytest.mark.parametrize("column, what", [
    ("observation", "observation"), ("next_state", "next state"),
])
def test_an_out_of_range_observation_or_next_state_is_a_config_error(
        corridor_run, tmp_path, column, what):
    # The next state is the hidden state: the replay cannot recompute
    # it, so only its range is checked; it enters the oracle's word.
    cfg, _, path = corridor_run
    bad = tampered(path, tmp_path, 0, 3, lambda row: row.__setitem__(COLUMN[column], 99))
    with pytest.raises(ConfigError) as err:
        audit_episode(cfg, read_traces(bad)[0])
    assert f"{what} 99 out of range" in str(err.value)
    assert str(err.value).startswith("episode 0 step 3: ")


# A null entry exists only in version 1's decimal lists.
@pytest.mark.parametrize("version, record, value", [
    (3, "header", float("nan")), (3, "step", float("nan")), (1, "step", None),
    (1, "header", float("nan")), (1, "step", float("nan")),
], ids=["header-nan", "step-nan", "step-null", "v1-header-nan", "v1-step-nan"])
def test_non_finite_belief_is_a_mismatch(corridor_run, tmp_path, version, record, value):
    cfg, _, path = corridor_run if version == 3 else (v1_config(), None, V1_TRACE)
    step = None if record == "header" else 6
    key = ("initial_belief" if record == "header"
           else BELIEF if version == 3 else "belief")

    def poison(rec):
        if version == 1:
            rec[key] = [value] * len(rec[key])
        else:
            edit_belief(rec, key, lambda entries: entries.fill(value))

    with pytest.raises(TraceMismatch) as err:
        audit_traces(cfg, read_traces(tampered(path, tmp_path, 1, step, poison)))
    assert (err.value.episode, err.value.step) == (1, 0 if record == "header" else 6)


# A JSON string or boolean is not a number, though np.asarray converts
# it: as strings, or with false for 0.0, the step's belief is the
# replayed one.
@pytest.mark.parametrize("edit, entry", [
    (lambda belief: [repr(x) for x in belief], "'0.44625'"),
    (lambda belief: [False if x == 0.0 else x for x in belief], "False"),
    (lambda belief: [True, *belief[1:]], "True"),
], ids=["strings", "false-for-zero", "true"])
def test_a_v1_belief_entry_that_is_not_a_number_is_a_config_error(tmp_path, edit, entry):
    def malform(rec):
        rec["belief"] = edit(rec["belief"])

    with pytest.raises(ConfigError) as err:
        audit_traces(v1_config(), read_traces(tampered(V1_TRACE, tmp_path, 0, 1, malform)))
    assert str(err.value).startswith(
        "episode 0 step 1: belief is not a list of numbers: entry ")
    assert str(err.value).endswith(f" is {entry}")


# Versions 1 and 2 step lines are objects, whose verdict read_traces
# checks as it turns them into rows; a version 3 belief is a column.
@pytest.mark.parametrize("version, edit", [
    (2, lambda rec: rec.pop("verdict")),
    (2, lambda rec: rec["verdict"].pop("passed")),
    (2, lambda rec: rec["verdict"]["records"][0].pop("oid")),
    (2, lambda rec: rec["verdict"].update(records=5)),
    (3, lambda belief: "abc"),
    (3, lambda belief: None),
    (3, lambda belief: belief[:8] + "!" + belief[8:]),
    (3, lambda belief: decode_belief(belief).tolist()),
    (3, lambda belief: encode_belief(decode_belief(belief)[:-1])),
    (3, lambda belief: base64.b64encode(base64.b64decode(belief)[:-1]).decode()),
], ids=["no-verdict", "no-passed", "no-oid", "records-not-a-list", "belief-not-numbers",
        "belief-null", "belief-not-base64", "belief-as-v1-decimals", "belief-short-by-an-entry",
        "belief-short-by-a-byte"])
def test_malformed_step_is_a_config_error(corridor_run, corridor_run_v2, tmp_path, version, edit):
    cfg, _, path = corridor_run
    if version == 2:
        path, malform = corridor_run_v2, edit
    else:
        def malform(row):
            row[BELIEF] = edit(row[BELIEF])

    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(tampered(path, tmp_path, 2, 8, malform)))
    assert str(err.value).startswith("episode 2 step 8: ")


@pytest.mark.parametrize("value", [1, 0, "true", None], ids=["1", "0", "string", "null"])
def test_a_passed_flag_that_is_not_a_boolean_is_a_config_error(corridor_run, corridor_run_v2,
                                                               tmp_path, value):
    # Versions 1 and 2 record a passed flag; 1 == True, so a number
    # compared as a flag would pass.
    cfg, _, _ = corridor_run
    bad = tampered(corridor_run_v2, tmp_path, 1, 5,
                   lambda rec: rec["verdict"].update(passed=value))
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(bad))
    assert str(err.value) == (
        f"episode 1 step 5: malformed verdict: passed is {value!r}, not a boolean")


def test_a_v2_passed_flag_its_statuses_contradict_is_a_config_error(
        corridor_run, corridor_run_v2, tmp_path):
    cfg, _, _ = corridor_run
    bad = tampered(corridor_run_v2, tmp_path, 1, 5,
                   lambda rec: rec["verdict"].update(passed=False))
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(bad))
    assert str(err.value) == (
        "episode 1 step 5: malformed verdict: passed is False, statuses ['pass', 'inactive']")


@pytest.mark.parametrize("field, value", [("oid", "0:eventually"), ("kind", "next")],
                         ids=["oid", "kind"])
def test_a_v2_record_of_another_obligation_is_a_config_error(
        corridor_run, corridor_run_v2, tmp_path, field, value):
    # A version 2 episode's first step names its obligations, which every
    # later step must repeat.
    cfg, _, _ = corridor_run
    bad = tampered(corridor_run_v2, tmp_path, 1, 9,
                   lambda rec: rec["verdict"]["records"][0].update({field: value}))
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(bad))
    assert str(err.value).startswith("episode 1 step 9: records of obligations [[")


def test_a_v2_episode_of_other_obligations_is_a_config_error(
        corridor_run, corridor_run_v2, tmp_path):
    # Every step agrees, so the first step's obligations are held to the
    # monitor's.
    cfg, _, _ = corridor_run
    lines = corridor_run_v2.read_text().splitlines()
    episode = [json.loads(line)["episode"] for line in lines]
    lines = [line.replace('"kind":"always"', '"kind":"next"') if e == 1 else line
             for line, e in zip(lines, episode)]
    bad = tmp_path / "bad.trace.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    episodes = read_traces(bad)
    assert episodes[1].obligations == [["0:always", "next"], ["1:eventually", "eventually"]]
    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, episodes)
    assert str(err.value) == (
        "episode 1 header: obligations [['0:always', 'next'], ['1:eventually', 'eventually']] "
        "are not the monitor's [['0:always', 'always'], ['1:eventually', 'eventually']]")


# --------------------------------------------------------------------------
# Version 1 and 2 traces


def test_a_v1_trace_audits_clean():
    episodes = read_traces(V1_TRACE)
    assert [(ep.version, len(ep.steps)) for ep in episodes] == [(1, 12), (1, 12)]
    report = audit_traces(v1_config(), episodes)
    assert report.ok
    assert [ep.max_belief_error for ep in report.episodes] == [0.0, 0.0]


def test_a_v2_trace_audits_clean():
    episodes = read_traces(V2_TRACE)
    assert [(ep.version, len(ep.steps)) for ep in episodes] == [(2, 12), (2, 12)]
    report = audit_traces(v1_config(), episodes)
    assert report.ok
    assert [ep.max_belief_error for ep in report.episodes] == [0.0, 0.0]
    assert report == audit_traces(v1_config(), read_traces(V1_TRACE))


def test_a_v1_trace_reads_as_the_v2_trace():
    # read_traces turns each version 1 list of decimals into the base64
    # string of its float64 bytes, which the version 2 writer wrote.
    v1, v2 = read_traces(V1_TRACE), read_traces(V2_TRACE)
    assert len(v1) == len(v2) == 2
    for old, new in zip(v1, v2):
        assert (old.steps, old.obligations, old.end) == (new.steps, new.obligations, new.end)
        assert (old.version, new.version) == (1, 2)
        assert {**old.header, "version": 2} == new.header


def test_a_malformed_v1_header_belief_is_refused_by_the_reader(tmp_path):
    def malform(rec):
        rec["initial_belief"][2] = "0.0"

    with pytest.raises(ConfigError) as err:
        read_traces(tampered(V1_TRACE, tmp_path, 0, None, malform))
    assert str(err.value) == (
        "episode 0 header: belief is not a list of numbers: entry 2 is '0.0'")


@pytest.mark.parametrize("edit, size", [
    (lambda rec: rec.update(belief=rec["belief"][:-1]), 120),
    (lambda rec: rec.pop("belief"), 0),
], ids=["short-by-an-entry", "missing"])
def test_a_v1_belief_of_the_wrong_length_is_a_config_error(tmp_path, edit, size):
    # read_traces encodes the list whatever its length; the audit then
    # counts its bytes, as it does a version 2 or 3 string's.
    with pytest.raises(ConfigError) as err:
        audit_traces(v1_config(), read_traces(tampered(V1_TRACE, tmp_path, 1, 4, edit)))
    assert str(err.value) == f"episode 1 step 4: belief has {size} bytes, 16 states need 128"


def test_the_v2_fixture_is_what_the_v2_writer_wrote():
    cfg = v1_config()
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=2)
    text = v2_trace_text(result, cfg.name, cfg.shield_mode, cfg.horizon)
    assert text.encode("ascii") == V2_TRACE.read_bytes()


def test_v2_differs_from_v1_only_in_its_belief_encoding():
    # Version 1 in each header and each belief as a list of decimals,
    # through json.dumps as the version 1 writer did, turn the version 2
    # fixture into the version 1 fixture's bytes.
    text = v1_trace_text(V2_TRACE.read_text())
    assert text.count("\n") == 2 * (1 + 12 + 1)
    assert text.encode("ascii") == V1_TRACE.read_bytes()
