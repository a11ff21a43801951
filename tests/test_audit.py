"""Trace files and audit replay: round trips, tamper detection, the
finite-trace oracle columns, and version 1 traces, which stay readable."""

import base64
import csv
import json
import math
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
from beliefshield import audit
from beliefshield.audit import _same_detail
from beliefshield.monitor import ObligationRecord, StepVerdict, check_step
from beliefshield.sim import BatchResult, TraceStep
from beliefshield.traceio import SUMMARY_FIELDS, TRACE_VERSION, _step_line, encode_belief
from beliefshield.presets import corridor_config

from conftest import decode_belief, edit_belief

# `run_batch(v1_config().to_scenario(), base_seed=7, episodes=2)` as the
# version 1 writer (commit 3a765b5) wrote it: 2 episodes of 12 steps,
# beliefs as lists of decimals. test_v2_differs_from_v1_only_in_its_belief_encoding
# rebuilds it byte for byte from the version 2 trace of the same batch.
V1_TRACE = Path(__file__).resolve().parent / "data" / "corridor_literal_v1.trace.jsonl"


def v1_config():
    return replace(corridor_config("literal"), horizon=12)


@pytest.fixture(scope="module")
def corridor_run(tmp_path_factory):
    cfg = corridor_config("literal")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=3)
    path = tmp_path_factory.mktemp("traces") / "corridor.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return cfg, result, path


def bump_first_entry(entries):
    entries[0] += 1e-6


def dump_line(rec: dict) -> str:
    return json.dumps(rec, separators=(",", ":"))


def tamper(path, tmp_path, mutate):
    """Apply mutate(rec) to each parsed line; write the result next door."""
    out = tmp_path / "tampered.trace.jsonl"
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        mutate(rec)
        lines.append(dump_line(rec))
    out.write_text("\n".join(lines) + "\n")
    return out


# --------------------------------------------------------------------------
# Writing and reading


def test_trace_file_round_trip(corridor_run):
    cfg, result, path = corridor_run
    episodes = read_traces(path)
    assert [ep.episode for ep in episodes] == [0, 1, 2]
    for ep, trace in zip(episodes, result.traces):
        assert ep.header["scenario"] == "corridor"
        assert ep.header["shield"] == "literal"
        assert ep.header["horizon"] == 200
        assert ep.header["base_seed"] == cfg.seed
        assert ep.header["initial_state"] == trace.initial_state
        assert ep.header["version"] == TRACE_VERSION == 2
        assert decode_belief(ep.header["initial_belief"]).tobytes() == \
            trace.initial_belief.probs.tobytes()
        assert len(ep.steps) == len(trace.steps)
        assert ep.end["reason"] == trace.end_reason
        first = ep.steps[0]
        assert first["nominal"] == trace.steps[0].nominal
        assert first["executed"] == trace.steps[0].executed
        assert first["overridden"] == trace.steps[0].overridden
        assert decode_belief(first["belief"]).tobytes() == trace.steps[0].belief.probs.tobytes()
        statuses = [r["status"] for r in first["verdict"]["records"]]
        assert len(statuses) == 2


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
def test_a_line_of_another_episode_is_a_config_error(corridor_run, tmp_path, kind, episode, lineno):
    _, _, path = corridor_run
    lines = path.read_text().splitlines()
    if lineno is None:
        lineno = next(i for i, line in enumerate(lines, start=1)
                      if json.loads(line)["type"] == "end")
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
    write_traces(BatchResult(base_seed=0, traces=(trace,)), path, "tiny", "literal", 5)
    ep = read_traces(path)[0]
    assert ep.end["reason"] == "deadlock"
    # JSON stringifies the integer action keys.
    assert ep.end["detail"]["candidate_barriers"] == {"0": {"0:always": -0.5}}


def reference_step_line(episode: int, s: TraceStep) -> str:
    """A step line as the dict-and-json.dumps writer wrote it."""
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
    }, separators=(",", ":"), allow_nan=False)


FINITE = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1]) | st.floats(
    allow_nan=False, allow_infinity=False)
TEXT = st.sampled_from(['', 'a "quoted" \\ back\\slash', '\x00\x1f\n\r\t\x7f\u2028',
                        'caf\u00e9 \u2603 \U0001f600', '\ud800']) | st.text()
COUNT = st.integers(0, 2**40)
RECORD = st.builds(ObligationRecord, oid=TEXT, kind=TEXT,
                   status=st.sampled_from(["pass", "fail", "discharged", "inactive"]),
                   barrier=st.none() | FINITE, detail=TEXT)
TRACE_STEP = st.builds(
    TraceStep, step=COUNT, prev_state=COUNT, nominal=COUNT, executed=COUNT,
    overridden=st.booleans(), observation=COUNT, next_state=COUNT,
    belief=st.lists(FINITE, min_size=1, max_size=4).map(Belief),
    verdict=st.builds(StepVerdict, step=COUNT, records=st.lists(RECORD, max_size=3).map(tuple)),
    realized_reward=FINITE, nominal_reward=st.none() | FINITE,
    candidate_rewards=st.lists(st.tuples(COUNT, FINITE), max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(episode=COUNT, s=TRACE_STEP)
@example(episode=0, s=TraceStep(
    step=1, prev_state=0, nominal=0, executed=0, overridden=False, observation=0,
    next_state=0, belief=Belief((1.0,)), verdict=StepVerdict(1, ()), realized_reward=-0.0))
def test_a_step_line_has_the_bytes_json_dumps_writes(episode, s):
    assert _step_line(episode, s) == reference_step_line(episode, s)


def tiny_step(**changes) -> TraceStep:
    step = TraceStep(
        step=1, prev_state=0, nominal=0, executed=1, overridden=True, observation=0,
        next_state=0, belief=Belief((1.0,)),
        verdict=StepVerdict(1, (ObligationRecord("0:always", "always", "pass", 0.25),
                                ObligationRecord("1:eventually", "eventually", "pass", -0.5))),
        realized_reward=1.0, nominal_reward=0.5, candidate_rewards=((1, 0.75), (2, 0.5)))
    return replace(step, **changes)


@pytest.mark.parametrize("value, text", [(math.inf, "inf"), (-math.inf, "-inf"),
                                         (math.nan, "nan")], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where, field, step, detail", [
    ("step 1", "verdict.records[1].barrier",
     lambda v: tiny_step(verdict=StepVerdict(1, (
         ObligationRecord("0:always", "always", "pass", 0.25),
         ObligationRecord("1:eventually", "eventually", "pass", v)))), None),
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
        write_traces(BatchResult(base_seed=0, traces=(trace,)), path, "tiny", "literal", 5)
    assert str(err.value) == f"episode 3 {where}: {field} is {text}, not a finite number"
    assert not path.exists()


# --------------------------------------------------------------------------
# Malformed files


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
    for version in (99, 0, 3, True, 2.0, "2", None):
        header["version"] = version
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([dump_line(header)] + lines[1:]))
        assert f"unsupported trace version {version!r}" in str(err.value)

    header["version"] = 1
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
    end_idx = next(i for i, l in enumerate(lines)
                   if json.loads(l)["type"] == "end")
    end = json.loads(lines[end_idx])
    end["steps"] += 1
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite(lines[:end_idx] + [dump_line(end)] + lines[end_idx + 1:]))
    assert "claims" in str(err.value)

    # A step number or a step count that only equals an integer: `true`
    # and `1.0` both equal 1 in Python.
    for value in (True, 1.0):
        step = json.loads(lines[1])
        step["step"] = value
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

    unknown = json.loads(lines[1])
    unknown["type"] = "banana"
    with pytest.raises(ConfigError) as err:
        read_traces(rewrite([lines[0], dump_line(unknown)] + lines[2:]))
    assert "unknown record type 'banana'" in str(err.value)

    for not_an_object in ("[1, 2]", "5", '"step"', "null"):
        with pytest.raises(ConfigError) as err:
            read_traces(rewrite([lines[0], not_an_object] + lines[2:]))
        assert "bad.trace.jsonl:2: expected a JSON object" in str(err.value)

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


# --------------------------------------------------------------------------
# Replay and audit


def test_replay_recomputes_beliefs_exactly(corridor_run, monkeypatch):
    cfg, result, path = corridor_run
    verdicts = []

    def recording_check_step(mon, values):
        verdict, successor = check_step(mon, values)
        verdicts.append(verdict)
        return verdict, successor

    monkeypatch.setattr(audit, "check_step", recording_check_step)
    report = audit_traces(cfg, read_traces(path))
    assert [ep.max_belief_error for ep in report.episodes] == [0.0] * len(result.traces)
    assert verdicts == [step.verdict for trace in result.traces for step in trace.steps]


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


def test_a_clean_v2_audit_decodes_no_belief(corridor_run, monkeypatch):
    cfg, _, path = corridor_run
    episodes = read_traces(path)
    calls = []
    real = base64.b64decode
    monkeypatch.setattr(base64, "b64decode",
                        lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    report = audit_traces(cfg, episodes)
    assert report.ok and all(ep.max_belief_error == 0.0 for ep in report.episodes)
    assert calls == []


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
        assert ep.steps[0]["executed"] == trace.steps[0].executed
        assert ep.steps[0]["next_state"] == trace.steps[0].next_state
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


def test_tampered_belief_raises_trace_mismatch(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def bump(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 5:
            edit_belief(rec, "belief", bump_first_entry)

    bad = tamper(path, tmp_path, bump)
    with pytest.raises(TraceMismatch) as err:
        audit_traces(cfg, read_traces(bad))
    assert err.value.episode == 1
    assert err.value.step == 5
    assert err.value.max_error == pytest.approx(1e-6, rel=0.1)


def test_tampered_initial_belief_is_step_zero_mismatch(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def bump(rec):
        if rec.get("type") == "header" and rec["episode"] == 0:
            edit_belief(rec, "initial_belief", bump_first_entry)

    with pytest.raises(TraceMismatch) as err:
        audit_episode(cfg, read_traces(tamper(path, tmp_path, bump))[0])
    assert err.value.step == 0


def test_tampered_verdict_is_a_mismatch_not_an_exception(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def flip(rec):
        if rec.get("type") == "step" and rec["episode"] == 0 and rec["step"] == 7:
            rec["verdict"]["records"][0]["status"] = "fail"
            rec["verdict"]["passed"] = False

    report = audit_traces(cfg, read_traces(tamper(path, tmp_path, flip)))
    assert not report.ok
    bad = report.episodes[0]
    assert not bad.ok
    assert len(bad.verdict_mismatches) == 2
    assert all("step 7" in s for s in bad.verdict_mismatches)
    assert report.episodes[1].ok


@pytest.mark.parametrize("field, value",
                         [("barrier", 5.0), ("detail", "rewritten"), ("kind", "next")])
def test_tampered_record_field_is_a_mismatch(corridor_run, tmp_path, field, value):
    cfg, _, path = corridor_run

    def edit(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 9:
            rec["verdict"]["records"][0][field] = value

    report = audit_traces(cfg, read_traces(tamper(path, tmp_path, edit)))
    assert not report.ok
    assert [ep.episode for ep in report.episodes if not ep.ok] == [1]
    assert report.episodes[1].verdict_mismatches == (
        "step 9: recorded and replayed verdicts differ on ['0:always']",)


def test_reordered_records_are_a_mismatch(corridor_run, tmp_path):
    # The writer lists records in the monitor's obligation order, and the
    # audit compares them position by position.
    cfg, _, path = corridor_run

    def swap(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 9:
            rec["verdict"]["records"].reverse()

    report = audit_traces(cfg, read_traces(tamper(path, tmp_path, swap)))
    assert [ep.episode for ep in report.episodes if not ep.ok] == [1]
    assert report.episodes[1].verdict_mismatches == (
        "step 9: recorded and replayed verdicts differ on ['0:always', '1:eventually']",)


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


def test_the_first_fault_in_file_order_is_raised(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def two_faults(rec):
        if rec.get("type") == "step" and rec["episode"] == 0:
            if rec["step"] == 3:
                rec["verdict"].pop("passed")
            if rec["step"] == 8:
                edit_belief(rec, "belief", bump_first_entry)

    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(tamper(path, tmp_path, two_faults)))
    assert str(err.value).startswith("episode 0 step 3: malformed verdict")


def test_out_of_range_indices_are_config_errors(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def clobber(rec):
        if rec.get("type") == "step" and rec["episode"] == 0 and rec["step"] == 3:
            rec["executed"] = 99

    with pytest.raises(ConfigError) as err:
        audit_episode(cfg, read_traces(tamper(path, tmp_path, clobber))[0])
    assert "executed action 99 out of range" in str(err.value)
    assert "episode 0 step 3" in str(err.value)


# A null entry exists only in version 1's decimal lists.
@pytest.mark.parametrize("version, record, value", [
    (2, "header", float("nan")), (2, "step", float("nan")), (1, "step", None),
    (1, "header", float("nan")), (1, "step", float("nan")),
], ids=["header-nan", "step-nan", "step-null", "v1-header-nan", "v1-step-nan"])
def test_non_finite_belief_is_a_mismatch(corridor_run, tmp_path, version, record, value):
    cfg, _, path = corridor_run if version == 2 else (v1_config(), None, V1_TRACE)
    key = "initial_belief" if record == "header" else "belief"

    def poison(rec):
        if rec.get("type") == record and rec["episode"] == 1 and rec.get("step", 0) in (0, 6):
            if version == 1:
                rec[key] = [value] * len(rec[key])
            else:
                edit_belief(rec, key, lambda entries: entries.fill(value))

    with pytest.raises(TraceMismatch) as err:
        audit_traces(cfg, read_traces(tamper(path, tmp_path, poison)))
    assert (err.value.episode, err.value.step) == (1, 0 if record == "header" else 6)


@pytest.mark.parametrize("edit", [
    lambda rec: rec.pop("verdict"),
    lambda rec: rec["verdict"].pop("passed"),
    lambda rec: rec["verdict"]["records"][0].pop("oid"),
    lambda rec: rec["verdict"].update(records=5),
    lambda rec: rec.update(belief="abc"),
    lambda rec: rec.update(belief=None),
    lambda rec: rec.update(belief=rec["belief"][:8] + "!" + rec["belief"][8:]),
    lambda rec: rec.update(belief=decode_belief(rec["belief"]).tolist()),
    lambda rec: rec.update(belief=encode_belief(decode_belief(rec["belief"])[:-1])),
    lambda rec: rec.update(belief=base64.b64encode(
        base64.b64decode(rec["belief"])[:-1]).decode()),
], ids=["no-verdict", "no-passed", "no-oid", "records-not-a-list", "belief-not-numbers",
        "belief-null", "belief-not-base64", "belief-as-v1-decimals", "belief-short-by-an-entry",
        "belief-short-by-a-byte"])
def test_malformed_step_is_a_config_error(corridor_run, tmp_path, edit):
    cfg, _, path = corridor_run

    def malform(rec):
        if rec.get("type") == "step" and rec["episode"] == 2 and rec["step"] == 8:
            edit(rec)

    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(tamper(path, tmp_path, malform)))
    assert str(err.value).startswith("episode 2 step 8: ")


@pytest.mark.parametrize("value", [1, 0, "true", None], ids=["1", "0", "string", "null"])
def test_a_passed_flag_that_is_not_a_boolean_is_a_config_error(corridor_run, tmp_path, value):
    # 1 == True, so a number compared as a flag would pass the audit.
    cfg, _, path = corridor_run

    def recast(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 5:
            rec["verdict"]["passed"] = value

    with pytest.raises(ConfigError) as err:
        audit_traces(cfg, read_traces(tamper(path, tmp_path, recast)))
    assert str(err.value) == (
        f"episode 1 step 5: malformed verdict: passed is {value!r}, not a boolean")


# --------------------------------------------------------------------------
# Version 1 traces


def test_a_v1_trace_audits_clean():
    episodes = read_traces(V1_TRACE)
    assert [(ep.version, len(ep.steps)) for ep in episodes] == [(1, 12), (1, 12)]
    report = audit_traces(v1_config(), episodes)
    assert report.ok
    assert [ep.max_belief_error for ep in report.episodes] == [0.0, 0.0]


def test_v2_differs_from_v1_only_in_its_belief_encoding(tmp_path):
    # Version 1 in each header and each belief as a list of decimals,
    # through json.dumps as the version 1 writer did, turn the version 2
    # trace of the fixture's batch into the fixture's bytes.
    cfg = v1_config()
    assert cfg.seed == 7
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=2)
    path = tmp_path / "v2.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    lines = []
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        if rec["type"] == "header":
            assert rec["version"] == 2
            rec.update(version=1,
                       initial_belief=decode_belief(rec["initial_belief"]).tolist())
        elif rec["type"] == "step":
            rec["belief"] = decode_belief(rec["belief"]).tolist()
        lines.append(json.dumps(rec, separators=(",", ":")))
    assert len(lines) == 2 * (1 + 12 + 1)
    assert ("\n".join(lines) + "\n").encode("ascii") == V1_TRACE.read_bytes()
