"""Trace files and audit replay: round trips, tamper detection, the
finite-trace oracle columns, and version 1 traces, which stay readable."""

import base64
import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from beliefshield import (
    Belief,
    ConfigError,
    Trace,
    TraceMismatch,
    audit_episode,
    audit_traces,
    read_traces,
    replay_episode,
    run_batch,
    write_summary,
    write_traces,
)
from beliefshield.sim import BatchResult
from beliefshield.traceio import SUMMARY_FIELDS, TRACE_VERSION, encode_belief
from beliefshield.presets import corridor_config

from conftest import decode_belief, edit_belief

# Written by `write_traces` at commit 3a765b5, the last version 1 writer,
# from `run_batch(v1_config().to_scenario(), base_seed=7, episodes=2)`:
# 2 episodes of 12 steps, beliefs as lists of decimals.
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

    empty = tmp_path / "empty.trace.jsonl"
    empty.write_text("\n")
    with pytest.raises(ConfigError) as err:
        read_traces(empty)
    assert "no episodes found" in str(err.value)


# --------------------------------------------------------------------------
# Replay and audit


def test_replay_recomputes_beliefs_exactly(corridor_run):
    cfg, result, path = corridor_run
    ep = read_traces(path)[0]
    contexts, max_err = replay_episode(cfg, ep)
    assert len(contexts) == len(result.traces[0].steps)
    assert max_err == 0.0
    for ctx, step in zip(contexts, result.traces[0].steps):
        assert np.array_equal(ctx.belief_after.probs, step.belief.probs)
        assert ctx.verdict == step.verdict


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
        replay_episode(cfg, read_traces(tamper(path, tmp_path, bump))[0])
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


def test_out_of_range_indices_are_config_errors(corridor_run, tmp_path):
    cfg, _, path = corridor_run

    def clobber(rec):
        if rec.get("type") == "step" and rec["episode"] == 0 and rec["step"] == 3:
            rec["executed"] = 99

    with pytest.raises(ConfigError) as err:
        replay_episode(cfg, read_traces(tamper(path, tmp_path, clobber))[0])
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
    cfg = v1_config()
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=2)
    path = tmp_path / "v2.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    v1_lines = V1_TRACE.read_text().splitlines()
    v2_lines = path.read_text().splitlines()
    assert len(v2_lines) == len(v1_lines) == 2 * (1 + 12 + 1)
    beliefs = 0
    for old_line, new_line in zip(v1_lines, v2_lines):
        old, new = json.loads(old_line), json.loads(new_line)
        if old["type"] == "header":
            assert (old.pop("version"), new.pop("version")) == (1, 2)
        key = {"header": "initial_belief", "step": "belief"}.get(old["type"])
        if key is not None:
            decimals = np.array(old.pop(key), dtype=float)
            decoded = decode_belief(new.pop(key))
            assert np.array_equal(decoded.view("<u8"), decimals.view("<u8"))
            beliefs += 1
        assert new == old
    assert beliefs == 2 * (1 + 12)
