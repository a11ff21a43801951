"""End-to-end command line checks, run in process through cli.main, and
in a child process where a crash must fail the test, not end pytest."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import beliefshield
from beliefshield.cli import SWEEP_FIELDS, _sweep_config, main
from beliefshield.config import config_to_dict, monitor_settings
from beliefshield.presets import corridor_config

from conftest import COLUMN, edit_belief, edit_trace

V2_TRACE = Path(__file__).resolve().parent / "data" / "corridor_literal_v2.trace.jsonl"


@pytest.fixture(scope="module")
def corridor_yaml(tmp_path_factory):
    data = config_to_dict(corridor_config("literal"))
    path = tmp_path_factory.mktemp("cfg") / "corridor.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return path


@pytest.fixture(scope="module")
def run_dir(corridor_yaml, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = main(["run", str(corridor_yaml), "--episodes", "2", "--out", str(out)])
    assert code == 0
    return out


def retarget(trace_path, tmp_path, episode, step, edit):
    """The trace with one line edited (see conftest.edit_trace)."""
    return edit_trace(trace_path, tmp_path / "tampered.trace.jsonl", episode, step, edit)


def test_validate_ok(corridor_yaml, capsys):
    assert main(["validate", str(corridor_yaml)]) == 0
    out = capsys.readouterr().out
    assert "scenario: corridor" in out
    assert "states: 16, joint actions: 6, joint observations: 2" in out
    assert "obligation 0:always" in out
    assert "obligation 1:eventually" in out
    assert out.rstrip().endswith("OK")


def test_validate_rejects_bad_scenario(corridor_yaml, tmp_path, capsys):
    data = yaml.safe_load(corridor_yaml.read_text())
    data["formula"] = "G F at_goal"
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(data))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid: formula:")


def test_validate_rejects_a_nan_mass(corridor_yaml, tmp_path, capsys):
    text = corridor_yaml.read_text()
    bad = tmp_path / "nan.yaml"
    bad.write_text(text.replace("a1_h1: 0.05", "a1_h1: .nan", 1))
    assert main(["validate", str(bad)]) == 1
    assert "initial.a1_h1: expected a finite number, got nan" in capsys.readouterr().err


def test_validate_of_an_unquoted_off_says_to_quote_it(tmp_path, capsys):
    shipped = Path(__file__).resolve().parent.parent / "configs" / "corridor_unshielded.yaml"
    bare = tmp_path / "bare.yaml"
    bare.write_text(shipped.read_text().replace("shield: 'off'", "shield: off"))
    assert main(["validate", str(bare)]) == 1
    assert capsys.readouterr().err == (
        "invalid: shield: false is not a shield mode; YAML reads an unquoted off as "
        "false, so write 'off'\n")


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 1
    err = capsys.readouterr().err
    assert "invalid:" in err and "cannot read file" in err


def test_run_writes_trace_and_summary(run_dir, capsys):
    trace = run_dir / "corridor.trace.jsonl"
    summary = run_dir / "corridor.summary.csv"
    assert trace.exists() and summary.exists()
    with open(summary, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2


def test_run_prints_aggregate(corridor_yaml, tmp_path, capsys):
    assert main(["run", str(corridor_yaml), "--episodes", "2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "episodes: 2" in out
    assert "violation_steps: 0" in out
    assert "override_steps: 12" in out
    assert "mean_discharge_step: 4.000" in out
    assert f"trace: {tmp_path}" in out
    assert f"summary: {tmp_path}" in out


def test_rerun_is_byte_identical(corridor_yaml, run_dir, tmp_path):
    assert main(["run", str(corridor_yaml), "--episodes", "2",
                 "--out", str(tmp_path)]) == 0
    assert ((tmp_path / "corridor.trace.jsonl").read_bytes()
            == (run_dir / "corridor.trace.jsonl").read_bytes())


def test_run_strict_flags_unshielded_violations(corridor_yaml, tmp_path, capsys):
    code = main(["run", str(corridor_yaml), "--shield", "off", "--strict",
                 "--episodes", "2", "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "strict mode: violations occurred" in captured.err
    assert "episodes_with_violation: 2" in captured.out


def test_run_rejects_bad_override(corridor_yaml, tmp_path, capsys):
    assert main(["run", str(corridor_yaml), "--episodes", "0",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --episodes: episodes must be >= 1")


def test_run_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "cannot read file" in err


def test_run_of_a_predicate_that_overflows_is_a_usage_error(corridor_yaml, tmp_path, capsys):
    # Validation accepts the predicate; its barrier values are -inf and
    # nan, which JSON cannot write.
    data = yaml.safe_load(corridor_yaml.read_text())
    data["predicates"]["near_patroller"] = "0.1 - 1e300 * 1e300 * (b(h1_h1) + b(h2_h2))"
    bad = tmp_path / "overflow.yaml"
    bad.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(["validate", str(bad)]) == 0
    out = tmp_path / "out"
    assert main(["run", str(bad), "--episodes", "2", "--horizon", "5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: episode 0 end: detail.candidate_barriers.0.0:always is nan,"
                          " not a finite number")
    assert not (out / "corridor.trace.jsonl").exists()


@pytest.mark.parametrize("at_goal, start", [
    ("1e200 * 1e200 * (0.5 - (b(a3_h1) + b(a3_h2)))", "-inf"),
    ("1e200 * 1e200 * 0.0 * (0.5 - (b(a3_h1) + b(a3_h2)))", "nan"),
], ids=["-inf", "nan"])
def test_an_eventually_obligation_whose_start_fixes_no_deadline_is_refused(
        at_goal, start, corridor_yaml, tmp_path, capsys):
    # Its reach deadline would be fixed from this value at the first step.
    data = yaml.safe_load(corridor_yaml.read_text())
    data["predicates"]["at_goal"] = at_goal
    bad = tmp_path / "no_deadline.yaml"
    bad.write_text(yaml.safe_dump(data, sort_keys=False))
    why = (f"formula: obligation 1:eventually (F at_goal) has start barrier {start}, "
           "which fixes no reach deadline\n")
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"invalid: {why}"
    out = tmp_path / "out"
    assert main(["run", str(bad), "--episodes", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {why}"
    assert not out.exists()


def test_validate_of_a_file_that_is_not_utf8_is_invalid(corridor_yaml, tmp_path, capsys):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b"# \xff\n" + corridor_yaml.read_bytes())
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"invalid: {bad}: not UTF-8: ")


def test_run_of_a_file_that_is_not_utf8_is_a_usage_error(corridor_yaml, tmp_path, capsys):
    bad = tmp_path / "latin.yaml"
    bad.write_bytes(b"# \xff\n" + corridor_yaml.read_bytes())
    assert main(["run", str(bad), "--episodes", "1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, code, prefix", [
    (["validate", "{cfg}"], 1, "invalid"),
    (["run", "{cfg}", "--episodes", "1", "--out", "{out}"], 2, "error"),
    (["audit", "{cfg}", str(V2_TRACE)], 2, "error"),
], ids=["validate", "run", "audit"])
def test_an_impossible_date_is_reported_at_its_line(command, code, prefix, tmp_path, capsys):
    # YAML 1.1 reads a plain 2001-02-30 as a date, which does not exist.
    text = (Path(__file__).resolve().parent.parent / "configs" / "corridor.yaml").read_text()
    assert text.splitlines()[981] == "seed: 7"
    bad = tmp_path / "date.yaml"
    bad.write_text(text.replace("\nseed: 7\n", "\nseed: 2001-02-30\n"))
    assert main([arg.format(cfg=bad, out=tmp_path / "out") for arg in command]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{prefix}: {bad}: not valid YAML: cannot read '2001-02-30' "
                          "as a timestamp: day is out of range for month")
    assert "line 982, column 7" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# `yaml.load` crashes on a file nested this deep, since libyaml's
# composer recurses in C; the reader leaves a file to it when it holds an
# explicit tag. Without one, reading libyaml's events to the end of the
# file takes seconds at 20,000 levels and a minute at 100,000.
@pytest.mark.parametrize("depth, tagged", [(100_000, True), (20_000, False)],
                         ids=["tagged-100000", "plain-20000"])
def test_validate_refuses_a_deeply_nested_file_in_a_child_process(depth, tagged, tmp_path):
    text = (Path(__file__).resolve().parent.parent / "configs" / "corridor.yaml").read_text()
    deep = tmp_path / "deep.yaml"
    deep.write_text(text + ("b: !!str x\n" if tagged else "")
                    + "deep: " + "[" * depth + "]" * depth + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(beliefshield.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-m", "beliefshield.cli", "validate", str(deep)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert run.returncode == 1, run.stderr[-2000:]
    assert run.stderr.startswith(
        f"invalid: {deep}: not valid YAML: nested deeper than 100 levels\n")
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("command", [
    ["run"], ["sweep", "--param", "gamma", "--values", "0.5,0.9"]], ids=["run", "sweep"])
def test_an_out_that_cannot_be_a_directory_fails_before_any_episode(
        command, corridor_yaml, tmp_path, monkeypatch, capsys):
    ran = []
    monkeypatch.setattr("beliefshield.cli.run_batch", lambda *args: ran.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    argv = [command[0], str(corridor_yaml), *command[1:], "--episodes", "1",
            "--out", str(blocker / "sub")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"error: --out: cannot create directory '{blocker / 'sub'}': ")
    assert ran == []


def test_out_dir_env_fallback(corridor_yaml, tmp_path, monkeypatch):
    monkeypatch.setenv("BELIEFSHIELD_OUT", str(tmp_path / "from_env"))
    assert main(["run", str(corridor_yaml), "--episodes", "1"]) == 0
    assert (tmp_path / "from_env" / "corridor.trace.jsonl").exists()


def test_audit_accepts_own_output(corridor_yaml, run_dir, capsys):
    trace = run_dir / "corridor.trace.jsonl"
    assert main(["audit", str(corridor_yaml), str(trace)]) == 0
    out = capsys.readouterr().out
    assert "episode 0: steps=200 end=horizon" in out
    assert "oracle=accepts" in out
    assert "audit OK" in out


@pytest.mark.parametrize("version", [1, 2])
def test_audit_accepts_the_older_versions_fixtures(corridor_yaml, version, capsys):
    fixture = V2_TRACE.with_name(f"corridor_literal_v{version}.trace.jsonl")
    assert main(["audit", str(corridor_yaml), str(fixture)]) == 0
    assert "audit OK" in capsys.readouterr().out


def test_audit_flags_tampered_verdict(corridor_yaml, run_dir, tmp_path, capsys):
    def flip(row):
        row[COLUMN["verdict"]][0][0] = "fail"

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, 0, 3, flip)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err
    assert "FAIL: recorded verdicts do not match the replay" in err


def test_audit_flags_tampered_belief(corridor_yaml, run_dir, tmp_path, capsys):
    def bump_first_entry(entries):
        entries[0] += 1e-6

    def bump(row):
        edit_belief(row, COLUMN["belief"], bump_first_entry)

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, 1, 4, bump)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and "episode 1 step 4" in err


def test_audit_of_a_malformed_trace_is_a_usage_error(corridor_yaml, run_dir, tmp_path,
                                                     capsys):
    def drop(row):
        row[COLUMN["verdict"]] = None

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, 0, 2, drop)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: episode 0 step 2: malformed verdict")


def test_audit_of_a_numeric_passed_flag_is_a_usage_error(corridor_yaml, run_dir, tmp_path,
                                                         capsys):
    # Only versions 1 and 2 record a passed flag.
    def recast(rec):
        rec["verdict"]["passed"] = int(rec["verdict"]["passed"])

    bad = retarget(V2_TRACE, tmp_path, 1, 3, recast)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: episode 1 step 3: malformed verdict: passed is 1, not a boolean")


def test_audit_of_a_trace_that_is_not_utf8_is_a_usage_error(corridor_yaml, run_dir, tmp_path,
                                                           capsys):
    lines = (run_dir / "corridor.trace.jsonl").read_bytes().split(b"\n")
    lines[1] = lines[1][:40] + b"\xff" + lines[1][40:]
    bad = tmp_path / "latin.trace.jsonl"
    bad.write_bytes(b"\n".join(lines))
    assert main(["audit", str(corridor_yaml), str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: not UTF-8: ")


def test_validate_and_audit_compile_the_monitor_once(corridor_yaml, run_dir, compile_calls,
                                                    capsys):
    assert main(["validate", str(corridor_yaml)]) == 0
    assert len(compile_calls) == 1
    trace = run_dir / "corridor.trace.jsonl"
    assert main(["audit", str(corridor_yaml), str(trace)]) == 0
    assert len(compile_calls) == 2


def test_sweep_writes_grid_csv(corridor_yaml, tmp_path, capsys):
    code = main(["sweep", str(corridor_yaml), "--param", "gamma",
                 "--values", "0.5,0.9", "--episodes", "1", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "corridor.sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(SWEEP_FIELDS)
    assert [r["param"] for r in rows] == ["gamma", "gamma"]
    assert [r["value"] for r in rows] == ["0.5", "0.9"]
    assert all(r["violation_steps"] == "0" for r in rows)
    assert "sweep:" in capsys.readouterr().out


@pytest.mark.parametrize("param, value", [
    ("delta", 0.02), ("gamma", 0.25), ("rho", 0.5), ("eps", 0.3)])
def test_sweep_changes_only_its_parameter(param, value):
    base = corridor_config("literal")
    swept = _sweep_config(base, param, value)
    before, after = monitor_settings(base.monitor), monitor_settings(swept.monitor)
    assert after == {**before, param: value}
    assert before[param] != value


def test_sweep_rejects_non_numeric_values(corridor_yaml, tmp_path, capsys):
    assert main(["sweep", str(corridor_yaml), "--param", "rho",
                 "--values", "a,b", "--out", str(tmp_path)]) == 2
    assert "not a number list" in capsys.readouterr().err


def test_sweep_validates_grid_before_running(corridor_yaml, tmp_path, capsys):
    assert main(["sweep", str(corridor_yaml), "--param", "rho",
                 "--values", "0.5,1.5", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--values rho=1.5" in err
    assert not (tmp_path / "corridor.sweep.csv").exists()
    assert main(["sweep", str(corridor_yaml), "--param", "delta",
                 "--values", "0.01,inf", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "--values delta=inf: delta must be positive and finite, got inf" in err
    assert not (tmp_path / "corridor.sweep.csv").exists()


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
