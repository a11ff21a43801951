"""End-to-end command line checks, run in process through cli.main."""

import csv
import json

import pytest
import yaml

from beliefshield.cli import SWEEP_FIELDS, _sweep_config, main
from beliefshield.config import config_to_dict, monitor_settings
from beliefshield.presets import corridor_config

from conftest import edit_belief


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


def retarget(trace_path, tmp_path, mutate):
    out = tmp_path / "tampered.trace.jsonl"
    lines = []
    for line in trace_path.read_text().splitlines():
        rec = json.loads(line)
        mutate(rec)
        lines.append(json.dumps(rec, separators=(",", ":")))
    out.write_text("\n".join(lines) + "\n")
    return out


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


def test_audit_flags_tampered_verdict(corridor_yaml, run_dir, tmp_path, capsys):
    def flip(rec):
        if rec.get("type") == "step" and rec["episode"] == 0 and rec["step"] == 3:
            rec["verdict"]["records"][0]["status"] = "fail"
            rec["verdict"]["passed"] = False

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, flip)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 1
    err = capsys.readouterr().err
    assert "MISMATCH" in err
    assert "FAIL: recorded verdicts do not match the replay" in err


def test_audit_flags_tampered_belief(corridor_yaml, run_dir, tmp_path, capsys):
    def bump_first_entry(entries):
        entries[0] += 1e-6

    def bump(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 4:
            edit_belief(rec, "belief", bump_first_entry)

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, bump)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("FAIL:") and "episode 1 step 4" in err


def test_audit_of_a_malformed_trace_is_a_usage_error(corridor_yaml, run_dir, tmp_path,
                                                     capsys):
    def drop(rec):
        if rec.get("type") == "step" and rec["episode"] == 0 and rec["step"] == 2:
            del rec["verdict"]

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, drop)
    assert main(["audit", str(corridor_yaml), str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: episode 0 step 2: malformed verdict")


def test_audit_of_a_numeric_passed_flag_is_a_usage_error(corridor_yaml, run_dir, tmp_path,
                                                         capsys):
    def recast(rec):
        if rec.get("type") == "step" and rec["episode"] == 1 and rec["step"] == 3:
            rec["verdict"]["passed"] = int(rec["verdict"]["passed"])

    bad = retarget(run_dir / "corridor.trace.jsonl", tmp_path, recast)
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
