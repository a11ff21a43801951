"""Command line interface.

Subcommands:
    validate CONFIG           parse and validate a scenario file
    run CONFIG                run a batch and write trace + summary files
    audit CONFIG TRACE        replay a trace file and re-check it
    sweep CONFIG --param ...  rerun a batch across a monitor-parameter grid

Exit codes: 0 success; 1 a check failed (invalid scenario under
`validate`, violations under `run --strict`, any audit mismatch);
2 usage errors, including unreadable or malformed inputs. Output files
go to --out, defaulting to $BELIEFSHIELD_OUT or ./runs.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace
from pathlib import Path

from .audit import audit_traces
from .config import (RUN_SETTINGS, ScenarioConfig, load_config, monitor_from_settings,
                     monitor_settings)
from .errors import BeliefShieldError, ConfigError, TraceMismatch
from .ldtl import describe
from .sim import SHIELD_MODES, BatchResult, run_batch
from .traceio import read_traces, write_summary, write_traces

SWEEP_PARAMS = ("rho", "eps", "gamma", "delta")

SWEEP_FIELDS = ("param", "value", "episodes", "total_steps", "violation_steps",
                "episodes_with_violation", "override_steps", "deadlocks",
                "mean_discharge_step")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefshield",
        description="Belief-space runtime monitoring and action shielding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="parse and validate a scenario file")
    p_val.add_argument("config", help="scenario YAML file")

    p_run = sub.add_parser("run", help="run episodes and write trace/summary files")
    p_run.add_argument("config", help="scenario YAML file")
    _add_run_flags(p_run)
    p_run.add_argument("--strict", action="store_true",
                       help="abort each episode at its first violation and "
                            "exit 1 if any episode had one")

    p_aud = sub.add_parser("audit", help="replay a trace file and re-check it")
    p_aud.add_argument("config", help="scenario YAML file the trace was run with")
    p_aud.add_argument("trace", help="trace .jsonl file to audit")

    p_sw = sub.add_parser("sweep", help="rerun a batch across monitor parameters")
    p_sw.add_argument("config", help="scenario YAML file")
    p_sw.add_argument("--param", required=True, choices=SWEEP_PARAMS,
                      help="monitor parameter to vary")
    p_sw.add_argument("--values", required=True,
                      help="comma-separated parameter values")
    _add_run_flags(p_sw)
    return parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="override the base RNG seed")
    p.add_argument("--episodes", type=int, help="override the episode count")
    p.add_argument("--horizon", type=int, help="override the episode length")
    p.add_argument("--shield", choices=SHIELD_MODES, help="override the shield mode")
    p.add_argument("--out", help="output directory (default: $BELIEFSHIELD_OUT or ./runs)")


def _out_dir(arg: str | None) -> Path:
    out = Path(arg or os.environ.get("BELIEFSHIELD_OUT") or "runs")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    updates = {}
    for key, _, lower in RUN_SETTINGS:
        value = getattr(args, key)
        if value is not None:
            if value < lower:
                raise ConfigError(f"{key} must be >= {lower}", f"--{key}")
            updates[key] = value
    if args.shield is not None:
        updates["shield_mode"] = args.shield
    return replace(cfg, **updates) if updates else cfg


def _print_aggregate(agg: dict) -> None:
    for key, value in agg.items():
        if key == "mean_discharge_step":
            value = "-" if value is None else f"{value:.3f}"
        print(f"{key}: {value}")


def _run_batch(cfg: ScenarioConfig, strict: bool = False) -> BatchResult:
    scenario = cfg.to_scenario(abort_on_violation=strict)
    return run_batch(scenario, cfg.seed, cfg.episodes)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    m = cfg.model
    print(f"scenario: {cfg.name}")
    print(f"states: {m.n_states}, joint actions: {m.n_joint_actions}, "
          f"joint observations: {m.n_joint_observations}")
    print(f"formula: {describe(cfg.formula)}")
    for ob in cfg.start_monitor.obligations:
        print(f"obligation {ob.oid}: {ob.label}")
    print("OK")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = _run_batch(cfg, strict=args.strict)
    out = _out_dir(args.out)
    trace_path = out / f"{cfg.name}.trace.jsonl"
    summary_path = out / f"{cfg.name}.summary.csv"
    write_traces(result, trace_path, cfg.name, cfg.shield_mode, cfg.horizon)
    write_summary(result, summary_path)
    agg = result.aggregate()
    _print_aggregate(agg)
    print(f"trace: {trace_path}")
    print(f"summary: {summary_path}")
    if args.strict and agg["violation_steps"]:
        print("strict mode: violations occurred", file=sys.stderr)
        return 1
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    report = audit_traces(cfg, read_traces(args.trace))
    for ep in report.episodes:
        print(f"episode {ep.episode}: steps={ep.steps} end={ep.end_reason} "
              f"max_belief_error={ep.max_belief_error:.3e}")
        for ob in ep.obligations:
            print(f"  {ob.oid} [{ob.label}] monitor="
                  f"{'clean' if ob.clean else 'violated'}"
                  f"{'' if ob.discharged else ' (pending)'} "
                  f"oracle={'accepts' if ob.oracle else 'rejects'}")
        for msg in ep.verdict_mismatches:
            print(f"  MISMATCH {msg}", file=sys.stderr)
    if not report.ok:
        print("FAIL: recorded verdicts do not match the replay", file=sys.stderr)
        return 1
    print("audit OK")
    return 0


def _sweep_config(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    return replace(cfg, monitor=monitor_from_settings(
        {**monitor_settings(cfg.monitor), param: value}, f"--values {param}={value:g}"))


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"not a number list: {args.values!r}", "--values") from exc
    if not values:
        raise ConfigError("no values given", "--values")
    # Validate the whole grid before running any of it.
    grid = [(v, _sweep_config(cfg, args.param, v)) for v in values]

    out = _out_dir(args.out)
    sweep_path = out / f"{cfg.name}.sweep.csv"
    rows = []
    for value, sub_cfg in grid:
        agg = _run_batch(sub_cfg).aggregate()
        row = {"param": args.param, "value": value, **{
            k: agg[k] for k in SWEEP_FIELDS if k in agg}}
        row["mean_discharge_step"] = ("" if agg["mean_discharge_step"] is None
                                      else round(agg["mean_discharge_step"], 3))
        rows.append(row)
        shown = " ".join(f"{k}={row[k]}" for k in SWEEP_FIELDS if k in row)
        print(shown)
    with open(sweep_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep: {sweep_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"validate": cmd_validate, "run": cmd_run,
                "audit": cmd_audit, "sweep": cmd_sweep}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceMismatch as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except BeliefShieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
