"""beliefshield benchmark: the pipeline load -> compile -> simulate ->
write -> read -> audit on three workloads, with correctness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is used in-tree from src/.
The seed becomes the batch's base seed; the program sees only the
scenario YAML and that seed. Self-check: python3 -m pytest -q perfbench

--trace 0 measures the end-to-end metrics with tracing off. Each pass
is its own process, run one at a time, that sets up from the YAML,
simulates one batch as a closed loop of episodes, writes, reads back
and audits its trace, and reports stage times, per-episode step times
and its peak resident memory. Passes repeat until S seconds have gone,
and at least MIN_PASSES times. Stage rates are medians over passes and
step times are pooled over every episode. The gated figures are
speed-adjusted for the machine's drift (see pipeline.py); the report
prints the wall-clock figures beside them.

--trace 1 runs in this process: one traced set-up, then one untraced
and one traced pass over the same batch. It derives the per-layer
metrics from the spans (see tracing.py) and writes the spans to
perfbench/out/. These figures are wall clock.

Every pass simulates with run_batch. Every run checks that the audit
passes on every episode and that repeated passes write the same trace
bytes (with --trace 1, the untraced and the traced pass, so tracing
changes no byte). A pass that raises fails: all its episodes count as
failed, the error goes into the report, and correct is false. A
function the tracer no longer finds, or a drift hook that made fewer
reference runs than expected, is a NOTE in the report, not a
correctness failure. The last line of output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it
are the report, which is also saved as JSON in perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PASS_SCRIPT = HERE / "pipeline.py"   # one pass per process

MIN_PASSES = 3
# Write, read and audit take well under a second on the smaller
# batches, so each of them is timed over at least this much work.
MIN_STAGE_S = 0.6
STAGES = ("run", "write", "read", "audit")
DEADLINE_S = 170.0  # no pass starts that could end a run later than 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_steps_per_s": "steps/s",
    "step_us.p50": "us",
    "step_us.p90": "us",
    "write_steps_per_s": "steps/s",
    "read_steps_per_s": "steps/s",
    "audit_steps_per_s": "steps/s",
    "pipeline_steps_per_s": "steps/s",
    "peak_mem_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[Path], Path]   # writes the YAML if generated; returns its path
    episodes: int
    expect: tuple[int, int, int]        # n_states, n_joint_actions, n_joint_observations


def shipped(relpath: str) -> Callable[[Path], Path]:
    return lambda out: ROOT / relpath


def generated(lane: int, patrol: int, patrollers: int, shield: str,
              horizon: int, episodes: int) -> Callable[[Path], Path]:
    """A lattice scenario written once per size and generator version;
    writing it is not timed."""
    def make(out: Path) -> Path:
        from lattice import LatticeSize, lattice_config
        from beliefshield import write_config

        # The generator and the package files that define and write the
        # YAML: a change to any of them writes a new file.
        key = hashlib.sha256(
            b"".join(f.read_bytes() for f in (
                HERE / "lattice.py", *(ROOT / "src/beliefshield" / m for m in (
                    "presets.py", "config.py", "model.py"))))
            + repr((lane, patrol, patrollers, shield, horizon, episodes)).encode()
        ).hexdigest()[:12]
        path = out / f"lattice-{lane}x{patrol}x{patrollers}-{shield}-{key}.yaml"
        if not path.exists():
            cfg = lattice_config(LatticeSize(lane, patrol, patrollers), shield,
                                 horizon, episodes)
            tmp = path.with_suffix(".tmp")
            write_config(cfg, tmp)
            tmp.replace(path)
        return path
    return make


# Why each workload: corridor-literal is the paper's scenario, where the
# cost is per-step Python overhead and trace IO plus audit are half the
# pipeline. corridor-off runs the same model without the shield, so a
# shield-only change must show no change there. lattice-conservative is
# 256 states with 12 joint actions and 4 joint observations: barrier
# evaluation and A x Z shield enumeration dominate, and its 1.4 MB YAML
# makes set-up large. Horizon 20 keeps the override phase (the first ~11
# steps of each episode) and some steady steps after it within a pass
# of ~10 s.
WORKLOADS = {
    w.name: w for w in (
        Workload("corridor-literal", shipped("configs/corridor.yaml"), 100, (16, 6, 2)),
        Workload("corridor-off", shipped("configs/corridor_unshielded.yaml"), 100, (16, 6, 2)),
        Workload("lattice-conservative",
                 generated(8, 4, 2, "conservative", horizon=20, episodes=100),
                 100, (256, 12, 4)),
    )
}


def environment() -> dict:
    import numpy
    import yaml

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "blas": blas_name,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


class Checks:
    """Correctness problems found during a run; none are swallowed.
    Notes qualify the measurement but say nothing about correctness."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)
            print(f"CHECK FAILED: {problem}", file=sys.stderr)

    def passes(self, passes: list[dict], workload: Workload) -> None:
        shas = {p["trace_sha256"] for p in passes}
        self.expect(len(shas) == 1, f"repeated passes wrote different trace bytes: {sorted(shas)}")
        for p in passes:
            for stage, runs in p["reference_runs"].items():
                # _timed runs the reference once before its first call and
                # once after each call; the hook runs it once per episode.
                want = 1 + p["stage_calls"][stage] * (p["episodes"] + 1)
                if runs != want:
                    self.notes.append(
                        f"{stage}: the drift hook made {runs} reference runs, not {want}; "
                        "its speed adjustment rests on the runs around each call")
            for err in p["errors"]:
                self.expect(False, err)
        inp = passes[0]["input"]
        sizes = (inp["n_states"], inp["n_joint_actions"], inp["n_joint_observations"])
        self.expect(sizes == workload.expect, f"model sizes {sizes}, expected {workload.expect}")
        self.expect(inp["model_violations"] == 0,
                    f"validate_model found {inp['model_violations']} violations")


def _fingerprint(p: dict) -> dict:
    agg = p["aggregate"]
    return {"trace_sha256": p["trace_sha256"],
            **{k: agg[k] for k in ("override_steps", "violation_steps", "deadlocks",
                                   "total_steps")}}


def _figures(passes: list[dict], adjusted: bool) -> dict:
    """End-to-end figures over passes: stage rates are medians over
    passes, step times are pooled over every episode of every pass."""
    per_pass = []
    for p in passes:
        t = {s: p[f"{s}_s"] / (p["slowdown"][s] if adjusted else 1.0) for s in STAGES}
        per_pass.append({**{f"{s}_steps_per_s": p["steps"] / t[s] for s in STAGES},
                         "pipeline_steps_per_s": p["steps"] / sum(t.values())})
    key = "episode_adjusted_us_per_step" if adjusted else "episode_us_per_step"
    samples = [x for p in passes for x in p[key]]
    figures = {
        "setup_s": statistics.median(
            p["setup_s"] / (p["slowdown"]["setup"] if adjusted else 1.0) for p in passes),
        **{k: statistics.median(r[k] for r in per_pass) for k in per_pass[0]},
        "step_us.p50": statistics.median(samples),
        "step_us.p90": statistics.quantiles(samples, n=10)[8],
        "peak_mem_mb": statistics.median(p["peak_mem_mb"] for p in passes),
    }
    return {k: (figures[k], unit) for k, unit in END_TO_END_UNITS.items()}


def _tail(text: str, lines: int = 12) -> str:
    return "\n".join(text.strip().splitlines()[-lines:])


def failed_report(problems: list[str], attempted: int, failed: int) -> dict:
    """The report of a run that produced no measurement."""
    return {"metrics": {}, "bases": {}, "input": {}, "behaviour": {}, "notes": [],
            "problems": problems, "attempted": attempted, "failed": failed}


def measure(w: Workload, seed: int, seconds: float, out: Path) -> dict:
    """End-to-end metrics, tracing off: passes in fresh processes. A
    pass that fails ends the run; its episodes all count as failed."""
    start = perf_counter()
    path = w.scenario(out)
    checks = Checks()
    passes, longest, lost = [], 0.0, 0
    while len(passes) < MIN_PASSES or (perf_counter() - start < seconds and
                                       perf_counter() - start + longest < DEADLINE_S):
        begun = perf_counter()
        trace_path = out / f"{w.name}-pass{len(passes)}.jsonl"
        cmd = [sys.executable, str(PASS_SCRIPT), str(path), str(seed),
               str(w.episodes), str(trace_path), str(MIN_STAGE_S)]
        remaining = DEADLINE_S - (perf_counter() - start)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, cwd=ROOT, timeout=max(1.0, remaining))
            failure = (None if proc.returncode == 0 else
                       f"pass {len(passes)} exited with {proc.returncode}:\n{_tail(proc.stderr)}")
        except subprocess.TimeoutExpired:
            failure = f"pass {len(passes)} did not end within {remaining:.0f} s"
        trace_path.unlink(missing_ok=True)
        if failure:
            checks.expect(False, failure)
            lost = w.episodes
            break
        passes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        longest = max(longest, perf_counter() - begun)

    attempted = sum(p["episodes"] for p in passes) + lost
    failed = sum(len(p["failed_episodes"]) for p in passes) + lost
    if not passes:
        return failed_report(checks.problems, attempted, failed)
    checks.passes(passes, w)
    samples = sum(len(p["episode_us_per_step"]) for p in passes)
    return {
        "metrics": _figures(passes, adjusted=True),
        "wall_clock": _figures(passes, adjusted=False),
        "bases": {"passes": len(passes), "set-ups": len(passes),
                  "steps per pass": passes[0]["steps"],
                  "episode step-time samples": samples,
                  "error_rate": f"{failed / attempted:.6g} ({failed} of {attempted} episodes)"},
        "input": passes[0]["input"],
        "behaviour": _fingerprint(passes[0]),
        "passes": [{k: v for k, v in p.items() if not k.startswith("episode_")}
                   for p in passes],
        "problems": checks.problems,
        "notes": checks.notes,
        "attempted": attempted,
        "failed": failed,
    }


def measure_traced(w: Workload, seed: int, out: Path) -> dict:
    """Per-layer metrics: one traced set-up, then an untraced and a
    traced pass over the same batch in this process."""
    import pipeline
    from tracing import TARGETS, Spans, Target, Tracer, per_layer_metrics

    path = w.scenario(out)
    tracer = Tracer()
    # The benchmark's own reference runs are traced so that they count
    # as unattributed time, not as time of the layer they interleave.
    targets = TARGETS + (Target("pipeline", "reference_us", "bench.reference"),)
    with tracer.installed(targets), tracer.span("bench.setup"):
        cfg, scenario, _, _ = pipeline.setup(path)
    plain_path, traced_path = out / f"{w.name}-plain.jsonl", out / f"{w.name}-traced.jsonl"
    try:
        plain = pipeline.run_pass(cfg, scenario, seed, w.episodes, plain_path)
        with tracer.installed(targets), tracer.span("bench.pass"):
            traced = pipeline.run_pass(cfg, scenario, seed, w.episodes, traced_path)
    finally:
        for p in (plain_path, traced_path):
            p.unlink(missing_ok=True)

    checks = Checks()
    inp = pipeline.describe_input(cfg, path)
    passes = [dict(p.__dict__, input=inp) for p in (plain, traced)]
    checks.passes(passes, w)

    spans = Spans(tracer)
    span_path = out / f"spans-{w.name}-seed{seed}.csv"
    tracer.write(span_path)
    metrics, bases, reads = per_layer_metrics(
        spans, traced.steps, traced.aggregate["override_steps"], traced.trace_bytes)
    # A function the tracer no longer finds leaves the metrics that read
    # its spans incomplete; they are still printed, and flagged.
    for t in tracer.missing:
        fed = [m for m, names in reads.items()
               if any(t.span == n or t.span.startswith(n + ".") for n in names)]
        checks.notes.append(f"{t.module}.{t.attr} not found to trace; "
                            f"incomplete: {', '.join(fed) or 'no metric'}")
    bases["missing targets"] = [f"{t.module}.{t.attr}" for t in tracer.missing]
    plain_s, traced_s = (sum(getattr(p, f"{s}_s") for s in STAGES) for p in (plain, traced))
    metrics["trace.overhead"] = (traced_s / plain_s, "ratio")
    layer_self = spans.layer_self_ns()
    wall = spans.wall_ns()
    return {
        "metrics": metrics,
        "bases": {**bases, "trace.overhead": f"traced {traced_s:.4f} s over "
                                             f"untraced {plain_s:.4f} s"},
        "self_time_s": {layer: ns / 1e9 for layer, ns in sorted(layer_self.items())
                        if layer != "bench"},
        "unattributed_s": layer_self.get("bench", 0) / 1e9,
        "traced_wall_s": wall / 1e9,
        "spans_file": str(span_path),
        "input": passes[0]["input"],
        "behaviour": _fingerprint(passes[0]),
        "problems": checks.problems,
        "notes": checks.notes,
        "attempted": plain.episodes + traced.episodes,
        "failed": len(plain.failed_episodes) + len(traced.failed_episodes),
    }


def _print_report(name: str, seed: int, trace: int, env: dict, rep: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(f"environment {json.dumps(env)}")
    print(f"input {json.dumps(rep['input'])}")
    print(f"behaviour {json.dumps(rep['behaviour'])}")
    wall = rep.get("wall_clock")
    if wall:
        print(f"  {'metric':<46} {'adjusted':>14} {'wall clock':>14}")
    for key, (value, unit) in rep["metrics"].items():
        raw = f"{wall[key][0]:>14.6g}" if wall else ""
        print(f"  {key:<46} {value:>14.6g} {raw} {unit}")
    print(f"bases {json.dumps(rep['bases'])}")
    if "spans_file" in rep:
        print(f"self time per layer (s) {json.dumps(rep['self_time_s'])}  unattributed "
              f"{rep['unattributed_s']:.6g}  traced wall {rep['traced_wall_s']:.6g}")
        print(f"spans {rep['spans_file']}")
    for note in rep["notes"]:
        print(f"NOTE {note}")
    for problem in rep["problems"]:
        print(f"PROBLEM {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "beliefshield" / "__init__.py").is_file():
        print(f"beliefshield sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)

    env = environment()
    w = WORKLOADS[args.workload]
    try:
        rep = (measure_traced(w, args.seed, OUT) if args.trace
               else measure(w, args.seed, args.seconds, OUT))
    except Exception:
        # Whatever raised, no episode's result can be trusted.
        error = traceback.format_exc()
        print(error, file=sys.stderr)
        rep = failed_report([f"the run raised:\n{_tail(error)}"], w.episodes, w.episodes)
    _print_report(w.name, args.seed, args.trace, env, rep)
    (OUT / f"report-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **rep}, indent=1))
    print(json.dumps({
        "correct": not rep["problems"] and rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rep["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
