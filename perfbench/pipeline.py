"""One pass of the beliefshield pipeline: load -> compile -> simulate ->
write -> read -> audit, timed stage by stage through the public API.

Every call into the package goes through a module attribute
(`sim.run_episode`, `traceio.write_traces`, ...), so the tracer in
tracing.py can wrap it at that import site.

Machine speed. The benchmark is meant for small shared machines whose
speed drifts by 15-30% within seconds, which swamps the differences a
change makes. So a fixed pure-Python reference computation
(`reference_us`) runs before and after every stage call and after every
episode a stage handles: after each `run_episode`, after each episode's
end line is formatted (`traceio._end_line`), after each `EpisodeRecord`
is read back and after each `audit_episode`. Its mean time over a stage,
divided by REFERENCE_US, is the machine's slowdown during that stage,
and the stage's speed-adjusted time is its wall time divided by that
factor. The time of reference runs is never counted in a stage's wall
time. A hook whose name no longer exists is skipped; PassResult counts
each stage's reference runs, so the report can flag a stage whose
adjustment rests on fewer runs than it should.

Run as a script, this file is one measurement process: it sets up from
the scenario YAML, runs one pass, and prints a JSON record as its last
line. An exception anywhere in the pass ends the process with a non-zero
exit code and the traceback on stderr. Usage:

    python3 perfbench/pipeline.py SCENARIO.yaml SEED EPISODES TRACE.jsonl MIN_STAGE_S

MIN_STAGE_S is the least time over which write, read and audit are each
timed (see run_pass).
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from beliefshield import audit, config, sim, traceio  # noqa: E402
from beliefshield.ldtl import expr_text  # noqa: E402
from beliefshield.model import validate_model  # noqa: E402

# Nominal time of reference_us(), close to its time on a 2-core Xeon
# (Sapphire Rapids) VM with Python 3.11; slowdowns are relative to it.
REFERENCE_US = 1000.0
# Episodes on each side whose reference runs set an episode's slowdown.
EPISODE_WINDOW = 2


def reference_us() -> float:
    """Run the fixed reference computation; return its time in µs."""
    s, d = 0.0, {}
    t = perf_counter_ns()
    for i in range(6000):
        s += (i * 0.5) % 3.0
        d[i & 255] = s
    return (perf_counter_ns() - t) / 1e3


def _slowdown(reference: list[float]) -> float:
    return statistics.fmean(reference) / REFERENCE_US


@dataclass
class PassResult:
    """Stage times of one pass and what it produced. Times are wall
    seconds (per call for write, read and audit); `slowdown` holds each
    stage's machine slowdown factor."""

    run_s: float = 0.0
    write_s: float = 0.0
    read_s: float = 0.0
    audit_s: float = 0.0
    slowdown: dict = field(default_factory=dict)
    stage_calls: dict = field(default_factory=dict)
    episode_us_per_step: list[float] = field(default_factory=list)
    episode_adjusted_us_per_step: list[float] = field(default_factory=list)
    reference_runs: dict = field(default_factory=dict)
    episodes: int = 0
    steps: int = 0
    aggregate: dict = field(default_factory=dict)
    trace_sha256: str = ""
    trace_bytes: int = 0
    failed_episodes: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    max_rss_bytes: int = 0  # process high-water mark right after the audit


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def setup(path: Path):
    """load_config + to_scenario, as a user's run starts. Returns the
    config, the scenario, the wall seconds and the slowdown."""
    before = reference_us()
    t0 = perf_counter()
    cfg = config.load_config(path)
    scenario = cfg.to_scenario()
    setup_s = perf_counter() - t0
    return cfg, scenario, setup_s, _slowdown([before, reference_us()])


@contextmanager
def _reference_after_each(module, name: str, reference: list[float],
                          timed: list | None = None):
    """Run the reference computation after every call of module.name
    (the site the package calls it through) inside the block. With
    `timed`, also record each call's wall µs and the length of its
    result's `steps`."""
    original = getattr(module, name, None)
    if original is None:
        yield
        return

    def with_reference(*args, **kwargs):
        e0 = perf_counter_ns()
        out = original(*args, **kwargs)
        if timed is not None:
            timed.append(((perf_counter_ns() - e0) / 1e3, len(out.steps)))
        reference.append(reference_us())
        return out

    setattr(module, name, with_reference)
    try:
        yield
    finally:
        setattr(module, name, original)


def _timed(stage, min_s: float, reference: list[float]):
    """Mean wall seconds per call of stage(), its last result and the
    number of calls, calling it again until min_s of calls have been
    timed (at least once). Reference runs made during a call are not
    counted. Each call's result is dropped before the next call, so
    repeats do not add to peak memory."""
    calls, total, out = 0, 0.0, None
    reference.append(reference_us())
    while calls == 0 or total < min_s:
        out = None
        n = len(reference)
        t = perf_counter()
        out = stage()
        total += perf_counter() - t - sum(reference[n:]) / 1e6
        calls += 1
        reference.append(reference_us())
    return total / calls, out, calls


def run_pass(cfg, scenario, seed: int, episodes: int, trace_path: Path,
             min_stage_s: float = 0.0) -> PassResult:
    """Simulate `episodes` episodes with run_batch, timing each episode
    where run_batch calls it, then write, read back and audit the trace.
    Write, read and audit are each repeated until min_stage_s of them
    has been timed, and report the mean time per call.

    An episode whose audit is not ok is listed in failed_episodes with
    its mismatches. An exception is not caught: it fails the pass.
    """
    res = PassResult(episodes=episodes)
    reference = {stage: [] for stage in ("run", "write", "read", "audit")}
    timed: list[tuple[float, int]] = []
    with _reference_after_each(sim, "run_episode", reference["run"], timed):
        res.run_s, result, res.stage_calls["run"] = _timed(
            lambda: sim.run_batch(scenario, seed, episodes), 0.0, reference["run"])
    # reference[i] ran just before episode i and reference[i + 1] just
    # after it. One reference run is noisy, so an episode's slowdown is
    # the mean over the reference runs of the episodes around it.
    for i, (us, steps) in enumerate(timed):
        us_per_step = us / max(1, steps)
        window = reference["run"][max(0, i - EPISODE_WINDOW): i + EPISODE_WINDOW + 2]
        res.episode_us_per_step.append(us_per_step)
        res.episode_adjusted_us_per_step.append(us_per_step / _slowdown(window))
    with _reference_after_each(traceio, "_end_line", reference["write"]):
        res.write_s, _, res.stage_calls["write"] = _timed(
            lambda: traceio.write_traces(result, trace_path, cfg.name, cfg.shield_mode,
                                         scenario.horizon), min_stage_s, reference["write"])
    with _reference_after_each(traceio, "EpisodeRecord", reference["read"]):
        res.read_s, records, res.stage_calls["read"] = _timed(
            lambda: traceio.read_traces(trace_path), min_stage_s, reference["read"])
    with _reference_after_each(audit, "audit_episode", reference["audit"]):
        res.audit_s, report, res.stage_calls["audit"] = _timed(
            lambda: audit.audit_traces(cfg, records), min_stage_s, reference["audit"])
    res.failed_episodes = [ep.episode for ep in report.episodes if not ep.ok]
    res.errors = [f"episode {ep.episode}: audit mismatch {ep.verdict_mismatches}"
                  for ep in report.episodes if not ep.ok]
    res.max_rss_bytes = max_rss_bytes()

    res.slowdown = {stage: _slowdown(ref) for stage, ref in reference.items()}
    res.reference_runs = {stage: len(ref) for stage, ref in reference.items()}
    res.aggregate = result.aggregate()
    res.steps = res.aggregate["total_steps"]
    res.trace_sha256 = file_sha256(trace_path)
    res.trace_bytes = trace_path.stat().st_size
    return res


def describe_input(cfg, path: Path) -> dict:
    """What the program was given, so that a changed input shows up as
    such rather than as a speed change."""
    m = cfg.model
    return {
        "scenario": cfg.name,
        "shield": cfg.shield_mode,
        "horizon": cfg.horizon,
        "n_states": m.n_states,
        "n_joint_actions": m.n_joint_actions,
        "n_joint_observations": m.n_joint_observations,
        "predicate_leaves": {name: expr_text(e).count("b(") for name, e in cfg.predicates.items()},
        "model_violations": len(validate_model(m)),
        "yaml_bytes": path.stat().st_size,
        "yaml_sha256": file_sha256(path),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    path, trace_path = Path(argv[0]), Path(argv[3])
    seed, episodes = int(argv[1]), int(argv[2])
    min_stage_s = float(argv[4])

    cfg, scenario, setup_s, setup_slowdown = setup(path)
    res = run_pass(cfg, scenario, seed, episodes, trace_path, min_stage_s)
    res.slowdown["setup"] = setup_slowdown
    print(json.dumps({"setup_s": setup_s, "peak_mem_mb": res.max_rss_bytes / 1e6,
                      **res.__dict__, "input": describe_input(cfg, path)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
