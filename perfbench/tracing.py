"""Spans around the public functions of each beliefshield layer.

The tracer replaces a function at the site it is imported into (for
example `beliefshield.sim.shield_step`, the name the simulator calls),
records one span per call and restores the original afterwards. A span
has a name "<layer>.<what>", a start and an end (perf_counter_ns), the
span open when it started (its parent, -1 for none), the episode index
it belongs to as its request id (-1 outside episodes), and an integer
tag some targets fill from their arguments or result.

Spans live in memory in parallel arrays and are written out once, at
the end. Calls are single-threaded, so the spans nest and a parent
always precedes its children in index order.
"""

from __future__ import annotations

import importlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

Tag = Callable[[tuple, object], int]
Request = Callable[[tuple, dict], int]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.tag = array("q")
        self.request_id = -1
        self.missing: list[Target] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self.request_id)
        self.tag.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, tag: Tag | None = None,
             request: Request | None = None):
        def traced(*args, **kwargs):
            saved = self.request_id
            if request is not None:
                self.request_id = request(args, kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.request_id = saved
            if tag is not None:
                self.tag[idx] = tag(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, targets: tuple["Target", ...]):
        """Wrap every target for the duration of the block. A target
        whose module attribute no longer exists is listed in `missing`
        (once, however often the block is entered)."""
        for t in targets:
            owner = importlib.import_module(t.module)
            *path, attr = t.attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                if t not in self.missing:
                    self.missing.append(t)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, t.span, t.tag, t.request))
        try:
            yield self
        finally:
            while self._patched:
                owner, attr, original = self._patched.pop()
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans as CSV, one line per span in start order."""
        lines = ["id,name,start_ns,end_ns,parent,request,tag"]
        lines.extend(
            f"{i},{self.names[n]},{s},{e},{p},{r},{g}"
            for i, (n, s, e, p, r, g) in enumerate(zip(
                self.name, self.start, self.end, self.parent, self.request, self.tag)))
        path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Target:
    module: str
    attr: str           # attribute path inside the module, e.g. "Cls.method"
    span: str           # "<layer>.<what>"
    tag: Tag | None = None
    request: Request | None = None


def _obs_arg(args, result) -> int:        # belief_update(b, action, obs, m)
    return int(args[2])


def _shared_obs_arg(args, result) -> int:  # shield_step(m, mon, b_prev, z, a_nominal)
    return int(args[3])


def _passed(args, result) -> int:         # monitor_step -> (verdict, successor)
    return int(result[0].passed)


def _episode_kwarg(args, kwargs) -> int:  # run_episode(scenario, rng, episode=i)
    return int(kwargs.get("episode", args[2] if len(args) > 2 else 0))


def _episode_record(args, kwargs) -> int:  # audit_episode(cfg, ep)
    return int(args[1].episode)


def _at(module: str, attrs: tuple[str, ...], span: str, **kw) -> tuple[Target, ...]:
    return tuple(Target(module, a, span, **kw) for a in attrs)


# Each layer's public functions at the sites the pipeline calls them from.
TARGETS: tuple[Target, ...] = (
    Target("beliefshield.config", "load_config", "config.load"),
    Target("yaml", "safe_load", "config.yaml"),
    Target("beliefshield.config", "parse_config", "config.parse"),
    Target("beliefshield.config", "ScenarioConfig.to_scenario", "config.to_scenario"),
    Target("beliefshield.config", "parse_expr", "parsing.expr"),
    Target("beliefshield.config", "parse_formula", "parsing.formula"),
    Target("beliefshield.config", "compile_monitor", "monitor.compile"),
    Target("beliefshield.audit", "compile_monitor", "monitor.compile"),
    Target("beliefshield.sim", "run_episode", "sim.run_episode", request=_episode_kwarg),
    Target("beliefshield.sim", "select_action", "sim.select_action"),
    *_at("beliefshield.sim", ("sample_initial_state", "sample_transition",
                              "sample_observation"), "model.sample"),
    Target("beliefshield.sim", "belief_update", "model.belief_update", tag=_obs_arg),
    Target("beliefshield.sim", "monitor_step", "monitor.step", tag=_passed),
    Target("beliefshield.sim", "shield_step", "shield.step", tag=_shared_obs_arg),
    Target("beliefshield.shield", "belief_update", "model.belief_update", tag=_obs_arg),
    Target("beliefshield.shield", "monitor_step", "monitor.step", tag=_passed),
    Target("beliefshield.shield", "observation_likelihoods", "model.observation_likelihoods"),
    Target("beliefshield.shield", "expected_reward", "model.expected_reward"),
    Target("beliefshield.shield", "predicted_belief", "model.predicted_belief"),
    Target("beliefshield.monitor", "evaluate_expr", "ldtl.evaluate_expr"),
    *_at("beliefshield.monitor", ("dtbf_check", "ft_dtbf_check"), "barrier.check"),
    Target("beliefshield.monitor", "ft_time_bound", "barrier.time_bound"),
    Target("beliefshield.traceio", "write_traces", "traceio.write"),
    Target("beliefshield.traceio", "read_traces", "traceio.read"),
    Target("beliefshield.audit", "audit_traces", "audit.traces"),
    Target("beliefshield.audit", "audit_episode", "audit.episode", request=_episode_record),
    Target("beliefshield.audit", "replay_episode", "audit.replay"),
    Target("beliefshield.audit", "belief_update", "model.belief_update", tag=_obs_arg),
    Target("beliefshield.audit", "monitor_step", "monitor.step", tag=_passed),
    Target("beliefshield.audit", "oracle_satisfies", "ldtl.oracle"),
)


class Spans:
    """Recorded spans as arrays, with each span's self time, its root
    span, and the stage it ran under (its ancestor directly below a
    root)."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.tag = np.frombuffer(tracer.tag, dtype=np.int64).copy()
        self.dur = (np.frombuffer(tracer.end, dtype=np.int64)
                    - np.frombuffer(tracer.start, dtype=np.int64))
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                               minlength=len(self.dur)).astype(np.int64)
        self.self_ns = self.dur - children
        parent = self.parent.tolist()
        root, stage = list(range(len(parent))), list(range(len(parent)))
        for i, p in enumerate(parent):
            if p >= 0:
                root[i] = root[p]
                if parent[p] >= 0:
                    stage[i] = stage[p]
        self.root = np.array(root, dtype=np.int64)
        self.stage = np.array(stage, dtype=np.int64)

    def ids(self, name: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == name or n.startswith(name + ".")]

    def select(self, name: str, under: str | None = None) -> np.ndarray:
        """Mask of spans named `name` or below it ("model" matches
        "model.sample"), optionally only those whose root or stage is
        named `under`."""
        mask = np.isin(self.name, self.ids(name))
        if under is not None:
            ids = self.ids(under)
            mask &= np.isin(self.name[self.stage], ids) | np.isin(self.name[self.root], ids)
        return mask

    def layer_self_ns(self) -> dict[str, int]:
        """Self time per layer (the part of a span's name before the dot)."""
        per_name = np.bincount(self.name, weights=self.self_ns, minlength=len(self.names))
        out: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0) + int(per_name[nid])
        return out

    def wall_ns(self) -> int:
        return int(self.dur[self.parent < 0].sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(sp: Spans, steps: int, override_steps: int, trace_bytes: int
                      ) -> tuple[dict[str, tuple[float, str]], dict[str, int], dict[str, set[str]]]:
    """Per-layer metrics of one traced set-up and pass, the base count
    of each ratio, and the span names each metric reads (so that a
    metric fed by a target the tracer could not find can be flagged).
    Per-step figures divide by the pass's simulated steps; the audit
    replays the same steps."""
    RUN, AUDIT, SETUP = "sim.run_episode", "audit.traces", "bench.setup"
    read: set[str] = set()

    def select(name, under=None):
        read.update((name, under) if under else (name,))
        return sp.select(name, under)

    def count(name, under=None):
        return int(select(name, under).sum())

    def total_us(name, under=None):
        return float(sp.dur[select(name, under)].sum()) / 1e3

    def self_us(name, under=None):
        return float(sp.self_ns[select(name, under)].sum()) / 1e3

    def per_step(us):
        return _ratio(us, steps)

    # A shield call evaluates a candidate action as one belief update
    # under the call's shared observation (both tags hold that
    # observation); conservative mode adds updates under the others.
    # A monitor.step under the shield is one evaluation, tagged 1 if safe.
    def shield():
        return select("shield.step", RUN)

    def under_shield(name):
        return select(name) & np.isin(sp.parent, np.flatnonzero(shield()))

    def shared_updates():
        updates = under_shield("model.belief_update")
        return int((updates & (sp.tag == sp.tag[np.maximum(sp.parent, 0)])).sum())

    def safe_checks():
        checks = under_shield("monitor.step")
        return _ratio(int((checks & (sp.tag == 1)).sum()), int(checks.sum()))

    def per_call(value, name, under=None):
        return _ratio(value, count(name, under))

    table = {
        "config.load_s": (lambda: total_us("config.load", SETUP) / 1e6, "s"),
        "config.yaml_s": (lambda: total_us("config.yaml", SETUP) / 1e6, "s"),
        "parsing.s": (lambda: total_us("parsing", SETUP) / 1e6, "s"),
        "monitor.compile_s": (lambda: total_us("monitor.compile", SETUP) / 1e6, "s"),
        "monitor.step.calls_per_step": (lambda: per_step(count("monitor.step", RUN)), "calls/step"),
        "monitor.step.self_us_per_call": (
            lambda: per_call(self_us("monitor.step", RUN), "monitor.step", RUN), "us/call"),
        "ldtl.evaluate_expr.calls_per_step": (
            lambda: per_step(count("ldtl.evaluate_expr", RUN)), "calls/step"),
        "ldtl.evaluate_expr.us_per_call": (
            lambda: per_call(total_us("ldtl.evaluate_expr", RUN), "ldtl.evaluate_expr", RUN),
            "us/call"),
        "ldtl.oracle_us_per_step": (lambda: per_step(total_us("ldtl.oracle", AUDIT)), "us/step"),
        "barrier.checks_per_step": (lambda: per_step(count("barrier.check", RUN)), "calls/step"),
        "barrier.us_per_step": (lambda: per_step(total_us("barrier", RUN)), "us/step"),
        "model.belief_update.calls_per_step": (
            lambda: per_step(count("model.belief_update", RUN)), "calls/step"),
        "model.belief_update.self_us_per_call": (
            lambda: per_call(self_us("model.belief_update", RUN), "model.belief_update", RUN),
            "us/call"),
        "model.sample_us_per_step": (lambda: per_step(total_us("model.sample", RUN)), "us/step"),
        "model.observation_likelihoods.calls_per_step": (
            lambda: per_step(count("model.observation_likelihoods", RUN)), "calls/step"),
        "shield.step.self_us_per_call": (
            lambda: _ratio(float(sp.self_ns[shield()].sum()) / 1e3, int(shield().sum())),
            "us/call"),
        "shield.candidates_per_call": (
            lambda: _ratio(shared_updates(), int(shield().sum())), "calls/call"),
        "shield.belief_updates_per_call": (
            lambda: _ratio(int(under_shield("model.belief_update").sum()), int(shield().sum())),
            "calls/call"),
        "shield.safe_ratio": (safe_checks, "ratio"),
        "shield.override_rate": (lambda: _ratio(override_steps, int(shield().sum())), "ratio"),
        "sim.self_us_per_step": (lambda: per_step(self_us("sim.run_episode", RUN)), "us/step"),
        "sim.select_action_us_per_step": (
            lambda: per_step(total_us("sim.select_action", RUN)), "us/step"),
        "traceio.write_us_per_step": (lambda: per_step(self_us("traceio.write")), "us/step"),
        "traceio.read_us_per_step": (lambda: per_step(self_us("traceio.read")), "us/step"),
        "traceio.bytes_per_step": (lambda: per_step(trace_bytes), "B/step"),
        "audit.self_us_per_step": (lambda: per_step(self_us("audit", AUDIT)), "us/step"),
        "audit.belief_update_us_per_step": (
            lambda: per_step(total_us("model.belief_update", AUDIT)), "us/step"),
        "audit.monitor_step_us_per_step": (
            lambda: per_step(total_us("monitor.step", AUDIT)), "us/step"),
    }
    metrics, reads = {}, {}
    for key, (value, unit) in table.items():
        read.clear()
        metrics[key] = (value(), unit)
        reads[key] = set(read)
    bases = {
        "steps": steps,
        "shield.step calls": int(shield().sum()),
        "shield belief_update calls": int(under_shield("model.belief_update").sum()),
        "shield monitor.step calls": int(under_shield("monitor.step").sum()),
        "override steps": override_steps,
        "monitor.step calls (run)": count("monitor.step", RUN),
        "ldtl.evaluate_expr calls (run)": count("ldtl.evaluate_expr", RUN),
        "model.belief_update calls (run)": count("model.belief_update", RUN),
        "spans": len(sp.dur),
    }
    return metrics, bases, reads
