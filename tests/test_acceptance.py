"""Acceptance gate: one test per numbered criterion, each timed against
its stated budget and reported as a single line through the terminal
reporter at module teardown.

The criteria cross-check independent routes to the same answer: the
filter against a hand-rolled two-pass posterior, the finite-time bound
against sequences built to satisfy the contraction inequality, the
invariance condition against nonnegativity of entire sequences, the
shipped corridor scenario against direct evaluation of its barrier
expressions, the monitor against the finite-trace oracle on random
scenarios, and every shield override against exhaustive re-enumeration.
"""

from __future__ import annotations

import time
from itertools import product

import numpy as np
import pytest

from conftest import (
    evaluate_expr, monitor_step, random_model, random_simplex, shield_reference,
    two_pass_posterior,
)

from beliefshield.audit import audit_traces
from beliefshield.barrier import (
    FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound,
)
from beliefshield.config import ScenarioConfig
from beliefshield.errors import ZeroLikelihood
from beliefshield.ldtl import (
    Always, And, BeliefPred, BeliefVar, Constant, Difference, Eventually,
    Max, Min, Next, Or, Sum, Until, describe,
)
from beliefshield.model import Belief, Mpomdp, belief_update
from beliefshield.monitor import MonitorConfig, compile_monitor
from beliefshield.presets import corridor_config
from beliefshield.sim import RandomUniform, run_batch
from beliefshield.traceio import read_traces, write_traces

N_FILTER_MODELS = 1000
N_FT_SEQUENCES = 1000
N_INV_SEQUENCES = 1000
N_RANDOM_SCENARIOS = 500

_notes: list[str] = []


def note(line: str) -> None:
    _notes.append(line)


@pytest.fixture(scope="module", autouse=True)
def _report(request):
    yield
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        for line in _notes:
            reporter.write_line(line)


# --------------------------------------------------------------------------
# Shared batches


@pytest.fixture(scope="module")
def corridor_shielded():
    cfg = corridor_config("literal")
    t0 = time.perf_counter()
    result = run_batch(cfg.to_scenario(), cfg.seed, cfg.episodes)
    return cfg, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def corridor_unshielded():
    cfg = corridor_config("off")
    result = run_batch(cfg.to_scenario(), cfg.seed, cfg.episodes)
    return cfg, result


def _random_predicate(rng, m: Mpomdp, j: int):
    q = int(rng.integers(m.n_states))
    c = float(rng.uniform(0.05, 0.95))
    var = BeliefVar(q, m.state_names[q])
    if rng.random() < 0.5:
        expr = Difference(var, Constant(c))
    else:
        q2 = int(rng.integers(m.n_states))
        expr = Difference(Constant(c), Sum((var, BeliefVar(q2, m.state_names[q2]))))
    return f"p{j}", expr


def _random_core(rng, atoms):
    a = atoms[int(rng.integers(len(atoms)))]
    roll = rng.random()
    if roll < 0.4:
        return a
    b = atoms[int(rng.integers(len(atoms)))]
    return And(a, b) if roll < 0.7 else Or(a, b)


def _random_conjunct(rng, atoms):
    core = _random_core(rng, atoms)
    roll = rng.random()
    if roll < 0.30:
        return Always(core)
    if roll < 0.55:
        return Eventually(core)
    if roll < 0.70:
        return Until(_random_core(rng, atoms), core)
    if roll < 0.85:
        return Next(core)
    return core


def _random_scenario(i: int) -> ScenarioConfig:
    rng = np.random.default_rng(61_000 + i)
    m = random_model(rng, max_states=5, max_agents=2, max_radix=2)
    predicates = dict(_random_predicate(rng, m, j)
                      for j in range(int(rng.integers(2, 4))))
    atoms = [BeliefPred(name, expr, negated=negated) for name, expr in predicates.items()
             for negated in (False, True)]
    conjuncts = [_random_conjunct(rng, atoms)
                 for _ in range(int(rng.integers(1, 3)))]
    phi = conjuncts[0]
    for c in conjuncts[1:]:
        phi = And(phi, c)
    # delta tiny so the closed barrier set hugs the open satisfaction set
    # of positive predicates; negated predicates need no offset at all.
    return ScenarioConfig(
        name=f"random{i:03d}",
        model=m,
        predicates=predicates,
        formula=phi,
        formula_text=describe(phi),
        monitor=MonitorConfig(
            delta=1e-9,
            alpha=LinearAlpha(float(rng.uniform(0.2, 0.8))),
            ft=FtParams(rho=float(rng.uniform(0.6, 0.95)),
                        eps=float(rng.uniform(0.05, 0.3)))),
        policy=RandomUniform(),
        shield_mode="literal",
        horizon=int(rng.integers(5, 21)),
        episodes=1,
        seed=int(rng.integers(0, 2**31 - 1)),
    )


@pytest.fixture(scope="module")
def random_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("random_traces")
    t0 = time.perf_counter()
    runs = []
    for i in range(N_RANDOM_SCENARIOS):
        cfg = _random_scenario(i)
        result = run_batch(cfg.to_scenario(), cfg.seed, cfg.episodes)
        path = out / f"{cfg.name}.trace.jsonl"
        write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
        runs.append((cfg, result, path))
    return runs, time.perf_counter() - t0


# --------------------------------------------------------------------------
# Criterion 1: exact filtering


def _filter_model(rng) -> Mpomdp:
    n = int(rng.integers(1, 7))
    na = int(rng.integers(1, 5))
    nz = int(rng.integers(1, 4))
    transition = rng.random((n, na, n)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    observation = rng.random((n, na, nz)) + 1e-3
    observation /= observation.sum(axis=2, keepdims=True)
    return Mpomdp(
        state_names=tuple(f"s{i}" for i in range(n)),
        agent_names=("solo",),
        action_names=(tuple(f"a{j}" for j in range(na)),),
        observation_names=(tuple(f"z{j}" for j in range(nz)),),
        initial=Belief(random_simplex(rng, n)),
        transition=transition,
        observation=observation,
        reward=rng.normal(size=(n, na)),
    )


def test_criterion_1_filter_matches_two_pass_reference():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(N_FILTER_MODELS):
        m = _filter_model(rng)
        b = m.initial
        for _ in range(4):
            a = int(rng.integers(m.n_joint_actions))
            z = int(rng.integers(m.n_joint_observations))
            expected = two_pass_posterior(b, a, z, m)
            try:
                b = belief_update(b, a, z, m)
            except ZeroLikelihood:
                assert expected is None
                break
            assert expected is not None
            worst = max(worst, float(np.max(np.abs(b.probs - expected))))
            assert np.all(b.probs >= 0.0)
            assert abs(float(b.probs.sum()) - 1.0) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 10.0
    note(f"criterion 1 PASS: {N_FILTER_MODELS} models, max filter deviation "
         f"{worst:.2e} (tol 1e-12), all beliefs simplex-valid, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: finite-time reach bound


def test_criterion_2_contraction_sequences_cross_within_bound():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_gap = 0.0
    for _ in range(N_FT_SEQUENCES):
        rho = float(rng.uniform(0.51, 0.998))
        eps = float(rng.uniform(0.02, 0.99))
        h0 = -float(rng.uniform(3.1, 10.0)) * eps
        p = FtParams(rho, eps)
        bound = ft_time_bound(h0, p)
        h, values = h0, []
        first_cross = None
        for t in range(1, bound + 2):
            slack = eps * (1.0 - rho) * float(rng.uniform(2.5, 5.0))
            h_next = rho * h + eps * (1.0 - rho) + slack
            assert ft_dtbf_check(h, h_next, p)
            values.append(h_next)
            h = h_next
            if h_next >= 0.0:
                first_cross = t
                break
        assert first_cross is not None and first_cross <= bound
        for t, ht in enumerate(values, start=1):
            gap = (rho ** t) * (h0 - eps) - (ht - eps)
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    note(f"criterion 2 PASS: {N_FT_SEQUENCES} contraction sequences, every "
         f"crossing within its step budget, worst decay slack "
         f"{worst_gap:.2e} (tol 1e-9), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 3: invariance


def test_criterion_3_decay_checked_sequences_stay_nonnegative():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    for i in range(N_INV_SEQUENCES):
        gamma = float(rng.uniform(0.01, 0.99))
        alpha = LinearAlpha(gamma)
        h = 0.0 if i % 10 == 0 else float(rng.uniform(0.0, 5.0))
        for _ in range(30):
            h_next = (1.0 - gamma) * h + float(rng.uniform(1e-12, 0.5))
            assert dtbf_check(h, h_next, alpha)
            assert h_next >= 0.0
            h = h_next
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    note(f"criterion 3 PASS: {N_INV_SEQUENCES} decay-checked sequences of 30 "
         f"steps, every value >= 0 exactly, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 4: min/max composition


def test_criterion_4_composition_verdicts_match_membership():
    rng = np.random.default_rng(404)
    dummy = Belief((1.0,))
    patterns = 0
    for k in range(1, 5):
        for signs in product((-1, 0, 1), repeat=k):
            for _ in range(3):
                values = tuple(s * float(rng.uniform(0.1, 2.0)) if s else 0.0
                               for s in signs)
                consts = tuple(Constant(v) for v in values)
                lo = evaluate_expr(Min(consts), dummy)
                hi = evaluate_expr(Max(consts), dummy)
                assert lo == min(values)
                assert hi == max(values)
                assert (lo >= 0.0) == all(v >= 0.0 for v in values)
                assert (hi >= 0.0) == any(v >= 0.0 for v in values)
            patterns += 1
    for _ in range(200):
        values = tuple(rng.normal(size=int(rng.integers(1, 5))))
        consts = tuple(Constant(float(v)) for v in values)
        assert (evaluate_expr(Min(consts), dummy) >= 0.0) == all(v >= 0.0 for v in values)
        assert (evaluate_expr(Max(consts), dummy) >= 0.0) == any(v >= 0.0 for v in values)
    note(f"criterion 4 PASS: {patterns} sign patterns (k <= 4, exhaustive "
         f"incl. zeros) and 200 random vectors, min/max verdicts match "
         f"all/any membership")


# --------------------------------------------------------------------------
# Criterion 5: shielded corridor


def test_criterion_5_shielded_corridor_safe_and_on_time(corridor_shielded):
    cfg, result, run_elapsed = corridor_shielded
    t0 = time.perf_counter()
    mon = compile_monitor(cfg.formula, cfg.model, cfg.monitor)
    safety_expr = mon.obligations[0].barriers[0]
    goal_expr = mon.obligations[1].barriers[0]

    h0 = evaluate_expr(goal_expr, cfg.model.initial)
    deadline = ft_time_bound(h0, cfg.monitor.ft)
    assert deadline == 159  # about 160 steps from a start value near -0.4

    assert len(result.traces) == 100
    assert evaluate_expr(safety_expr, cfg.model.initial) >= 0.0
    bad_steps = 0
    for trace in result.traces:
        assert not trace.violation_steps
        for s in trace.steps:
            if evaluate_expr(safety_expr, s.belief) < 0.0:
                bad_steps += 1
    assert bad_steps == 0
    # The formula has one reach obligation, so the first discharge step
    # of each episode is when the goal barrier first holds.
    discharge_steps = [r["first_discharge_step"] for r in result.episode_rows()]
    assert "" not in discharge_steps
    assert max(discharge_steps) <= deadline
    elapsed = run_elapsed + (time.perf_counter() - t0)
    assert elapsed < 60.0
    note(f"criterion 5 PASS: 100 shielded episodes, 0 negative safety "
         f"barriers on executed steps, goal barrier >= 0 by step "
         f"{max(discharge_steps)} in every episode (deadline {deadline}), "
         f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 6: unshielded baseline


def test_criterion_6_unshielded_corridor_violates(corridor_unshielded):
    cfg, result = corridor_unshielded
    mon = compile_monitor(cfg.formula, cfg.model, cfg.monitor)
    safety_expr = mon.obligations[0].barriers[0]
    monitor_route = sum(1 for t in result.traces if t.violation_steps)
    barrier_route = sum(
        1 for t in result.traces
        if any(evaluate_expr(safety_expr, s.belief) < 0.0 for s in t.steps))
    assert len(result.traces) == 100
    assert monitor_route >= 90
    assert barrier_route >= 90
    note(f"criterion 6 PASS: unshielded nominal policy drives the safety "
         f"barrier negative in {barrier_route}/100 episodes "
         f"({monitor_route} flagged by the monitor), threshold 90")


# --------------------------------------------------------------------------
# Criterion 7: monitor vs oracle


def test_criterion_7_clean_discharged_episodes_satisfy_oracle(random_runs):
    runs, gen_elapsed = random_runs
    t0 = time.perf_counter()
    sound_episodes = 0
    counterexamples = []
    for cfg, _, path in runs:
        report = audit_traces(cfg, read_traces(path))
        for ep in report.episodes:
            assert ep.ok
            # A zero-step episode (deadlock before any transition)
            # produced no verdicts, so there is nothing the monitor
            # passed; only episodes with checked steps are claims.
            if ep.steps > 0 and all(ob.clean and ob.discharged
                                    for ob in ep.obligations):
                sound_episodes += 1
                counterexamples.extend(
                    (cfg.name, ob.oid) for ob in ep.obligations if not ob.oracle)
    elapsed = gen_elapsed + (time.perf_counter() - t0)
    assert counterexamples == []
    assert sound_episodes >= 90  # the claim must not pass vacuously
    assert elapsed < 60.0
    note(f"criterion 7 PASS: {N_RANDOM_SCENARIOS} random scenarios, "
         f"{sound_episodes} episodes passed and discharged everything, "
         f"0 rejected by the finite-trace oracle, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 8: override optimality. An override changes the fewest agents
# that any safe joint action changes and, among the safe actions that
# change that many, has the reward closest to the nominal's: none closer
# by more than the 1e-9 tie band, and ties at the lowest flat index.


def _rescan_overrides(cfg: ScenarioConfig, trace) -> int:
    m = cfg.model
    mon = compile_monitor(cfg.formula, m, cfg.monitor)
    b_prev = trace.initial_belief
    checked = 0
    for s in trace.steps:
        if s.overridden:
            ref = shield_reference(m, mon, b_prev, s.observation, s.nominal,
                                   cfg.shield_mode)
            assert ref.nominal_reward == s.nominal_reward
            level = ref.level
            executed = next(c for c in level if c.action == s.executed)
            assert executed.changed == min(c.changed for c in ref.safe) > 0
            r_n = ref.nominal_reward
            devs = [abs(c.reward - r_n) for c in level]
            assert all(d + 1e-9 >= abs(executed.reward - r_n) for d in devs)
            # ties must have resolved to the lowest flat index
            assert ref.choice is executed
            assert tuple((c.action, c.reward) for c in level) == s.candidate_rewards
            checked += 1
        _, mon = monitor_step(mon, b_prev, s.belief)
        b_prev = s.belief
    return checked


def test_criterion_8_every_override_is_reward_optimal(corridor_shielded,
                                                      random_runs):
    cfg, result, _ = corridor_shielded
    corridor_overrides = sum(_rescan_overrides(cfg, t) for t in result.traces)
    assert corridor_overrides == 600

    runs, _ = random_runs
    random_overrides = sum(_rescan_overrides(rcfg, t)
                           for rcfg, rresult, _ in runs
                           for t in rresult.traces)
    note(f"criterion 8 PASS: re-enumerated {corridor_overrides} corridor and "
         f"{random_overrides} random-scenario overrides; each changes the fewest "
         f"agents of any safe action, none beaten on reward deviation within "
         f"its level beyond 1e-9, all ties at lowest index")


# --------------------------------------------------------------------------
# Criterion 9: determinism


def test_criterion_9_same_seed_reproduces_trace_bytes(
        corridor_shielded, corridor_unshielded, random_runs, tmp_path):
    compared = 0
    for cfg, result in (corridor_shielded[:2], corridor_unshielded):
        again = run_batch(cfg.to_scenario(), cfg.seed, cfg.episodes)
        first = tmp_path / f"{cfg.name}.a.jsonl"
        second = tmp_path / f"{cfg.name}.b.jsonl"
        write_traces(result, first, cfg.name, cfg.shield_mode, cfg.horizon)
        write_traces(again, second, cfg.name, cfg.shield_mode, cfg.horizon)
        assert first.read_bytes() == second.read_bytes()
        compared += 1

    runs, _ = random_runs
    for cfg, _, path in runs[:3]:
        again = run_batch(cfg.to_scenario(), cfg.seed, cfg.episodes)
        second = tmp_path / f"{cfg.name}.b.jsonl"
        write_traces(again, second, cfg.name, cfg.shield_mode, cfg.horizon)
        assert second.read_bytes() == path.read_bytes()
        compared += 1
    note(f"criterion 9 PASS: {compared} scenarios rerun with their seeds, "
         f"trace files byte-identical")
