"""Episode loop: recorded steps, end reasons, RNG reproducibility, and
the corridor scenario's known behavior."""

import numpy as np
import pytest

from beliefshield import (
    Always,
    And,
    Belief,
    BeliefPred,
    BeliefVar,
    Constant,
    Difference,
    Eventually,
    FixedAction,
    FtParams,
    GreedyReward,
    LinearAlpha,
    MonitorConfig,
    Mpomdp,
    Next,
    RandomUniform,
    Scenario,
    Until,
    ZeroLikelihood,
    compile_monitor,
    run_batch,
    run_episode,
    select_action,
)
from beliefshield.sim import (
    END_DEADLOCK,
    END_HORIZON,
    END_VIOLATION_ABORT,
    END_ZERO_LIKELIHOOD,
)
from beliefshield.monitor import passed
from beliefshield.presets import corridor_config

from conftest import count_calls, monitor_step, random_model
from test_golden import EPISODES, _scenario

CFG = MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.5), ft=FtParams(rho=0.99, eps=0.1))


def one_state_model() -> Mpomdp:
    return Mpomdp(
        state_names=("only",),
        agent_names=("solo",),
        action_names=(("wait",),),
        observation_names=(("none",),),
        initial=Belief((1.0,)),
        transition=np.ones((1, 1, 1)),
        observation=np.ones((1, 1, 1)),
        reward=np.array([[0.25]]),
    )


def safe_monitor(m: Mpomdp):
    return compile_monitor(Always(BeliefPred("ok", Constant(1.0), negated=True)), m, CFG)


def trace_skeleton(trace):
    return [
        (s.step, s.prev_state, s.nominal, s.executed, s.overridden,
         s.observation, s.next_state)
        for s in trace.steps
    ]


# --------------------------------------------------------------------------
# Degenerate single-state episode


def test_degenerate_episode_records_every_step():
    m = one_state_model()
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=FixedAction(0),
                    shield_mode="off", horizon=7)
    trace = run_episode(scen, np.random.default_rng(0))
    assert trace.end_reason == END_HORIZON
    assert trace.initial_state == 0
    assert len(trace.steps) == 7
    for i, s in enumerate(trace.steps, start=1):
        assert (s.step, s.prev_state, s.next_state) == (i, 0, 0)
        assert s.executed == s.nominal == 0
        assert not s.overridden
        assert passed(s.verdict)
        assert s.realized_reward == 0.25
        assert np.array_equal(s.belief.probs, [1.0])
    assert trace.violation_steps == []
    assert trace.override_count == 0


def impossible(belief, action, z, model):
    """A stand-in for `belief_update` under which every observation has
    zero likelihood."""
    raise ZeroLikelihood(action, z, 0.0)


def test_zero_likelihood_observation_ends_episode(monkeypatch):
    m = one_state_model()
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=FixedAction(0),
                    shield_mode="off", horizon=5)
    monkeypatch.setattr("beliefshield.sim.belief_update", impossible)
    trace = run_episode(scen, np.random.default_rng(0))
    assert trace.end_reason == END_ZERO_LIKELIHOOD
    assert trace.steps == ()
    assert trace.end_detail == {"action": 0, "observation": 0}


# --------------------------------------------------------------------------
# Validation and policies


def test_scenario_rejects_bad_settings():
    m = one_state_model()
    mon = safe_monitor(m)
    with pytest.raises(ValueError):
        Scenario(model=m, monitor=mon, policy=FixedAction(0), shield_mode="sometimes")
    with pytest.raises(ValueError):
        Scenario(model=m, monitor=mon, policy=FixedAction(0), horizon=0)
    with pytest.raises(ValueError):
        run_batch(Scenario(model=m, monitor=mon, policy=FixedAction(0)), 1, 0)


def test_greedy_policy_breaks_ties_low():
    rng = np.random.default_rng(0)
    m = random_model(np.random.default_rng(3))
    b = m.initial
    greedy = select_action(GreedyReward(), b, m, rng)
    from beliefshield import expected_reward

    rewards = [expected_reward(b, a, m) for a in range(m.n_joint_actions)]
    assert rewards[greedy] == max(rewards)
    assert greedy == int(np.argmax(rewards))

    # A constant-reward model makes every action tie: index 0 wins.
    m0 = one_state_model()
    assert select_action(GreedyReward(), m0.initial, m0, rng) == 0


def test_random_policy_draws_from_the_episode_stream():
    m = random_model(np.random.default_rng(5))
    picks_a = [select_action(RandomUniform(), m.initial, m,
                             np.random.default_rng(11)) for _ in range(4)]
    picks_b = [select_action(RandomUniform(), m.initial, m,
                             np.random.default_rng(11)) for _ in range(4)]
    assert picks_a == picks_b
    assert all(0 <= a < m.n_joint_actions for a in picks_a)


# --------------------------------------------------------------------------
# Reproducibility and draw order


def test_same_seed_reproduces_the_trace():
    m = random_model(np.random.default_rng(8))
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=RandomUniform(),
                    shield_mode="off", horizon=25)
    t1 = run_episode(scen, np.random.default_rng(42))
    t2 = run_episode(scen, np.random.default_rng(42))
    assert trace_skeleton(t1) == trace_skeleton(t2)
    for s1, s2 in zip(t1.steps, t2.steps):
        assert np.array_equal(s1.belief.probs, s2.belief.probs)


def test_batch_prefix_is_reproducible():
    m = random_model(np.random.default_rng(8))
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=RandomUniform(),
                    shield_mode="off", horizon=10)
    long = run_batch(scen, base_seed=123, episodes=5)
    short = run_batch(scen, base_seed=123, episodes=2)
    for a, b in zip(short.traces, long.traces):
        assert trace_skeleton(a) == trace_skeleton(b)


def test_accepted_nominal_consumes_no_extra_draws():
    # With a monitor that always passes, the shielded loop must replay
    # the exact unshielded trajectory: overrides are the only extra draw.
    m = random_model(np.random.default_rng(8))
    off = Scenario(model=m, monitor=safe_monitor(m), policy=RandomUniform(),
                   shield_mode="off", horizon=25)
    shielded = Scenario(model=m, monitor=safe_monitor(m), policy=RandomUniform(),
                        shield_mode="literal", horizon=25)
    t_off = run_episode(off, np.random.default_rng(9))
    t_sh = run_episode(shielded, np.random.default_rng(9))
    assert trace_skeleton(t_off) == trace_skeleton(t_sh)
    assert t_sh.override_count == 0


def test_hidden_states_follow_the_transition_support():
    m = random_model(np.random.default_rng(21))
    scen = Scenario(model=m, monitor=safe_monitor(m), policy=RandomUniform(),
                    shield_mode="off", horizon=30)
    trace = run_episode(scen, np.random.default_rng(2))
    state = trace.initial_state
    for s in trace.steps:
        assert s.prev_state == state
        assert m.transition[s.prev_state, s.executed, s.next_state] > 0.0
        assert m.observation[s.next_state, s.executed, s.observation] > 0.0
        state = s.next_state


# --------------------------------------------------------------------------
# End reasons


def deadlock_scenario(mode: str) -> Scenario:
    """A shielded scenario whose only action is unsafe at step 1."""
    t = np.zeros((2, 1, 2))
    t[:, 0] = (0.0, 1.0)  # every action dumps all mass on s1
    m = Mpomdp(
        state_names=("s0", "s1"),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("none",),),
        initial=Belief((1.0, 0.0)),
        transition=t,
        observation=np.ones((2, 1, 1)),
        reward=np.zeros((2, 1)),
    )
    # h = b(s0) - 0.5 collapses from 0.5 to -0.5 for the only action.
    margin = BeliefPred("margin", Difference(BeliefVar(0, "s0"), Constant(0.5)), negated=True)
    return Scenario(model=m, monitor=compile_monitor(Always(margin), m, CFG),
                    policy=FixedAction(0), shield_mode=mode, horizon=10)


def test_deadlock_ends_episode_with_barrier_report():
    for mode in ("literal", "conservative"):
        trace = run_episode(deadlock_scenario(mode), np.random.default_rng(0))
        assert trace.end_reason == END_DEADLOCK
        assert trace.steps == ()
        assert trace.end_detail["step"] == 1
        assert list(trace.end_detail["candidate_barriers"]) == [0]
        assert trace.end_detail["candidate_barriers"][0]["0:always"] == pytest.approx(-0.5)


def test_abort_on_violation_truncates_the_episode():
    scen = corridor_config("off").to_scenario(abort_on_violation=True)
    trace = run_episode(scen, np.random.default_rng(0))
    assert trace.end_reason == END_VIOLATION_ABORT
    assert len(trace.steps) == 1
    assert not passed(trace.steps[0].verdict)


# --------------------------------------------------------------------------
# Corridor smoke checks


def test_corridor_shielded_discharges_and_never_violates():
    scen = corridor_config("literal").to_scenario()
    result = run_batch(scen, base_seed=7, episodes=3)
    for trace in result.traces:
        assert trace.end_reason == END_HORIZON
        assert trace.violation_steps == []
        assert trace.override_count == 6
    agg = result.aggregate()
    assert agg["episodes"] == 3
    assert agg["violation_steps"] == 0
    assert agg["override_steps"] == 18
    assert agg["mean_discharge_step"] == 4.0
    assert agg["deadlocks"] == 0
    rows = result.episode_rows()
    assert [r["first_discharge_step"] for r in rows] == [4, 4, 4]
    assert [r["episode"] for r in rows] == [0, 1, 2]


@pytest.mark.parametrize("mode", ["off", "literal", "conservative"])
def test_first_discharge_step_counts_only_reach_obligations(mode):
    # The formula's next and bare conjuncts are discharged by their single
    # check at step 1; the summary must report when the target is reached.
    cfg = _scenario(f"corridor_all_kinds_{mode}")
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=EPISODES)
    assert [r["first_discharge_step"] for r in result.episode_rows()] == [4] * EPISODES
    assert result.aggregate()["mean_discharge_step"] == 4.0


def test_corridor_unshielded_violates_immediately():
    scen = corridor_config("off").to_scenario()
    result = run_batch(scen, base_seed=7, episodes=2)
    for trace in result.traces:
        assert trace.violation_steps
        assert trace.violation_steps[0].step == 1


# --------------------------------------------------------------------------
# Each belief's barriers are evaluated once, and the monitor holds them into
# the next step


@pytest.mark.parametrize("mode", ["off", "literal"])
def test_each_belief_is_evaluated_once(mode, barrier_calls):
    scen = corridor_config(mode).to_scenario()
    barrier_calls.clear()
    result = run_batch(scen, base_seed=7, episodes=3)
    agg = result.aggregate()
    steps = agg["total_steps"]
    # The initial belief's values come with the compiled monitor, so no
    # episode evaluates it.
    if mode == "off":
        assert len(barrier_calls) == steps
    else:
        # The nominal's posterior once per step, and on an override the
        # posterior of each action that changes one agent's component
        # once: z is possible after each of the corridor's actions, and
        # one of those is safe at every override, so the shield checks
        # no action that changes both agents.
        assert agg["override_steps"] > 0
        one_agent = sum(r - 1 for r in scen.model.action_radices)
        assert len(barrier_calls) == steps + agg["override_steps"] * one_agent


def _all_kinds_formula(m: Mpomdp):
    """The corridor's all-kinds conjunction over a random model's first
    state: an always, an eventually, an until, a next and a bare
    conjunct, all over belief predicates. The until's target lies just
    above the initial belief, so it discharges mid-episode; the
    eventually holds at the start, since its contraction condition
    fails under some observation of nearly every random step."""
    b0 = BeliefVar(0, m.state_names[0])
    start = float(m.initial.probs[0])

    def at_least(name, x):
        return BeliefPred(name, Difference(b0, Constant(x)), negated=True)

    def at_most(name, x):
        return BeliefPred(name, Difference(Constant(x), b0), negated=True)

    return And(And(And(And(
        Always(at_most("capped", 0.99)),
        Eventually(at_least("reach", start - 0.01))),
        Until(at_most("held", 0.995), at_least("cross", start + 0.02))),
        Next(at_least("floor", 0.0))),
        at_most("start", 1.0))


@pytest.mark.parametrize("mode", ["off", "literal", "conservative"])
@pytest.mark.parametrize("model", ["corridor", "random101", "random102", "random109",
                                   "random110"])
def test_carried_values_match_a_fresh_evaluation_of_both_beliefs(model, mode, monkeypatch):
    # Every verdict, and the monitor after every step, must equal a
    # replay through the reference monitor_step, which evaluates b_prev
    # afresh at each step instead of carrying its values.
    if model == "corridor":
        scen = _scenario(f"corridor_all_kinds_{mode}").to_scenario()
    else:
        m = random_model(np.random.default_rng(int(model.removeprefix("random"))),
                         max_states=5)
        scen = Scenario(model=m, monitor=compile_monitor(_all_kinds_formula(m), m, CFG),
                        policy=RandomUniform(), shield_mode=mode, horizon=25)
    checks = count_calls(monkeypatch, "check_step")
    result = run_batch(scen, base_seed=3, episodes=4)
    successor = {id(verdict): mon for _, (verdict, mon) in checks}
    steps = inactive = 0
    for trace in result.traces:
        mon, belief = scen.monitor, trace.initial_belief
        for s in trace.steps:
            verdict, mon = monitor_step(mon, belief, s.belief)
            assert s.verdict == verdict
            assert successor[id(s.verdict)] == mon
            belief = s.belief
            steps += 1
            inactive += sum(status == "inactive" for status, _, _ in s.verdict)
    # Obligations were discharged mid-episode, so carried values skipped them.
    assert steps and inactive
