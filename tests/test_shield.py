"""Shield decisions: nominal acceptance, overrides that change the fewest
agents and then match the nominal's reward, tie breaks, deadlocks, and
the conservative mode."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls, monitor_step, random_model, random_simplex, shield_reference, values_at,
)
from test_golden import _scenario
from test_sim import _all_kinds_formula

from beliefshield import (
    Always,
    And,
    Belief,
    BeliefPred,
    BeliefVar,
    CONSERVATIVE,
    Constant,
    Difference,
    Eventually,
    FtParams,
    LinearAlpha,
    LITERAL,
    MonitorConfig,
    Mpomdp,
    Next,
    RandomUniform,
    SafetyDeadlock,
    Scenario,
    Sum,
    Until,
    belief_update,
    compile_monitor,
    expected_reward,
    run_batch,
    shield_step,
)
from beliefshield import model, monitor, shield, sim
from beliefshield.errors import BeliefShieldError
from beliefshield.monitor import barrier_values, check_step, passed

CFG = MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.5), ft=FtParams(rho=0.9, eps=0.1))

STAY, SPIKE, DRIFT, LEAP = 0, 1, 2, 3


def line_model(rewards: dict[tuple[int, int], float]) -> Mpomdp:
    """Three states, four actions, one observation. From s0: stay holds,
    spike dumps 0.8 onto s2, drift moves 0.6 to s1, leap moves all to s1."""
    t = np.zeros((3, 4, 3))
    t[:, STAY] = np.eye(3)
    t[0, SPIKE] = (0.2, 0.0, 0.8)
    t[1, SPIKE] = (0.0, 1.0, 0.0)
    t[2, SPIKE] = (0.0, 0.0, 1.0)
    t[0, DRIFT] = (0.4, 0.6, 0.0)
    t[1, DRIFT] = (0.0, 1.0, 0.0)
    t[2, DRIFT] = (0.0, 0.0, 1.0)
    t[0, LEAP] = (0.0, 1.0, 0.0)
    t[1, LEAP] = (0.0, 1.0, 0.0)
    t[2, LEAP] = (0.0, 0.0, 1.0)
    r = np.zeros((3, 4))
    for (state, action), value in rewards.items():
        r[state, action] = value
    return Mpomdp(
        state_names=("s0", "s1", "s2"),
        agent_names=("solo",),
        action_names=(("stay", "spike", "drift", "leap"),),
        observation_names=(("none",),),
        initial=Belief((1.0, 0.0, 0.0)),
        transition=t,
        observation=np.ones((3, 4, 1)),
        reward=r,
    )


def line_monitor(m: Mpomdp):
    # Safe while s2 carries less than half the mass: h = 0.5 - b(s2).
    clear = BeliefPred("clear", Difference(Constant(0.5), BeliefVar(2, "s2")), negated=True)
    return compile_monitor(Always(clear), m, CFG)


B0 = Belief((1.0, 0.0, 0.0))


def test_nominal_action_accepted_without_override():
    m = line_model({(0, STAY): 1.0})
    decision = shield_step(m, values_at(line_monitor(m), B0), B0, 0, STAY)
    assert not decision.overridden
    assert decision.executed == STAY
    assert decision.candidate_rewards == ((STAY, 1.0),)
    assert decision.nominal_reward == 1.0
    assert passed(decision.verdict)
    assert decision.next_monitor.step_count == 1
    assert np.array_equal(decision.next_belief.probs, belief_update(B0, STAY, 0, m).probs)


def test_override_picks_closest_reward_to_nominal():
    rewards = {
        (0, STAY): 1.0,
        (0, SPIKE): 5.0, (1, SPIKE): 5.0, (2, SPIKE): 5.0,
        (0, DRIFT): 2.0, (1, DRIFT): 3.0,
        (1, LEAP): 3.4,
    }
    m = line_model(rewards)
    decision = shield_step(m, values_at(line_monitor(m), B0), B0, 0, SPIKE)
    assert decision.overridden
    assert decision.executed == LEAP
    assert decision.nominal_reward == pytest.approx(5.0)
    got = dict(decision.candidate_rewards)
    assert sorted(got) == [STAY, DRIFT, LEAP]
    assert got[STAY] == pytest.approx(1.0)
    assert got[DRIFT] == pytest.approx(2.6)
    assert got[LEAP] == pytest.approx(3.4)
    # The executed update drives the monitor forward.
    assert np.array_equal(decision.next_belief.probs, belief_update(B0, LEAP, 0, m).probs)
    assert decision.next_monitor.step_count == 1


def test_override_tie_resolves_to_lowest_flat_index():
    # stay and leap sit at squared deviation 1.0 from the nominal's 2.0;
    # drift is far off. All values dyadic so the tie is exact.
    rewards = {
        (0, STAY): 1.0,
        (0, SPIKE): 2.0, (1, SPIKE): 2.0, (2, SPIKE): 2.0,
        (0, DRIFT): 8.0, (1, DRIFT): 8.0,
        (1, LEAP): 3.0,
    }
    m = line_model(rewards)
    decision = shield_step(m, values_at(line_monitor(m), B0), B0, 0, SPIKE)
    assert decision.overridden
    assert decision.executed == STAY


def test_deadlock_reports_barriers_for_every_action():
    m = line_model({(0, STAY): 1.0})
    # Start already past the threshold: every action fails the start check.
    b_bad = Belief((0.4, 0.0, 0.6))
    with pytest.raises(SafetyDeadlock) as err:
        shield_step(m, values_at(line_monitor(m), b_bad), b_bad, 0, STAY)
    assert err.value.step == 1
    barriers = err.value.candidate_barriers
    assert sorted(barriers) == [STAY, SPIKE, DRIFT, LEAP]
    assert barriers[STAY]["0:always"] == pytest.approx(-0.1)
    # spike: s2 mass becomes 0.4*0.8 + 0.6 = 0.92, so h = 0.5 - 0.92.
    assert barriers[SPIKE]["0:always"] == pytest.approx(-0.42)


def test_enumerate_matches_shield_candidates():
    rewards = {(0, SPIKE): 5.0, (1, SPIKE): 5.0, (2, SPIKE): 5.0, (1, LEAP): 3.4}
    m = line_model(rewards)
    mon = line_monitor(m)
    candidates = shield_reference(m, mon, B0, 0, SPIKE).safe
    assert [c.action for c in candidates] == [STAY, DRIFT, LEAP]
    for c in candidates:
        assert passed(c.verdict)
        assert c.monitor.step_count == 1
        assert np.array_equal(c.belief.probs, belief_update(B0, c.action, 0, m).probs)
        assert c.reward == pytest.approx(
            expected_reward(c.belief, c.action, m)
        )
    decision = shield_step(m, values_at(mon, B0), B0, 0, SPIKE)
    assert decision.candidate_rewards == tuple(
        (c.action, c.reward) for c in candidates
    )


# --------------------------------------------------------------------------
# Fewest agents changed first: three agents, two actions each

START, BAD, GOOD = 0, 1, 2


def team_model(unsafe: set[int], rewards: dict[int, float], nominal_reward: float = 0.0) -> Mpomdp:
    """Three agents choosing keep or swap: eight joint actions, flat index
    4*c0 + 2*c1 + c2. Each action in unsafe moves all mass to bad, every
    other to good, and one observation sees nothing; an action's reward
    is rewards[a] at good and nominal_reward at bad."""
    t = np.zeros((3, 8, 3))
    r = np.zeros((3, 8))
    for a in range(8):
        t[:, a, BAD if a in unsafe else GOOD] = 1.0
        r[GOOD, a] = rewards.get(a, 0.0)
        r[BAD, a] = nominal_reward
    return Mpomdp(
        state_names=("start", "bad", "good"),
        agent_names=("x", "y", "z"),
        action_names=(("keep", "swap"),) * 3,
        observation_names=(("none",),) * 3,
        initial=Belief((1.0, 0.0, 0.0)),
        transition=t,
        observation=np.ones((3, 8, 1)),
        reward=r,
    )


def team_monitor(m: Mpomdp):
    # Safe while bad carries less than half the mass: h = 0.5 - b(bad).
    clear = BeliefPred("clear", Difference(Constant(0.5), BeliefVar(BAD, "bad")), negated=True)
    return values_at(compile_monitor(Always(clear), m, CFG), m.initial)


def team_step(m: Mpomdp, nominal: int = 0):
    return shield_step(m, team_monitor(m), m.initial, 0, nominal)


def test_one_agent_changed_beats_a_closer_reward_that_changes_two(barrier_calls):
    # Action 3 (keep, swap, swap) matches the nominal's reward exactly,
    # but changes two agents; 1, 2 and 4 change one.
    m = team_model(unsafe={0}, rewards={1: 5.0, 2: 6.0, 4: 7.0, 3: 1.0, 7: 1.0},
                   nominal_reward=1.0)
    mon = team_monitor(m)
    barrier_calls.clear()
    decision = shield_step(m, mon, m.initial, 0, 0)
    assert decision.overridden
    assert decision.executed == 1
    assert decision.nominal_reward == 1.0
    assert decision.candidate_rewards == ((1, 5.0), (2, 6.0), (4, 7.0))
    # The nominal and the three one-agent changes; no two-agent change
    # is checked once one agent's change is safe.
    assert len(barrier_calls) == 4


def test_two_agents_changed_when_every_one_agent_change_is_unsafe():
    m = team_model(unsafe={0, 1, 2, 4}, rewards={3: 4.0, 5: 2.0, 6: 9.0, 7: 1.0},
                   nominal_reward=1.0)
    decision = team_step(m)
    assert decision.executed == 5
    assert decision.candidate_rewards == ((3, 4.0), (5, 2.0), (6, 9.0))


@pytest.mark.parametrize("rewards, executed", [
    # 1e-10 apart: tied, so the lowest flat index wins.
    ({1: 2.0 + 1e-10, 2: 2.0}, 1),
    # The band is on |r - r_n|, so a deviation below the nominal ties too.
    ({1: -2.0 - 1e-10, 2: 2.0}, 1),
    # 1e-6 apart: not tied, so the closer one wins.
    ({1: 2.0 + 1e-6, 2: 2.0}, 2),
    ({1: -2.0 - 1e-6, 2: 2.0}, 2),
], ids=["1e-10-above", "1e-10-below", "1e-6-above", "1e-6-below"])
def test_rewards_within_the_tie_band_go_to_the_lowest_index(rewards, executed):
    m = team_model(unsafe={0}, rewards={**rewards, 4: 9.0})
    assert team_step(m).executed == executed


def test_a_deadlock_checks_every_level_and_lists_every_action_in_flat_order(barrier_calls):
    m = team_model(unsafe=set(range(8)), rewards={})
    mon = team_monitor(m)
    barrier_calls.clear()
    with pytest.raises(SafetyDeadlock) as err:
        shield_step(m, mon, m.initial, 0, 5)
    barriers = err.value.candidate_barriers
    assert list(barriers) == list(range(8))
    assert all(b == {"0:always": -0.5} for b in barriers.values())
    # Each action's posterior is evaluated once, the nominal's included.
    assert len(barrier_calls) == 8


# --------------------------------------------------------------------------
# Observation-dependent safety

GO, JAM = 0, 1
ZA, ZB = 0, 1


def signal_model() -> Mpomdp:
    """Two states, identity dynamics. go always emits za; jam always
    emits zb, so jam has zero likelihood when za was observed."""
    o = np.zeros((2, 2, 2))
    o[:, GO, ZA] = 1.0
    o[:, JAM, ZB] = 1.0
    return Mpomdp(
        state_names=("u0", "u1"),
        agent_names=("solo",),
        action_names=(("go", "jam"),),
        observation_names=(("za", "zb"),),
        initial=Belief((0.75, 0.25)),
        transition=np.stack([np.eye(2), np.eye(2)], axis=1),
        observation=o,
        reward=np.array([[0.0, 4.0], [0.0, 8.0]]),
    )


def trivially_safe_monitor(m: Mpomdp):
    return compile_monitor(Always(BeliefPred("ok", Constant(1.0), negated=True)), m, CFG)


def test_zero_likelihood_candidate_is_unsafe_not_an_error():
    m = signal_model()
    mon = trivially_safe_monitor(m)
    b = Belief((0.75, 0.25))
    candidates = shield_reference(m, mon, b, ZA, GO).safe
    assert [c.action for c in candidates] == [GO]


def test_impossible_nominal_falls_back_to_predicted_reward():
    m = signal_model()
    mon = trivially_safe_monitor(m)
    b = Belief((0.75, 0.25))
    decision = shield_step(m, values_at(mon, b), b, ZA, JAM)
    assert decision.overridden
    assert decision.executed == GO
    # Identity dynamics: predicted belief equals b, reward 0.75*4 + 0.25*8.
    assert decision.nominal_reward == pytest.approx(5.0)


def test_deadlock_marks_zero_likelihood_candidates_empty():
    m = signal_model()
    # Impossible monitor: barrier -1 forever fails the start check.
    doomed = compile_monitor(
        Always(BeliefPred("never", Constant(-1.0), negated=True)), m, CFG
    )
    b = Belief((0.75, 0.25))
    with pytest.raises(SafetyDeadlock) as err:
        shield_step(m, values_at(doomed, b), b, ZA, GO)
    assert err.value.candidate_barriers[JAM] == {}
    assert err.value.candidate_barriers[GO]["0:always"] == pytest.approx(-1.0)


# --------------------------------------------------------------------------
# Conservative mode

PROBE, SIT = 0, 1


def sensor_model() -> Mpomdp:
    """probe reveals the state (za likely in u0, zb likely in u1); sit is
    uninformative. Identity dynamics for both."""
    o = np.zeros((2, 2, 2))
    o[0, PROBE] = (0.9, 0.1)
    o[1, PROBE] = (0.1, 0.9)
    o[:, SIT] = 0.5
    return Mpomdp(
        state_names=("u0", "u1"),
        agent_names=("solo",),
        action_names=(("probe", "sit"),),
        observation_names=(("za", "zb"),),
        initial=Belief((0.75, 0.25)),
        transition=np.stack([np.eye(2), np.eye(2)], axis=1),
        observation=o,
        reward=np.zeros((2, 2)),
    )


def margin_monitor(m: Mpomdp):
    # h = b(u0) - 0.5, so posteriors that shift mass onto u1 break it.
    margin = BeliefPred("margin", Difference(BeliefVar(0, "u0"), Constant(0.5)), negated=True)
    return compile_monitor(Always(margin), m, CFG)


def test_conservative_rejects_actions_unsafe_under_other_observations():
    m = sensor_model()
    b = Belief((0.75, 0.25))
    literal = shield_reference(m, margin_monitor(m), b, ZA, PROBE, LITERAL).safe
    conservative = shield_reference(m, margin_monitor(m), b, ZA, PROBE, CONSERVATIVE).safe
    assert [c.action for c in literal] == [PROBE, SIT]
    assert [c.action for c in conservative] == [SIT]

    accepted = shield_step(m, values_at(margin_monitor(m), b), b, ZA, PROBE, LITERAL)
    assert not accepted.overridden

    overridden = shield_step(m, values_at(margin_monitor(m), b), b, ZA, PROBE, CONSERVATIVE)
    assert overridden.overridden
    assert overridden.executed == SIT
    # The executed successor still follows the observation actually seen.
    assert np.array_equal(overridden.next_belief.probs, belief_update(b, SIT, ZA, m).probs)


def test_unknown_mode_rejected():
    m = sensor_model()
    b = Belief((0.75, 0.25))
    with pytest.raises(ValueError):
        shield_step(m, values_at(margin_monitor(m), b), b, ZA, PROBE, "off")


# --------------------------------------------------------------------------
# shield_step against the one-action-at-a-time brute-force reference


def with_impossible_observations(rng: np.random.Generator, m: Mpomdp) -> Mpomdp:
    """m with some (action, observation) pairs given zero probability in
    every state, so those observations have zero likelihood."""
    o = m.observation.copy()
    if m.n_joint_observations > 1:
        for a in range(m.n_joint_actions):
            if rng.random() < 0.4:
                o[:, a, rng.integers(m.n_joint_observations)] = 0.0
        o /= o.sum(axis=2, keepdims=True)
    return Mpomdp(m.state_names, m.agent_names, m.action_names, m.observation_names,
                  m.initial, m.transition, o, m.reward)


def random_monitor(rng: np.random.Generator, m: Mpomdp):
    """A conjunction of one to three obligations of random kinds over
    threshold predicates, advanced zero to two steps."""
    def mass_below():
        states = rng.choice(m.n_states, size=rng.integers(1, m.n_states + 1), replace=False)
        mass = Sum(tuple(BeliefVar(int(q), f"s{q}") for q in sorted(states)))
        return Difference(Constant(float(rng.uniform(0.0, 1.0))), mass)

    def core():
        if rng.random() < 0.5:
            return BeliefPred("below", mass_below())
        return BeliefPred("above", mass_below(), negated=True)

    kinds = (lambda: Always(core()), lambda: Eventually(core()),
             lambda: Until(core(), core()), lambda: Next(core()), core)
    phi = reduce(And, [kinds[rng.integers(len(kinds))]() for _ in range(rng.integers(1, 4))])
    mon = compile_monitor(phi, m, CFG)
    for _ in range(rng.integers(0, 3)):
        _, mon = monitor_step(mon, Belief(random_simplex(rng, m.n_states)),
                              Belief(random_simplex(rng, m.n_states)))
    return mon


def reference_barriers(ref, mon):
    """Per-action barrier report from the reference's verdicts, each
    record named by mon's obligation at its position."""
    return {c.action: {} if c.verdict is None else
            {ob.oid: barrier for ob, (_, barrier, _) in zip(mon.obligations, c.verdict)
             if barrier is not None}
            for c in ref.actions}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([LITERAL, CONSERVATIVE]))
def test_batched_shield_matches_enumeration(seed, mode):
    rng = np.random.default_rng(seed)
    m = with_impossible_observations(rng, random_model(rng))
    mon = random_monitor(rng, m)
    b = Belief(random_simplex(rng, m.n_states))
    z = int(rng.integers(m.n_joint_observations))
    a_nom = int(rng.integers(m.n_joint_actions))

    ref = shield_reference(m, mon, b, z, a_nom, mode)
    if ref.choice is None:
        with pytest.raises(SafetyDeadlock) as err:
            shield_step(m, values_at(mon, b), b, z, a_nom, mode)
        assert err.value.step == mon.step_count + 1
        assert err.value.candidate_barriers == reference_barriers(ref, mon)
        return
    assert_decision_is_the_reference(shield_step(m, values_at(mon, b), b, z, a_nom, mode),
                                     ref, a_nom)


def assert_decision_is_the_reference(decision, ref, a_nom):
    best = ref.choice
    assert decision.overridden == (best.action != a_nom)
    assert decision.executed == best.action
    assert decision.nominal_reward == ref.nominal_reward
    assert decision.candidate_rewards == tuple((c.action, c.reward) for c in ref.level)
    assert decision.verdict == best.verdict
    assert decision.next_monitor == best.monitor
    assert np.array_equal(decision.next_belief.probs.view(np.int64),
                          best.belief.probs.view(np.int64))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([LITERAL, CONSERVATIVE]))
def test_forced_deadlock_reports_every_action(seed, mode):
    rng = np.random.default_rng(seed)
    m = with_impossible_observations(rng, random_model(rng))
    # A negative constant barrier fails the start check for every action.
    doomed = Always(BeliefPred("never", Difference(
        Constant(-1.0), BeliefVar(int(rng.integers(m.n_states)), "s")), negated=True))
    mon = compile_monitor(doomed, m, CFG)
    b = Belief(random_simplex(rng, m.n_states))
    z = int(rng.integers(m.n_joint_observations))
    a_nom = int(rng.integers(m.n_joint_actions))
    with pytest.raises(SafetyDeadlock) as err:
        shield_step(m, values_at(mon, b), b, z, a_nom, mode)
    assert err.value.candidate_barriers == reference_barriers(
        shield_reference(m, mon, b, z, a_nom, mode), mon)


@pytest.mark.parametrize("mode", [LITERAL, CONSERVATIVE])
def test_a_corridor_override_matches_the_reference_without_failure_text(mode, monkeypatch):
    # Every corridor episode overrides its nominal at step 1.
    scen = _scenario({LITERAL: "corridor", CONSERVATIVE: "corridor_conservative"}[mode])
    steps = count_calls(monkeypatch, "shield_step", shield)
    run_batch(scen.to_scenario(), base_seed=7, episodes=1)
    (m, mon, b, z, a_nom), _ = steps[0]
    checks = count_calls(monkeypatch, "_check", shield)
    decision = shield_step(m, mon, b, z, a_nom, mode)
    assert decision.overridden
    assert_decision_is_the_reference(decision, shield_reference(m, mon, b, z, a_nom, mode),
                                     a_nom)
    # Each failing record of a check carries no text, where check_step's
    # record of the same step carries its reason.
    failed = 0
    for _, (_, values, records, _, _) in checks:
        if records is None:
            continue  # z is impossible after this action
        for (status, _, detail), (_, _, text) in zip(records, check_step(mon, values)[0]):
            if status == "fail":
                failed += 1
                assert detail == "" and text
    assert failed


# --------------------------------------------------------------------------
# Each candidate's obligations are walked once


def audited_shield(monkeypatch) -> list[bool]:
    """Checks, on every shield_step the simulator makes from here on,
    that no rule walks an obligation of one posterior twice and that
    check_step is not called, a call that deadlocks included, and that a
    passing nominal's decision carries the records and successor
    check_step gives on its values. Returns each checked decision's
    `overridden`."""
    walked = []
    for kind, rule in list(monitor._RULES.items()):
        def counting(ob, prev, nxt, *args, rule=rule):
            # nxt is the obligation's list of barrier values at one
            # posterior, so its identity tells posteriors apart; the list
            # is kept alive here, so no identity is reused.
            walked.append((ob.oid, nxt))
            return rule(ob, prev, nxt, *args)
        monkeypatch.setitem(monitor._RULES, kind, counting)
    checks = count_calls(monkeypatch, "check_step")
    real = sim.shield_step
    overridden = []

    def checked(m, mon, b_prev, *args, **kwargs):
        walked.clear()
        checks.clear()
        try:
            decision = real(m, mon, b_prev, *args, **kwargs)
        finally:
            keys = [(oid, id(nxt)) for oid, nxt in walked]
            assert len(keys) == len(set(keys))
            assert checks == []
        if not decision.overridden:
            records, reached = check_step(mon, barrier_values(mon, decision.next_belief.probs))
            assert decision.verdict == records
            assert decision.next_monitor == reached
        overridden.append(decision.overridden)
        return decision

    monkeypatch.setattr(sim, "shield_step", checked)
    return overridden


@pytest.mark.parametrize("mode", [LITERAL, CONSERVATIVE])
def test_each_candidate_of_a_corridor_step_is_walked_once(mode, monkeypatch):
    scen = _scenario(f"corridor_all_kinds_{mode}").to_scenario()
    overridden = audited_shield(monkeypatch)
    run_batch(scen, base_seed=3, episodes=3)
    assert True in overridden and False in overridden


@pytest.mark.parametrize("mode", [LITERAL, CONSERVATIVE])
def test_each_candidate_of_a_random_model_step_is_walked_once(mode, monkeypatch):
    # Random conjunctions over random models, and the all-kinds formula,
    # whose until and eventually discharge mid-episode; some batches
    # deadlock.
    overridden = audited_shield(monkeypatch)
    for seed in range(16):
        rng = np.random.default_rng(seed)
        m = with_impossible_observations(rng, random_model(rng, max_states=5))
        monitors = [random_monitor(rng, m)]
        try:
            monitors.append(compile_monitor(_all_kinds_formula(m), m, CFG))
        except BeliefShieldError:
            pass  # the eventually's start barrier fixes no deadline
        for mon in monitors:
            scen = Scenario(model=m, monitor=mon, policy=RandomUniform(), shield_mode=mode,
                            horizon=25)
            run_batch(scen, base_seed=seed, episodes=3)
    assert True in overridden and False in overridden


@pytest.mark.parametrize("mode", [LITERAL, CONSERVATIVE])
def test_each_posterior_is_walked_once_a_deadlock_included(mode, monkeypatch):
    # The corridor at rho 0.9 deadlocks at step 3 of every episode.
    scen = _scenario(f"corridor_deadlock_{mode}").to_scenario()
    walks = count_calls(monkeypatch, "walk_step")
    checks = count_calls(monkeypatch, "check_step")
    posteriors = count_calls(monkeypatch, "correct", model)
    real = sim.shield_step
    counted = []

    def checked(m, mon, *args, **kwargs):
        walks.clear()
        posteriors.clear()
        decision = None  # it stays None when the step deadlocks
        try:
            decision = real(m, mon, *args, **kwargs)
        finally:
            # One walk per posterior the shield corrects to, in order.
            assert [(walked, nxt) for (walked, nxt), _ in walks] == [
                (mon, barrier_values(mon, posterior)) for _, posterior in posteriors]
            counted.append((decision and decision.overridden, len(walks)))
        return decision

    monkeypatch.setattr(sim, "shield_step", checked)
    run_batch(scen, base_seed=7, episodes=3)
    assert checks == []
    # Steps 1 and 2 override: the nominal and the three actions that
    # change one agent are walked under z, and in conservative mode the
    # one of them that passes is walked under the corridor's other joint
    # observation too. Step 3 deadlocks: all six joint actions are walked
    # under z, and no other observation, since none passes under z.
    override = (True, {LITERAL: 4, CONSERVATIVE: 5}[mode])
    assert counted == [override, override, (None, 6)] * 3
