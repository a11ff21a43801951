"""Filter, encoding, and sampling checks for the model module."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefshield import (
    CONSERVATIVE, Always, BeliefPred, Constant, MonitorConfig, compile_monitor,
    shield_step,
)
from beliefshield.errors import ZeroLikelihood
from beliefshield import model
from beliefshield.shield import _levels, _passes_elsewhere
from beliefshield.model import (
    LIKELIHOOD_FLOOR, SIMPLEX_ATOL, Belief, Mpomdp, belief_update, belief_updates,
    correct, expected_reward, flat_from_components, joint_labels,
    predicted_belief, sample_initial_state,
    _row_tables, _sample_index, sample_observation, sample_transition, validate_model, validate_tables,
)

from conftest import (
    random_model, random_simplex, shield_reference, two_pass_posterior, values_at,
)


def reference_model() -> Mpomdp:
    """Two states, one agent, identity transitions, and an observation
    that favors s0 with likelihood 0.8. From the uniform belief the
    posterior after that observation is exactly (0.8, 0.2)."""
    return Mpomdp(
        state_names=("s0", "s1"),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("hot", "cold"),),
        initial=Belief(np.array([0.5, 0.5])),
        transition=np.eye(2)[:, None, :],
        observation=np.array([[[0.8, 0.2]], [[0.2, 0.8]]]),
        reward=np.array([[1.0], [0.0]]),
    )


def test_frozen_posterior_example():
    m = reference_model()
    posterior = belief_update(m.initial, 0, 0, m)
    assert np.allclose(posterior.probs, [0.8, 0.2], atol=1e-15)


def test_identity_dynamics_uniform_observation_is_fixed_point():
    m = Mpomdp(
        state_names=("s0", "s1", "s2"),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("z",),),
        initial=Belief(np.array([0.5, 0.25, 0.25])),
        transition=np.eye(3)[:, None, :],
        observation=np.ones((3, 1, 1)),
        reward=np.zeros((3, 1)),
    )
    b = m.initial
    for _ in range(5):
        b = belief_update(b, 0, 0, m)
    assert np.array_equal(b.probs, m.initial.probs)


def test_filter_matches_two_pass_oracle_on_random_models():
    rng = np.random.default_rng(20260817)
    for _ in range(100):
        m = random_model(rng)
        b = Belief(random_simplex(rng, m.n_states))
        a = int(rng.integers(m.n_joint_actions))
        z = int(rng.integers(m.n_joint_observations))
        expected = two_pass_posterior(b, a, z, m)
        assert expected is not None
        got = belief_update(b, a, z, m)
        assert np.max(np.abs(got.probs - expected)) <= 1e-12


def test_filter_matches_monte_carlo_conditional():
    # Empirical check: simulate (state, next state, observation) and
    # condition on the observation; the histogram approximates the
    # posterior.
    m = reference_model()
    rng = np.random.default_rng(3)
    draws = 100_000
    states = rng.choice(2, size=draws, p=m.initial.probs)
    hits = np.zeros(2)
    for q in states:
        q_next = sample_transition(int(q), 0, m, rng)
        z = sample_observation(q_next, 0, m, rng)
        if z == 0:
            hits[q_next] += 1
    empirical = hits / hits.sum()
    posterior = belief_update(m.initial, 0, 0, m)
    assert np.max(np.abs(empirical - posterior.probs)) < 0.01


def test_zero_likelihood_raises_with_context():
    m = Mpomdp(
        state_names=("s0", "s1"),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("za", "zb"),),
        initial=Belief(np.array([1.0, 0.0])),
        transition=np.eye(2)[:, None, :],
        observation=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
        reward=np.zeros((2, 1)),
    )
    with pytest.raises(ZeroLikelihood) as exc:
        belief_update(m.initial, 0, 1, m)
    assert exc.value.action == 0
    assert exc.value.observation == 1
    assert exc.value.denominator <= 1e-12


def test_posterior_is_normalized_without_renormalizing_inputs():
    rng = np.random.default_rng(11)
    m = random_model(rng)
    b = Belief(random_simplex(rng, m.n_states))
    post = belief_update(b, 0, 0, m)
    assert abs(float(post.probs.sum()) - 1.0) < 1e-12


def test_observation_likelihoods_sum_to_one():
    rng = np.random.default_rng(12)
    m = random_model(rng)
    b = Belief(random_simplex(rng, m.n_states))
    for a in range(m.n_joint_actions):
        lik = predicted_belief(b, a, m) @ m.observation[:, a, :]
        assert abs(float(lik.sum()) - 1.0) < 1e-9
        assert np.all(lik >= 0.0)


def test_predicted_belief_and_expected_reward():
    m = reference_model()
    b = Belief(np.array([0.25, 0.75]))
    assert np.array_equal(predicted_belief(b, 0, m), b.probs)
    assert expected_reward(b, 0, m) == pytest.approx(0.25)


def sparse_rows(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Stochastic rows along the last axis, each dense, with zero
    entries, or with one successor."""
    rows = rng.random(shape) + 1e-3
    kind = rng.integers(3, size=shape[:-1])
    rows[kind == 1] *= rng.random((int((kind == 1).sum()), shape[-1])) < 0.5
    one = np.argwhere(kind == 2)
    rows[tuple(one.T)] = 0.0
    rows[(*one.T, rng.integers(shape[-1], size=len(one)))] = 1.0
    # A row that lost every entry keeps its first.
    empty = ~(rows > 0).any(axis=-1)
    rows[empty, 0] = 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


def hub_model(rng: np.random.Generator) -> Mpomdp:
    """A random model with sparse transition rows, every one of which
    reaches state 0, the hub, and none of which reaches the last half of
    the states: the hub has in-degree n, those states in-degree 0."""
    m = random_model(rng, max_states=24, max_agents=2)
    n = m.n_states
    reached = n - n // 2
    transition = np.zeros(m.transition.shape)
    transition[:, :, 0] = rng.random(transition.shape[:2]) + 1e-3
    others = rng.random((n, m.n_joint_actions, reached - 1))
    transition[:, :, 1:reached] = others * (rng.random(others.shape) < 0.4)
    return replace(m, transition=transition / transition.sum(axis=2, keepdims=True),
                   observation=sparse_rows(rng, m.observation.shape))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans())
def test_predicted_belief_adds_in_ascending_source_order(seed, zeros_in_belief, hub):
    rng = np.random.default_rng(seed)
    if hub:
        m = hub_model(rng)
    else:
        m = random_model(rng, max_states=12)
        m = replace(m, transition=sparse_rows(rng, m.transition.shape))
    probs = random_simplex(rng, m.n_states)
    if zeros_in_belief:
        probs[rng.random(m.n_states) < 0.3] = 0.0
    b = Belief(probs)
    t = m.transition
    for a in range(m.n_joint_actions):
        expected = []
        for q_next in range(m.n_states):
            acc = 0.0
            for q in range(m.n_states):
                acc += float(b.probs[q]) * float(t[q, a, q_next])
            expected.append(acc)
        predicted = predicted_belief(b, a, m)
        assert np.array_equal(predicted.view("<u8"), np.array(expected).view("<u8"))
        assert np.allclose(predicted, b.probs @ t[:, a, :], rtol=0.0, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([6, 40, 300]))
def test_belief_updates_give_each_row_the_bits_of_belief_update(seed, max_states):
    # Each row of a stack is predicted into bins of its own and summed as
    # one contiguous row, so its bits are those of the row alone; sizes
    # above 128 take numpy's pairwise summation into blocks.
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_states=max_states, max_agents=2)
    m = replace(m, transition=sparse_rows(rng, m.transition.shape),
                observation=sparse_rows(rng, m.observation.shape))
    k = int(rng.integers(1, 12))
    probs = np.array([random_simplex(rng, m.n_states) for _ in range(k)])
    actions = rng.integers(m.n_joint_actions, size=k)
    observations = rng.integers(m.n_joint_observations, size=k)
    posteriors, normalizers = belief_updates(probs, actions, observations, m)
    assert posteriors.shape == probs.shape and normalizers.shape == (k,)
    for row, a, z, posterior, normalizer in zip(probs, actions.tolist(), observations.tolist(),
                                                posteriors, normalizers.tolist()):
        try:
            expected = belief_update(Belief(row), a, z, m).probs
        except ZeroLikelihood as exc:
            assert normalizer == exc.denominator
            continue
        assert normalizer > LIKELIHOOD_FLOOR
        assert posterior.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=200),
       st.booleans())
def test_chunked_stacks_give_each_row_the_bits_of_belief_update(seed, chunk_terms, hub):
    # With the chunk limit patched small, one action's rows are predicted
    # in many chunks, down to one row each; every row keeps its bits. A
    # hub model's layers run in width from the reached states down to
    # one; its actions have up to 130 terms, so its chunks hold up to 30
    # rows.
    rng = np.random.default_rng(seed)
    if hub:
        m = hub_model(rng)
        k = int(rng.choice([1, 2, 3, 40]))
        chunk_terms *= 20
    else:
        m = random_model(rng, max_states=20, max_agents=2)
        m = replace(m, transition=sparse_rows(rng, m.transition.shape),
                    observation=sparse_rows(rng, m.observation.shape))
        k = int(rng.integers(1, 40))
    probs = np.array([random_simplex(rng, m.n_states) for _ in range(k)])
    actions = rng.integers(m.n_joint_actions, size=k)
    observations = rng.integers(m.n_joint_observations, size=k)
    with mock.patch.object(model, "CHUNK_TERMS", chunk_terms):
        posteriors, normalizers = belief_updates(probs, actions, observations, m)
    for row, a, z, posterior, normalizer in zip(probs, actions.tolist(), observations.tolist(),
                                                posteriors, normalizers.tolist()):
        try:
            expected = belief_update(Belief(row), a, z, m).probs
        except ZeroLikelihood as exc:
            assert normalizer == exc.denominator
            continue
        assert posterior.tobytes() == expected.tobytes()


def test_a_large_stack_is_filtered_in_bounded_memory():
    # 1000 rows of a dense 128-state kernel are 16.4M kernel terms: held
    # at once, about 131 MB of float64. In chunks of at most CHUNK_TERMS
    # (2^20) terms, 8 MB, the peak with the 1 MB of posteriors stays
    # near 9.3 MB.
    rng = np.random.default_rng(11)
    n, k = 128, 1000
    transition = rng.random((n, 1, n)) + 1e-3
    m = Mpomdp(
        state_names=tuple(f"s{i}" for i in range(n)),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("z0", "z1"),),
        initial=Belief(random_simplex(rng, n)),
        transition=transition / transition.sum(axis=2, keepdims=True),
        observation=np.full((n, 1, 2), 0.5),
        reward=np.zeros((n, 1)),
    )
    probs = rng.random((k, n))
    probs /= probs.sum(axis=1, keepdims=True)
    actions = np.zeros(k, dtype=np.int64)
    observations = rng.integers(2, size=k)
    tracemalloc.start()
    try:
        posteriors, _ = belief_updates(probs, actions, observations, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    for i in (0, k // 2, k - 1):
        expected = belief_update(Belief(probs[i]), 0, int(observations[i]), m).probs
        assert posteriors[i].tobytes() == expected.tobytes()


def test_validate_model_flags_bad_rows_with_indices():
    m = reference_model()
    bad_t = m.transition.copy()
    bad_t[1, 0, :] = [0.7, 0.2]
    bad = Mpomdp(
        state_names=m.state_names,
        agent_names=m.agent_names,
        action_names=m.action_names,
        observation_names=m.observation_names,
        initial=m.initial,
        transition=bad_t,
        observation=m.observation,
        reward=m.reward,
    )
    violations = validate_model(bad)
    assert len(violations) == 1
    assert violations[0].table == "transition"
    assert violations[0].indices == (1, 0)
    assert "0.9" in violations[0].message


def test_validate_model_reports_nan_rows_and_entries():
    m = reference_model()
    bad_t = m.transition.copy()
    bad_t[1, 0, 0] = np.nan
    bad = replace(m, initial=Belief(np.array([np.nan, 1.0])), transition=bad_t)
    assert [str(v) for v in validate_model(bad)] == [
        "transition[1, 0]: row sums to nan, not 1",
        "transition[1, 0, 0]: entry nan outside [0, 1]",
        "initial[0]: row sums to nan, not 1",
        "initial[0, 0]: entry nan outside [0, 1]",
    ]


def test_validate_model_accepts_valid_model():
    rng = np.random.default_rng(13)
    assert validate_model(random_model(rng)) == []


def test_belief_rejects_bad_vectors():
    # Values are checked where a belief enters: at load by validate_tables,
    # and for a model built in code by validate_model as its initial belief.
    m = reference_model()
    for bad, message in (((0.5, 0.6), "row sums to 1.1"),
                         ((1.2, -0.2), "entry 1.2 outside [0, 1]")):
        for violations in (validate_tables(np.array(bad), m.transition, m.observation),
                           validate_model(replace(m, initial=Belief(np.array(bad))))):
            assert violations
            assert all(v.table == "initial" for v in violations)
            assert any(message in v.message for v in violations)
    with pytest.raises(ValueError):
        Belief(np.array([[0.5, 0.5]]))


def test_belief_is_read_only():
    b = Belief(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        b.probs[0] = 1.0


def test_a_belief_of_outside_data_holds_a_copy():
    data = np.array([0.5, 0.5])
    b = Belief(data)
    data[0] = 1.0
    assert b.probs.tolist() == [0.5, 0.5]
    assert data.flags.writeable


def test_filter_and_shield_outputs_are_taken_over_read_only(monkeypatch):
    # The filter's belief holds the very array its correction returned,
    # and neither it nor the shield's executed belief can be written to.
    m = reference_model()
    made = []
    monkeypatch.setattr("beliefshield.model.correct",
                        lambda *args: made.append(correct(*args)) or made[-1])
    posterior = belief_update(m.initial, 0, 0, m)
    assert posterior.probs is made[-1]
    assert not posterior.probs.flags.writeable
    mon = compile_monitor(Always(BeliefPred("true", Constant(1.0), negated=True)), m,
                          MonitorConfig())
    decision = shield_step(m, mon, m.initial, 0, 0)
    assert decision.next_belief.probs.tobytes() == posterior.probs.tobytes()
    assert not decision.next_belief.probs.flags.writeable


def test_mixed_radix_round_trip_exhaustive():
    radices = (3, 2, 4)
    labels = joint_labels([range(r) for r in radices])
    assert len(labels) == len(set(labels)) == 3 * 2 * 4
    for flat, comps in enumerate(labels):
        assert flat_from_components(comps, radices) == flat
    # Agent 0 is most significant.
    assert labels[0] == (0, 0, 0)
    assert labels[-1] == (2, 1, 3)
    assert labels[8] == (1, 0, 0)


def test_mixed_radix_rejects_out_of_range():
    with pytest.raises(ValueError):
        flat_from_components((3,), (3,))
    with pytest.raises(ValueError):
        flat_from_components((0, 0), (3,))


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
       st.data())
def test_mixed_radix_round_trip_property(radices, data):
    radices = tuple(radices)
    labels = joint_labels([range(r) for r in radices])
    assert len(labels) == int(np.prod(radices))
    flat = data.draw(st.integers(min_value=0, max_value=len(labels) - 1))
    assert flat_from_components(labels[flat], radices) == flat


def with_likelihood(m: Mpomdp, b: Belief, a: int, z: int, target: float) -> Mpomdp:
    """m with observation[:, a, z] scaled so that z has predicted
    likelihood `target` under action a from b; the other observations
    of a share the rest of each row."""
    o = m.observation.copy()
    o[:, a, z] *= target / float(predicted_belief(b, a, m) @ o[:, a, z])
    others = [k for k in range(m.n_joint_observations) if k != z]
    o[:, a, others] *= ((1.0 - o[:, a, z]) / o[:, a, others].sum(axis=1))[:, None]
    return replace(m, observation=o)


def assert_on_simplex(p: np.ndarray) -> None:
    assert np.all(p >= 0.0)
    assert np.all(p <= 1.0 + SIMPLEX_ATOL)
    assert abs(float(p.sum()) - 1.0) < SIMPLEX_ATOL


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
def test_posterior_is_simplex_point_property(seed, near_floor):
    # Beliefs are not checked when built, so every filter output must
    # land on the simplex itself, also when the observation's likelihood
    # is just above the floor: belief_update's, and the correction of
    # the drawn action's prediction under every observation, the rows
    # the shield checks.
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    b = Belief(random_simplex(rng, m.n_states))
    a = int(rng.integers(m.n_joint_actions))
    z = int(rng.integers(m.n_joint_observations))
    if near_floor and m.n_joint_observations > 1:
        m = with_likelihood(m, b, a, z, LIKELIHOOD_FLOOR * (1.0 + 10 ** rng.uniform(-6, 0)))
    post = belief_update(b, a, z, m)
    assert_on_simplex(post.probs)
    predicted = predicted_belief(b, a, m)
    assert np.array_equal(correct(predicted, a, z, m), post.probs)
    for obs in range(m.n_joint_observations):
        try:
            assert_on_simplex(correct(predicted, a, obs, m))
        except ZeroLikelihood as exc:
            assert obs != z
            assert exc.denominator <= LIKELIHOOD_FLOOR


@pytest.mark.parametrize("likelihood, safe", [(0.0, True), (0.5 * LIKELIHOOD_FLOOR, False)])
def test_conservative_shield_skips_only_impossible_observations(likelihood, safe):
    # Under a barrier that always passes, only the correction's floor
    # decides. An observation of likelihood 0 is impossible and skipped;
    # one of positive likelihood at most the floor has no posterior to
    # check, so the action is unsafe, as in the brute-force reference.
    rng = np.random.default_rng(5)
    m = random_model(rng)
    while m.n_joint_actions < 2 or m.n_joint_observations < 2:
        m = random_model(rng)
    b, a, z, other = m.initial, 0, 0, 1
    m = with_likelihood(m, b, a, other, likelihood)
    true = Always(BeliefPred("true", Constant(1.0), negated=True))
    mon = compile_monitor(true, m, MonitorConfig())
    reference = [c.action for c in shield_reference(m, mon, b, z, a, CONSERVATIVE).safe]
    assert (a in reference) is safe
    assert shield_step(m, values_at(mon, b), b, z, a, CONSERVATIVE).overridden is not safe


# Likelihoods an observation is given in the floor property below:
# impossible, positive but below the floor, at the floor, the next float
# above it, or an ordinary share of each row (None).
LIKELIHOODS = {
    "zero": 0.0,
    "below": 0.5 * LIKELIHOOD_FLOOR,
    "floor": LIKELIHOOD_FLOOR,
    "above": float(np.nextafter(LIKELIHOOD_FLOOR, 1.0)),
    "ordinary": None,
}


def observation_block(rng, predicted: np.ndarray, kinds: list[str]) -> np.ndarray:
    """One action's (n, Z) observation block whose observation k has the
    likelihood LIKELIHOODS[kinds[k]] under predicted, exactly: such an
    observation is seen only in state 0, where predicted holds a power
    of two, so every product and sum it takes is exact. The ordinary
    observations share the rest of each row."""
    n = len(predicted)
    block = rng.random((n, len(kinds))) + 1e-3
    special = [k for k, kind in enumerate(kinds) if kind != "ordinary"]
    block[:, special] = 0.0
    block[0, special] = [LIKELIHOODS[kinds[k]] / predicted[0] for k in special]
    ordinary = [k for k, kind in enumerate(kinds) if kind == "ordinary"]
    rest = 1.0 - block[:, special].sum(axis=1)
    block[:, ordinary] *= (rest / block[:, ordinary].sum(axis=1))[:, None]
    return block


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=3),
       st.lists(st.sampled_from(sorted(LIKELIHOODS)), max_size=7),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_an_observation_the_floor_refuses_passes_only_when_impossible(
        n, n_actions, kinds, seed):
    # The conservative shield corrects a prediction under every other
    # observation with correct itself. The floor must split impossible
    # from failing observations: a ZeroLikelihood of denominator 0
    # passes, any other fails, and every posterior passes a barrier that
    # always holds. So the check with z left out passes exactly when
    # every other observation does.
    rng = np.random.default_rng(seed)
    kinds = ["ordinary", *kinds]
    rng.shuffle(kinds)
    predicted = np.zeros(n)
    if n == 1:
        predicted[0] = 1.0
    else:
        predicted[0] = 0.5
        predicted[1:] = 0.5 * random_simplex(rng, n - 1) * (rng.random(n - 1) < 0.8)
    transition = rng.random((n, n_actions, n)) + 1e-3
    m = Mpomdp(
        state_names=tuple(f"s{i}" for i in range(n)),
        agent_names=("solo",),
        action_names=(tuple(f"a{j}" for j in range(n_actions)),),
        observation_names=(tuple(f"z{k}" for k in range(len(kinds))),),
        initial=Belief(random_simplex(rng, n)),
        transition=transition / transition.sum(axis=2, keepdims=True),
        observation=np.stack([observation_block(rng, predicted, kinds)
                              for _ in range(n_actions)], axis=1),
        reward=np.zeros((n, n_actions)),
    )
    a = int(rng.integers(n_actions))
    true = Always(BeliefPred("true", Constant(1.0), negated=True))
    mon = compile_monitor(true, m, MonitorConfig())
    passes = []
    for obs, kind in enumerate(kinds):
        try:
            correct(predicted, a, obs, m)
        except ZeroLikelihood as exc:
            assert kind in ("zero", "below", "floor", "ordinary")
            if kind != "ordinary":
                assert exc.denominator == LIKELIHOODS[kind]
            passes.append(exc.denominator == 0.0)
        else:
            assert kind in ("above", "ordinary")
            passes.append(True)
    for z in range(len(kinds)):
        expected = all(ok for obs, ok in enumerate(passes) if obs != z)
        assert _passes_elsewhere(m, mon, predicted, a, z) is expected


def deterministic_model() -> Mpomdp:
    """Two states that swap under the one action, each seen exactly."""
    return Mpomdp(
        state_names=("s0", "s1"),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(("z0", "z1"),),
        initial=Belief(np.array([0.0, 1.0])),
        transition=np.array([[[0.0, 1.0]], [[1.0, 0.0]]]),
        observation=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
        reward=np.zeros((2, 1)),
    )


def test_sampling_follows_deterministic_rows():
    m = deterministic_model()
    rng = np.random.default_rng(0)
    assert sample_initial_state(m, rng) == 1
    assert sample_transition(0, 0, m, rng) == 1
    assert sample_transition(1, 0, m, rng) == 0
    assert sample_observation(0, 0, m, rng) == 0
    assert sample_observation(1, 0, m, rng) == 1


def test_sampling_past_the_row_sum_lands_on_the_last_index():
    # A row that sums to just under 1 leaves a draw above its cumulative
    # sum with no bin; it goes to the last entry, not past the row.
    class Above:
        def random(self) -> float:
            return 1.0 - 1e-12

    row = np.array([0.3, 0.2, 0.5 - 1e-9])
    assert _sample_index(_row_tables(row[None, :])[0], Above()) == 2


class FixedDraw:
    """Generator stand-in whose every random() returns u."""

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


def one_action_model(transition: np.ndarray, observation: np.ndarray,
                     initial: np.ndarray) -> Mpomdp:
    """One agent with one action over (n, n) transition and (n, k)
    observation rows."""
    n, k = observation.shape
    return Mpomdp(
        state_names=tuple(f"s{i}" for i in range(n)),
        agent_names=("solo",),
        action_names=(("go",),),
        observation_names=(tuple(f"z{j}" for j in range(k)),),
        initial=Belief(initial),
        transition=transition[:, None, :],
        observation=observation[:, None, :],
        reward=np.zeros((n, 1)),
    )


def test_a_draw_past_the_row_sum_skips_trailing_zero_entries():
    # The row sums to just under 1, so a u above its total falls past the
    # last bin; it lands on the last entry with mass, not on the zero.
    row = np.array([0.5, 0.5 - 1e-9, 0.0])
    m = one_action_model(np.array([row] * 3), np.ones((3, 1)), row)
    assert sample_transition(0, 0, m, FixedDraw(1.0 - 1e-12)) == 1
    assert sample_initial_state(m, FixedDraw(1.0 - 1e-12)) == 1


def cumsum_draw(row: np.ndarray, u: float) -> int:
    """Reference inverse-CDF draw: a full-row cumsum and searchsorted,
    clamped to the row, moved to the last positive entry when the clamped
    index has no mass."""
    j = min(int(np.searchsorted(np.cumsum(row), u, side="right")), len(row) - 1)
    return j if row[j] > 0 else int(np.flatnonzero(row > 0)[-1])


def probe_draws(row: np.ndarray) -> list[float]:
    """0, each running sum and its two float neighbours, and the largest
    double below 1, as far as they are valid draws in [0, 1)."""
    us = {0.0, 1.0 - 2.0 ** -53}
    for c in np.cumsum(row).tolist():
        us.update((c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))))
    return sorted(u for u in us if 0.0 <= u < 1.0)


@st.composite
def stochastic_rows(draw, k: int) -> np.ndarray:
    """A row of k entries, any of which may be zero (leading, interior,
    trailing, or all but one), scaled to sum to 1 or 1 +- 1e-9."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
                        min_size=k, max_size=k).filter(any))
    total = draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
    return np.array(raw) / sum(raw) * total


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), k=st.integers(1, 6))
def test_table_draws_match_the_cumsum_draw(data, n, k):
    transition = np.array([data.draw(stochastic_rows(n)) for _ in range(n)])
    observation = np.array([data.draw(stochastic_rows(k)) for _ in range(n)])
    initial = data.draw(stochastic_rows(n))
    m = one_action_model(transition, observation, initial)
    for u in probe_draws(initial):
        assert sample_initial_state(m, FixedDraw(u)) == cumsum_draw(initial, u)
    for q in range(n):
        for u in probe_draws(transition[q]):
            assert sample_transition(q, 0, m, FixedDraw(u)) == cumsum_draw(transition[q], u)
        for u in probe_draws(observation[q]):
            assert sample_observation(q, 0, m, FixedDraw(u)) == cumsum_draw(observation[q], u)


def test_a_row_without_a_positive_entry_cannot_build_a_model():
    # Such a row cannot be drawn from: an inverse-CDF draw over it would
    # pick an index of probability 0 (here state 2).
    transition = np.full((3, 3), 1 / 3)
    transition[0] = 0.0
    with pytest.raises(ValueError, match=r"^transition\[0, 0\]: row has no positive entry$"):
        one_action_model(transition, np.ones((3, 1)), np.full(3, 1 / 3))
    observation = np.ones((3, 2)) / 2
    observation[2] = [0.0, np.nan]
    with pytest.raises(ValueError, match=r"^observation\[2, 0\]: row has no positive entry$"):
        one_action_model(np.eye(3), observation, np.full(3, 1 / 3))
    with pytest.raises(ValueError, match=r"^initial\[0\]: row has no positive entry$"):
        one_action_model(np.eye(3), np.ones((3, 1)), np.zeros(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_reward_cannot_build_a_model(value):
    # write_config would spell it .nan or .inf, which load_config rejects.
    reward = np.zeros((3, 1))
    reward[1, 0] = value
    message = rf"^reward\[1, 0\]: expected a finite number, got {value}$"
    with pytest.raises(ValueError, match=message):
        replace(one_action_model(np.eye(3), np.ones((3, 1)), np.full(3, 1 / 3)), reward=reward)


@pytest.mark.parametrize("edit, message", [
    ({"state_names": ("s0", "s0")}, "duplicate state name 's0'"),
    ({"state_names": ("s0", "")}, "state names must be non-empty strings, got ''"),
    ({"agent_names": (None,)}, "agent names must be non-empty strings, got None"),
    ({"action_names": (("go", "go"),)}, "duplicate action name 'go'"),
    ({"observation_names": (("hot", "hot+cold"),)}, "observation names may not contain '+'"),
    ({"agent_names": (), "action_names": (), "observation_names": ()},
     "expected at least one agent name"),
    ({"action_names": ((),)}, "expected at least one action name"),
    ({"action_names": (("go",), ("go",))},
     "expected one action and one observation name list per agent"),
], ids=["duplicate-state", "empty-state", "agent-not-a-string", "duplicate-action",
        "join-in-observation", "no-agents", "no-actions", "lists-per-agent"])
def test_name_rules_hold_at_construction(edit, message):
    with pytest.raises(ValueError) as err:
        replace(reference_model(), **edit)
    assert str(err.value) == message


def test_replace_rebuilds_the_successor_tables():
    m = deterministic_model()
    flipped = replace(m, transition=m.transition[:, :, ::-1],
                      observation=m.observation[:, :, ::-1],
                      initial=Belief(m.initial.probs[::-1]))
    u = FixedDraw(0.5)
    assert sample_initial_state(flipped, u) == 0
    assert sample_transition(0, 0, flipped, u) == 0
    assert sample_transition(1, 0, flipped, u) == 1
    assert sample_observation(0, 0, flipped, u) == 1
    assert sample_observation(1, 0, flipped, u) == 0


def test_sampling_matches_row_frequencies():
    m = reference_model()
    rng = np.random.default_rng(42)
    hits = sum(sample_observation(0, 0, m, rng) == 0 for _ in range(50_000))
    assert hits / 50_000 == pytest.approx(0.8, abs=0.01)


def test_joint_action_labels():
    rng = np.random.default_rng(21)
    m = random_model(rng, max_states=3)
    assert m.action_labels == joint_labels(m.action_names)
    for flat in range(m.n_joint_actions):
        label = m.joint_action_label(flat)
        assert len(label) == m.n_agents
        comps = tuple(names.index(x) for names, x in zip(m.action_names, label))
        assert flat_from_components(comps, m.action_radices) == flat


def test_joint_action_label_refuses_an_index_out_of_range():
    m = random_model(np.random.default_rng(21), max_states=3)
    # A negative index must not wrap to the last joint action.
    for flat in (-1, m.n_joint_actions):
        with pytest.raises(ValueError, match="out of range"):
            m.joint_action_label(flat)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_shield_levels_group_every_action_by_names_changed(seed):
    rng = np.random.default_rng(seed)
    m = random_model(rng, max_states=1, max_agents=4)
    nominal = int(rng.integers(m.n_joint_actions))
    target = m.joint_action_label(nominal)
    by_changed: dict[int, list[int]] = {}
    for a in range(m.n_joint_actions):
        changed = sum(x != y for x, y in zip(m.joint_action_label(a), target))
        by_changed.setdefault(changed, []).append(a)
    expected = tuple(tuple(by_changed[k]) for k in sorted(by_changed) if k)
    assert _levels(m.action_names, nominal) == expected
