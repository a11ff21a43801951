"""Monitor compilation and step-by-step obligation checking."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefshield import (
    Always,
    Belief,
    BeliefVar,
    Constant,
    Difference,
    Eventually,
    FtParams,
    LinearAlpha,
    Monitor,
    MonitorConfig,
    Mpomdp,
    NegBeliefPred,
    Next,
    And,
    Until,
    UnsupportedNesting,
    compile_monitor,
    parse_formula,
    translate_core,
    Min,
    Max,
    StateSet,
    NegStateSet,
    BeliefPred,
    Sum,
    ft_dtbf_check,
    ft_time_bound,
)
from beliefshield.monitor import barrier_values, check_step, step_passes

from conftest import evaluate_expr, monitor_step


def tiny_model(n_states: int) -> Mpomdp:
    names = tuple(f"q{i}" for i in range(n_states))
    initial = np.full(n_states, 1.0 / n_states)
    initial[0] += 1.0 - initial.sum()
    return Mpomdp(
        state_names=names,
        agent_names=("solo",),
        action_names=(("wait",),),
        observation_names=(("none",),),
        initial=Belief(initial),
        transition=np.eye(n_states)[:, None, :],
        observation=np.ones((n_states, 1, 1)),
        reward=np.zeros((n_states, 1)),
    )


MODEL = tiny_model(3)

# Barriers h = b(q0) - 0.5 and h = b(q1) - 0.5; negated predicates
# translate to their expression verbatim, so beliefs set h directly.
MARGIN = NegBeliefPred("margin", Difference(BeliefVar(0, "q0"), Constant(0.5)))
REACH = NegBeliefPred("reach", Difference(BeliefVar(1, "q1"), Constant(0.5)))

CFG = MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.5), ft=FtParams(rho=0.5, eps=0.1))


def b_margin(h: float) -> Belief:
    rest = (0.5 - h) / 2
    return Belief((0.5 + h, rest, rest))


def b_reach(h: float) -> Belief:
    rest = (0.5 - h) / 2
    return Belief((rest, 0.5 + h, rest))


def b_pair(h1: float, h2: float) -> Belief:
    return Belief((0.5 + h1, 0.5 + h2, -h1 - h2))


def walk(mon: Monitor, beliefs: list[Belief]):
    verdicts = []
    for prev, nxt in zip(beliefs, beliefs[1:]):
        verdict, mon = monitor_step(mon, prev, nxt)
        verdicts.append(verdict)
    return verdicts, mon


# --------------------------------------------------------------------------
# Core translation


def test_translate_state_set_is_member_mass_minus_one():
    expr = translate_core(StateSet((0, 2), ("q0", "q2")), MODEL, 1e-3)
    assert expr == Difference(
        Sum((BeliefVar(0, "q0"), BeliefVar(2, "q2"))), Constant(1.0)
    )
    assert evaluate_expr(expr, Belief((0.2, 0.3, 0.5))) == pytest.approx(-0.3)


def test_translate_negated_state_set_uses_complement():
    expr = translate_core(NegStateSet((1,), ("q1",)), MODEL, 1e-3)
    assert expr == Difference(Sum((BeliefVar(0, "q0"), BeliefVar(2, "q2"))), Constant(1.0))


def test_translate_predicates_offset_and_sign():
    f = Difference(BeliefVar(0, "q0"), Constant(0.5))
    assert translate_core(BeliefPred("p", f), MODEL, 1e-3) == Difference(Constant(1e-3), f)
    assert translate_core(NegBeliefPred("p", f), MODEL, 1e-3) == f


def test_translate_and_or_flatten_to_min_max():
    core = And(And(MARGIN, REACH), StateSet((0,), ("q0",)))
    expr = translate_core(core, MODEL, 1e-3)
    assert isinstance(expr, Min)
    assert len(expr.children) == 3
    from beliefshield import Or

    core = Or(MARGIN, Or(REACH, MARGIN))
    expr = translate_core(core, MODEL, 1e-3)
    assert isinstance(expr, Max)
    assert len(expr.children) == 3


def test_translate_rejects_temporal_core():
    with pytest.raises(UnsupportedNesting):
        translate_core(Always(MARGIN), MODEL, 1e-3)


# --------------------------------------------------------------------------
# Compilation


def test_compile_assigns_kinds_and_ids_in_order():
    preds = {
        "hazard": Difference(Constant(0.5), BeliefVar(0, "q0")),
        "goal": Difference(Constant(0.5), BeliefVar(1, "q1")),
    }
    states = {name: i for i, name in enumerate(MODEL.state_names)}
    phi = parse_formula(
        "G !hazard & F goal & hazard U goal & X goal & !hazard", preds, states
    )
    mon = compile_monitor(phi, MODEL, CFG)
    assert [ob.kind for ob in mon.obligations] == [
        "always", "eventually", "until", "next", "now",
    ]
    assert [ob.oid for ob in mon.obligations] == [
        "0:always", "1:eventually", "2:until", "3:next", "4:now",
    ]
    assert mon.obligations[0].label == "G !hazard"
    assert mon.obligations[2].label == "hazard U goal"
    assert mon.step_count == 0
    assert [ob.value for ob in mon.obligations] == [None] * 5


def test_compile_rejects_unsupported_shapes():
    for phi in [
        Always(Eventually(MARGIN)),
        Next(Next(REACH)),
        Until(MARGIN, Always(REACH)),
        Until(Eventually(MARGIN), REACH),
        Eventually(Until(MARGIN, REACH)),
        # A disjunction of temporal obligations is not a conjunct shape.
        __import__("beliefshield").Or(Always(MARGIN), Eventually(REACH)),
    ]:
        with pytest.raises(UnsupportedNesting):
            compile_monitor(phi, MODEL, CFG)


def test_config_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        MonitorConfig(delta=0.0)
    with pytest.raises(ValueError, match="delta must be positive and finite, got inf"):
        MonitorConfig(delta=float("inf"))


# --------------------------------------------------------------------------
# Invariance


def test_invariance_passes_while_decay_bound_holds():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(0.4), b_margin(0.25), b_margin(0.13)])
    assert [v.passed for v in verdicts] == [True, True]
    assert verdicts[0].records[0].barrier == pytest.approx(0.25)


def test_invariance_fails_on_negative_start():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(-0.1), b_margin(0.3)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "start barrier" in rec.detail
    assert verdicts[0].failing == ("0:always",)


def test_invariance_fails_on_broken_decay():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(0.4), b_margin(0.15)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "decay bound broken" in rec.detail


def test_invariance_is_never_pending():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    assert mon.all_discharged
    assert mon.pending() == ()


# --------------------------------------------------------------------------
# Finite-time reach


def test_finite_time_deadline_fixed_at_activation():
    # h0 = -0.4 with rho=0.5, eps=0.1 gives floor(log2(5)) = 2 steps.
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(-0.4), b_reach(-0.13)])
    assert verdicts[0].records[0].status == "pass"
    assert mon2.obligations[0].deadline == 2
    assert not mon2.all_discharged
    assert mon2.pending() == ("0:eventually",)


def test_finite_time_discharges_on_reaching_zero():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(0.02)])
    assert verdicts[1].records[0].status == "discharged"
    assert verdicts[1].records[0].detail == "reached at step 2 (deadline 2)"
    assert mon2.all_discharged


def test_finite_time_discharged_at_start_then_inactive():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(0.1), b_reach(-0.3), b_reach(-0.3)])
    assert verdicts[0].records[0].status == "discharged"
    assert verdicts[0].records[0].detail == "satisfied at start"
    assert verdicts[1].records[0].status == "inactive"
    assert all(v.passed for v in verdicts)


def test_finite_time_fails_on_broken_contraction():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.36)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "contraction broken" in rec.detail


def test_finite_time_fails_past_deadline():
    # Deadline 2: a stall at step 2 leaves h < 0 after a compliant step 3.
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(-0.13), b_reach(-0.01)])
    rec = verdicts[2].records[0]
    assert rec.status == "fail"
    assert rec.detail == "deadline 2 passed"


def test_finite_time_reports_both_problems():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(-0.13), b_reach(-0.12)])
    rec = verdicts[2].records[0]
    assert rec.status == "fail"
    assert "contraction broken" in rec.detail
    assert "deadline 2 passed" in rec.detail
    assert "; " in rec.detail


def tightest_contraction(h: float, p: FtParams) -> float:
    """The smallest float h_next that passes ft_dtbf_check from h."""
    h_next = p.rho * h + p.eps * (1.0 - p.rho)
    while not ft_dtbf_check(h, h_next, p):
        h_next = np.nextafter(h_next, np.inf)
    while ft_dtbf_check(h, np.nextafter(h_next, -np.inf), p):
        h_next = np.nextafter(h_next, -np.inf)
    return float(h_next)


@settings(max_examples=200, deadline=None)
@given(rho=st.floats(0.05, 0.99), eps=st.floats(1e-3, 2.0), h0=st.floats(-10.0, -1e-9))
@example(rho=0.5, eps=0.1, h0=-0.199)  # deadline 1, reached at step 2
@example(rho=0.5, eps=0.1, h0=-0.05)   # deadline 0, reached at step 1
def test_finite_time_zero_slack_reach_never_fails(rho, eps, h0):
    # Contraction at every step guarantees h >= 0 from step
    # ceil(log((eps - h0) / eps) / log(1 / rho)); the deadline is that
    # quotient floored, so a trajectory with no slack at all may first
    # reach 0 one step after it and must still not fail.
    cfg = MonitorConfig(ft=FtParams(rho=rho, eps=eps))
    mon = replace(compile_monitor(Eventually(REACH), MODEL, cfg), values=[[h0]])
    deadline = ft_time_bound(h0, cfg.ft)
    while not mon.all_discharged:
        verdict, mon = check_step(mon, [[tightest_contraction(mon.values[0][0], cfg.ft)]])
        assert verdict.passed, verdict.records[0].detail
    assert mon.step_count <= deadline + 1


# --------------------------------------------------------------------------
# Until


def until_monitor() -> Monitor:
    return compile_monitor(Until(MARGIN, REACH), MODEL, CFG)


def test_until_discharged_when_right_holds_at_start():
    verdicts, mon = walk(
        until_monitor(), [b_pair(-0.3, 0.1), b_pair(-0.3, -0.3), b_pair(0.2, -0.3)]
    )
    assert verdicts[0].records[0].status == "discharged"
    assert verdicts[0].records[0].detail == "right side satisfied at start"
    assert verdicts[1].records[0].status == "inactive"
    assert mon.all_discharged


def test_until_discharge_beats_left_decay_on_same_step():
    # Left collapses 0.3 -> -0.4 on the discharging transition; the right
    # side reaching zero makes that irrelevant.
    verdicts, mon = walk(until_monitor(), [b_pair(0.3, -0.3), b_pair(-0.4, 0.2)])
    assert verdicts[0].records[0].status == "discharged"
    assert verdicts[0].records[0].detail == "right side reached at step 1"
    assert mon.all_discharged


def test_until_fails_on_negative_left_start():
    verdicts, _ = walk(until_monitor(), [b_pair(-0.2, -0.4), b_pair(0.3, -0.3)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "left barrier" in rec.detail and "at start" in rec.detail


def test_until_right_reaching_at_step_one_cannot_excuse_left_start():
    # Right is negative at the start, so position zero needs the left
    # side; reaching the right side one step later must not discharge.
    verdicts, mon = walk(until_monitor(), [b_pair(-0.2, -0.3), b_pair(-0.4, 0.3)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "left barrier" in rec.detail and "at start" in rec.detail
    assert mon.pending() == ("0:until",)


def test_until_fails_on_broken_left_decay():
    verdicts, _ = walk(until_monitor(), [b_pair(0.4, -0.4), b_pair(0.05, -0.4)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert "left decay bound broken" in rec.detail


def test_until_passes_while_waiting():
    verdicts, mon = walk(until_monitor(), [b_pair(0.4, -0.4), b_pair(0.25, -0.3)])
    rec = verdicts[0].records[0]
    assert rec.status == "pass"
    assert "right barrier" in rec.detail
    assert mon.pending() == ("0:until",)


# --------------------------------------------------------------------------
# Next and bare cores


def test_next_checks_position_one_only():
    mon = compile_monitor(Next(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(-0.4), b_reach(0.1), b_reach(-0.4)])
    assert verdicts[0].records[0].status == "discharged"
    assert verdicts[1].records[0].status == "inactive"
    assert mon2.all_discharged


def test_next_fails_when_position_one_misses():
    mon = compile_monitor(Next(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(0.4), b_reach(-0.1), b_reach(0.4)])
    assert verdicts[0].records[0].status == "fail"
    assert verdicts[0].records[0].detail == "barrier < 0 at the next step"
    # One-shot either way: later steps are inactive.
    assert verdicts[1].records[0].status == "inactive"


def test_one_shot_checks_starting_belief():
    mon = compile_monitor(MARGIN, MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(0.2), b_margin(-0.4)])
    assert verdicts[0].records[0].status == "discharged"

    mon = compile_monitor(MARGIN, MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(-0.2), b_margin(0.4)])
    rec = verdicts[0].records[0]
    assert rec.status == "fail"
    assert rec.detail == "barrier < 0 at start"


# --------------------------------------------------------------------------
# Monitor mechanics


def test_monitor_step_is_pure():
    mon = compile_monitor(And(Always(MARGIN), Eventually(REACH)), MODEL, CFG)
    prev, nxt = b_pair(0.2, -0.4), b_pair(0.1, -0.13)
    v1, m1 = monitor_step(mon, prev, nxt)
    v2, m2 = monitor_step(mon, prev, nxt)
    assert v1 == v2
    assert m1 == m2
    assert mon.step_count == 0
    assert m1.step_count == 1


def test_a_monitor_holds_the_barrier_values_of_the_belief_it_has_reached():
    mon = compile_monitor(And(Always(MARGIN), Until(MARGIN, REACH)), MODEL, CFG)
    at_start = [[evaluate_expr(e, MODEL.initial) for e in ob.barriers]
                for ob in mon.obligations]
    assert mon.values == at_start
    with pytest.raises(TypeError):
        Monitor(CFG, mon.obligations)
    nxt = barrier_values(mon, b_pair(0.2, -0.4).probs.tolist())
    _, successor = check_step(mon, nxt)
    assert successor.values == nxt
    # The next verdict depends on the values, so equality does too: the
    # decay bound holds for 0.2 -> 0.15 but not for 0.4 -> 0.15.
    later = barrier_values(successor, b_pair(0.15, -0.3).probs.tolist())
    higher = replace(successor, values=barrier_values(successor, b_pair(0.4, -0.4).probs.tolist()))
    assert step_passes(successor, later)
    assert not step_passes(higher, later)
    assert successor != higher


# Each dischargeable kind, with a belief path that discharges it on the
# first transition (the value it is decided on differs from every later
# barrier value) and then walks on.
DISCHARGE_PATHS = {
    "eventually": (Eventually(REACH), [b_reach(-0.3), b_reach(0.05), b_reach(-0.2), b_reach(0.3)]),
    "until": (Until(MARGIN, REACH), [b_pair(0.3, -0.3), b_pair(-0.1, 0.05), b_pair(-0.4, -0.2),
                                     b_pair(-0.3, 0.25)]),
    "next": (Next(REACH), [b_reach(-0.3), b_reach(-0.1), b_reach(0.2), b_reach(0.3)]),
    "now": (MARGIN, [b_margin(0.15), b_margin(-0.2), b_margin(0.3), b_margin(0.1)]),
}


@pytest.mark.parametrize("kind", sorted(DISCHARGE_PATHS))
def test_inactive_records_repeat_the_discharge_value(kind):
    phi, beliefs = DISCHARGE_PATHS[kind]
    mon = compile_monitor(phi, MODEL, CFG)
    verdicts, mon = walk(mon, beliefs)
    decided = verdicts[0].records[0]
    assert decided.kind == kind
    assert decided.status in ("discharged", "fail")
    assert [v.records[0].status for v in verdicts[1:]] == ["inactive", "inactive"]
    assert [v.records[0].barrier for v in verdicts[1:]] == [decided.barrier] * 2
    assert mon.obligations[0].value == decided.barrier
    assert mon.step_count == 3
