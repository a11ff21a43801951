"""Monitor compilation and step-by-step obligation checking."""

import re
import struct
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
    Next,
    And,
    Or,
    Until,
    UnsupportedNesting,
    compile_monitor,
    parse_formula,
    translate_core,
    Min,
    Max,
    Product,
    StateSet,
    BeliefPred,
    Sum,
    ft_dtbf_check,
    ft_time_bound,
)
from beliefshield import ldtl
from beliefshield.ldtl import describe, evaluate_columns, fold_tree, gather_leaves
from beliefshield.errors import BeliefShieldError
from beliefshield.monitor import (
    barrier_values, check_step, passed, successor, walk_step, walk_steps,
)

from beliefshield.presets import corridor_config

from conftest import count_calls, evaluate_expr, monitor_step

# Positions in a record, check_step's [status, barrier, detail].
STATUS, BARRIER, DETAIL = range(3)


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
MARGIN = BeliefPred("margin", Difference(BeliefVar(0, "q0"), Constant(0.5)), negated=True)
REACH = BeliefPred("reach", Difference(BeliefVar(1, "q1"), Constant(0.5)), negated=True)

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
    expr = translate_core(StateSet((1,), ("q1",), negated=True), MODEL, 1e-3)
    assert expr == Difference(Sum((BeliefVar(0, "q0"), BeliefVar(2, "q2"))), Constant(1.0))


def test_translate_predicates_offset_and_sign():
    f = Difference(BeliefVar(0, "q0"), Constant(0.5))
    assert translate_core(BeliefPred("p", f), MODEL, 1e-3) == Difference(Constant(1e-3), f)
    assert translate_core(BeliefPred("p", f, negated=True), MODEL, 1e-3) == f


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


# A binary nesting is an atom or a tuple (op, left, right), op And or Or:
# the tree the parser built before a chain became one node. build makes
# it through the constructors; the reference walks are the recursive
# flatten and translation of that binary tree.
def build(tree):
    return tree[0](build(tree[1]), build(tree[2])) if isinstance(tree, tuple) else tree


def reference_operands(tree, op):
    if isinstance(tree, tuple) and tree[0] is op:
        return reference_operands(tree[1], op) + reference_operands(tree[2], op)
    return [tree]


def reference_translate(tree):
    if isinstance(tree, tuple):
        node = Min if tree[0] is And else Max
        return node(tuple(reference_translate(t) for t in reference_operands(tree, tree[0])))
    return translate_core(tree, MODEL, 1e-3)


_ATOMS = st.sampled_from([MARGIN, REACH, replace(REACH, negated=False),
                          StateSet((0,), ("q0",)), StateSet((1, 2), ("q1", "q2"), negated=True)])
# And and Or nested on either side of each other and of themselves.
_NESTINGS = st.recursive(
    _ATOMS, lambda kids: st.tuples(st.sampled_from([And, Or]), kids, kids), max_leaves=16)


@settings(max_examples=300, deadline=None)
@given(_NESTINGS)
def test_binary_nestings_built_through_the_constructors_flatten_as_before(tree):
    phi = build(tree)
    for op in (And, Or):
        operands = phi.children if isinstance(phi, op) else (phi,)
        assert list(operands) == [build(t) for t in reference_operands(tree, op)]
    assert translate_core(phi, MODEL, 1e-3) == reference_translate(tree)


def test_a_chain_is_one_node_however_it_is_built():
    a, b, c = MARGIN, REACH, StateSet((0,), ("q0",))
    assert And(And(a, b), c) == And(a, And(b, c)) == And(a, b, c)
    assert And(a, b, c).children == (a, b, c)
    assert Or(Or(a, b), Or(b, c)).children == (a, b, b, c)
    # A chain of the other operator is an operand like any other.
    assert And(Or(a, b), c).children == (Or(a, b), c)
    for op in (And, Or):
        for operands in ((), (a,), (And(a, b),)):
            with pytest.raises(TypeError, match="at least two operands"):
                op(*operands)


# Added one at a time, on either side, 3000 operands make one chain.
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_long_conjunction_compiles_to_one_obligation_per_conjunct(side):
    phi = Always(MARGIN)
    for _ in range(2999):
        phi = And(phi, Always(MARGIN)) if side == "left" else And(Always(MARGIN), phi)
    mon = compile_monitor(phi, MODEL, CFG)
    assert len(mon.obligations) == 3000
    assert mon.obligations[-1].oid == "2999:always"


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_long_disjunction_translates_to_one_max(side):
    core = MARGIN
    for _ in range(2999):
        core = Or(core, REACH) if side == "left" else Or(REACH, core)
    barrier = translate_core(core, MODEL, 1e-3)
    assert isinstance(barrier, Max) and len(barrier.children) == 3000


def test_a_long_disjunction_under_always_compiles_and_prints():
    core = Or(*[MARGIN, REACH] * 1500)
    mon = compile_monitor(Always(core), MODEL, CFG)
    text = "G (" + " | ".join(["!margin", "!reach"] * 1500) + ")"
    assert [ob.label for ob in mon.obligations] == [text]
    assert describe(Always(core)) == text
    assert len(mon.obligations[0].barriers[0].children) == 3000


def test_translate_rejects_temporal_core():
    with pytest.raises(UnsupportedNesting):
        translate_core(Always(MARGIN), MODEL, 1e-3)


def test_a_state_named_twice_in_a_set_counts_once():
    # Its mass is b(h0_h1) however often the set names it, so the two
    # barriers have the same bits; counted twice, the first read -0.3.
    cfg = corridor_config("literal")

    def start(text):
        phi = parse_formula(text, cfg.predicates, cfg.model.state_index)
        return compile_monitor(phi, cfg.model, cfg.monitor).values

    twice, once = start("G in({h0_h1, h0_h1})"), start("G in({h0_h1})")
    assert struct.pack("<d", twice[0][0]) == struct.pack("<d", once[0][0])
    assert once == [[-0.65]]


def test_translate_core_visits_a_shared_subtree_once(monkeypatch):
    # 16 levels of And and Or in turn over one atom, each level with the
    # level below as both of its operands: 17 distinct nodes.
    core = MARGIN
    for k in range(16):
        core = (And, Or)[k % 2](core, core)
    calls = count_calls(monkeypatch, "children", module=ldtl)
    barrier = translate_core(core, MODEL, 1e-3)
    assert len(calls) <= 2 * 17
    # One Min or Max per level, where translating every path would
    # build 2 ** 16 - 1 of them.
    levels = []
    fold_tree(barrier, lambda node, _: isinstance(node, (Min, Max)) and levels.append(node))
    assert len(levels) == 16


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
        Next(Next(REACH)),
        Until(MARGIN, Always(REACH)),
        Until(Eventually(MARGIN), REACH),
        Eventually(Until(MARGIN, REACH)),
        Always(And(MARGIN, Or(REACH, Next(MARGIN)))),
    ]:
        with pytest.raises(UnsupportedNesting):
            compile_monitor(phi, MODEL, CFG)
    with pytest.raises(UnsupportedNesting, match=re.escape(
            "nested temporal operator inside 'G F !margin'; only propositional cores "
            "can be monitored")):
        compile_monitor(Always(Eventually(MARGIN)), MODEL, CFG)
    # A disjunction of temporal obligations is not a conjunct shape.
    with pytest.raises(UnsupportedNesting, match=re.escape(
            "conjunct 'G !margin | F !reach' is not a temporal obligation over a "
            "propositional core")):
        compile_monitor(Or(Always(MARGIN), Eventually(REACH)), MODEL, CFG)


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
    assert [passed(v) for v in verdicts] == [True, True]
    assert verdicts[0][0][BARRIER] == pytest.approx(0.25)


def test_invariance_fails_on_negative_start():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(-0.1), b_margin(0.3)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "start barrier" in rec[DETAIL]
    assert [ob.oid for ob, (status, _, _) in zip(mon.obligations, verdicts[0])
            if status == "fail"] == ["0:always"]


def test_invariance_fails_on_broken_decay():
    mon = compile_monitor(Always(MARGIN), MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(0.4), b_margin(0.15)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "decay bound broken" in rec[DETAIL]


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
    assert verdicts[0][0][STATUS] == "pass"
    assert mon2.obligations[0].deadline == 2
    assert not mon2.all_discharged
    assert mon2.pending() == ("0:eventually",)


def test_finite_time_discharges_on_reaching_zero():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(0.02)])
    assert verdicts[1][0][STATUS] == "discharged"
    assert verdicts[1][0][DETAIL] == "reached at step 2 (deadline 2)"
    assert mon2.all_discharged


def test_finite_time_discharged_at_start_then_inactive():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(0.1), b_reach(-0.3), b_reach(-0.3)])
    assert verdicts[0][0][STATUS] == "discharged"
    assert verdicts[0][0][DETAIL] == "satisfied at start"
    assert verdicts[1][0][STATUS] == "inactive"
    assert all(passed(v) for v in verdicts)


def test_finite_time_fails_on_broken_contraction():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.36)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "contraction broken" in rec[DETAIL]


def test_finite_time_fails_past_deadline():
    # Deadline 2: a stall at step 2 leaves h < 0 after a compliant step 3.
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(-0.13), b_reach(-0.01)])
    rec = verdicts[2][0]
    assert rec[STATUS] == "fail"
    assert rec[DETAIL] == "deadline 2 passed"


def test_finite_time_reports_both_problems():
    mon = compile_monitor(Eventually(REACH), MODEL, CFG)
    verdicts, _ = walk(mon, [b_reach(-0.4), b_reach(-0.13), b_reach(-0.13), b_reach(-0.12)])
    rec = verdicts[2][0]
    assert rec[STATUS] == "fail"
    assert "contraction broken" in rec[DETAIL]
    assert "deadline 2 passed" in rec[DETAIL]
    assert "; " in rec[DETAIL]


def _ordered(x: float) -> int:
    """x's place in the order of the float64s: consecutive floats get
    consecutive integers, and both zeros get 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _float_at(k: int) -> float:
    """The float whose place `_ordered` gives as k; +0.0 for 0."""
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else -k | 1 << 63))[0]


def tightest_contraction(h: float, p: FtParams) -> float:
    """The smallest float h_next that passes ft_dtbf_check from h.

    The floats that pass form an up-set (the check's subtraction is
    monotone in h_next), +inf passes and -inf does not, so at most 64
    halvings of the places between them find it. A float-by-float walk
    may need about 10**305 steps: from h = -0.1 at rho 0.5 and eps 0.1,
    rho * h + eps * (1 - rho) is 0.0, and every h_next down to about
    -1e-18 passes."""
    lo, hi = _ordered(-np.inf), _ordered(np.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ft_dtbf_check(h, _float_at(mid), p):
            hi = mid
        else:
            lo = mid
    return _float_at(hi)


@settings(max_examples=200, deadline=None)
@given(rho=st.floats(0.05, 0.99), eps=st.floats(1e-3, 2.0), h0=st.floats(-10.0, -1e-9))
@example(rho=0.5, eps=0.1, h0=-0.199)  # deadline 1, reached at step 2
@example(rho=0.5, eps=0.1, h0=-0.05)   # deadline 0, reached at step 1
@example(rho=0.5, eps=0.1, h0=-0.1)    # passes down to about -1e-18 from 0.0
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
        assert passed(verdict), verdict[0][DETAIL]
    assert mon.step_count <= deadline + 1


# --------------------------------------------------------------------------
# Until


def until_monitor() -> Monitor:
    return compile_monitor(Until(MARGIN, REACH), MODEL, CFG)


def test_until_discharged_when_right_holds_at_start():
    verdicts, mon = walk(
        until_monitor(), [b_pair(-0.3, 0.1), b_pair(-0.3, -0.3), b_pair(0.2, -0.3)]
    )
    assert verdicts[0][0][STATUS] == "discharged"
    assert verdicts[0][0][DETAIL] == "right side satisfied at start"
    assert verdicts[1][0][STATUS] == "inactive"
    assert mon.all_discharged


def test_until_discharge_beats_left_decay_on_same_step():
    # Left collapses 0.3 -> -0.4 on the discharging transition; the right
    # side reaching zero makes that irrelevant.
    verdicts, mon = walk(until_monitor(), [b_pair(0.3, -0.3), b_pair(-0.4, 0.2)])
    assert verdicts[0][0][STATUS] == "discharged"
    assert verdicts[0][0][DETAIL] == "right side reached at step 1"
    assert mon.all_discharged


def test_until_fails_on_negative_left_start():
    verdicts, _ = walk(until_monitor(), [b_pair(-0.2, -0.4), b_pair(0.3, -0.3)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "left barrier" in rec[DETAIL] and "at start" in rec[DETAIL]


def test_until_right_reaching_at_step_one_cannot_excuse_left_start():
    # Right is negative at the start, so position zero needs the left
    # side; reaching the right side one step later must not discharge.
    verdicts, mon = walk(until_monitor(), [b_pair(-0.2, -0.3), b_pair(-0.4, 0.3)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "left barrier" in rec[DETAIL] and "at start" in rec[DETAIL]
    assert mon.pending() == ("0:until",)


def test_until_fails_on_broken_left_decay():
    verdicts, _ = walk(until_monitor(), [b_pair(0.4, -0.4), b_pair(0.05, -0.4)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert "left decay bound broken" in rec[DETAIL]


def test_until_passes_while_waiting():
    verdicts, mon = walk(until_monitor(), [b_pair(0.4, -0.4), b_pair(0.25, -0.3)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "pass"
    assert "right barrier" in rec[DETAIL]
    assert mon.pending() == ("0:until",)


# --------------------------------------------------------------------------
# Next and bare cores


def test_next_checks_position_one_only():
    mon = compile_monitor(Next(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(-0.4), b_reach(0.1), b_reach(-0.4)])
    assert verdicts[0][0][STATUS] == "discharged"
    assert verdicts[1][0][STATUS] == "inactive"
    assert mon2.all_discharged


def test_next_fails_when_position_one_misses():
    mon = compile_monitor(Next(REACH), MODEL, CFG)
    verdicts, mon2 = walk(mon, [b_reach(0.4), b_reach(-0.1), b_reach(0.4)])
    assert verdicts[0][0][STATUS] == "fail"
    assert verdicts[0][0][DETAIL] == "barrier < 0 at the next step"
    # One-shot either way: later steps are inactive.
    assert verdicts[1][0][STATUS] == "inactive"


def test_one_shot_checks_starting_belief():
    mon = compile_monitor(MARGIN, MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(0.2), b_margin(-0.4)])
    assert verdicts[0][0][STATUS] == "discharged"

    mon = compile_monitor(MARGIN, MODEL, CFG)
    verdicts, _ = walk(mon, [b_margin(-0.2), b_margin(0.4)])
    rec = verdicts[0][0]
    assert rec[STATUS] == "fail"
    assert rec[DETAIL] == "barrier < 0 at start"


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
    nxt = barrier_values(mon, b_pair(0.2, -0.4).probs)
    _, reached = check_step(mon, nxt)
    assert reached.values == nxt
    # The next verdict depends on the values, so equality does too: the
    # decay bound holds for 0.2 -> 0.15 but not for 0.4 -> 0.15.
    later = barrier_values(reached, b_pair(0.15, -0.3).probs)
    higher = replace(reached, values=barrier_values(reached, b_pair(0.4, -0.4).probs))
    assert passed(walk_step(reached, later)[0])
    assert not passed(walk_step(higher, later)[0])
    assert reached != higher


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
    decided = verdicts[0][0]
    assert mon.obligations[0].kind == kind
    assert decided[STATUS] in ("discharged", "fail")
    assert [v[0][STATUS] for v in verdicts[1:]] == ["inactive", "inactive"]
    assert [v[0][BARRIER] for v in verdicts[1:]] == [decided[BARRIER]] * 2
    assert mon.obligations[0].value == decided[BARRIER]
    assert mon.step_count == 3


# --------------------------------------------------------------------------
# Leaf table: every sum of entries is one bin of one np.bincount


def left_to_right(expr, p) -> float:
    """Reference value of a barrier at the entries p: each sum adds its
    children to 0.0 one at a time, whatever `sum` does on this Python."""
    if isinstance(expr, Constant):
        return float(expr.value)
    if isinstance(expr, BeliefVar):
        return p[expr.index]
    if isinstance(expr, Sum):
        acc = 0.0
        for c in expr.children:
            acc += left_to_right(c, p)
        return acc
    if isinstance(expr, Difference):
        return left_to_right(expr.left, p) - left_to_right(expr.right, p)
    if isinstance(expr, Product):
        out = 1.0
        for c in expr.children:
            out *= left_to_right(c, p)
        return out
    values = [left_to_right(c, p) for c in expr.children]
    return min(values) if isinstance(expr, Min) else max(values)


def _bits(values: list[float]) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


LEAF_MODEL = tiny_model(4)
_ENTRY = st.integers(0, 3).map(lambda q: BeliefVar(q, f"q{q}"))
# Repeated entries and one-entry sums included; long sums are where a
# pairwise summation rounds differently.
_ENTRY_SUM = st.lists(_ENTRY, min_size=1, max_size=24).map(lambda cs: Sum(tuple(cs)))
_LEAF_EXPRS = st.recursive(
    _ENTRY | _ENTRY_SUM | st.floats(-2.0, 2.0).map(Constant),
    lambda kids: st.one_of(
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Product(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Min(tuple(cs))),
        st.lists(kids, min_size=1, max_size=3).map(lambda cs: Max(tuple(cs))),
        st.builds(Difference, kids, kids),
    ),
    max_leaves=6,
)
_LEAF_BELIEF = st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7]) | st.floats(0.0, 1.0),
                        min_size=4, max_size=4).map(lambda xs: np.array(xs, dtype=float))
# A negated predicate's barrier is its expression; next and now
# obligations are discharged by the first step, eventually ones when
# they start or land at or above 0.
_WRAP = {"always": Always, "eventually": Eventually, "next": Next, "now": lambda a: a}
_NEG_ZERO_FIRST = np.array([-0.0, 0.2, 0.3, 0.5])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_WRAP)), _LEAF_EXPRS), min_size=1, max_size=4),
       _LEAF_BELIEF, _LEAF_BELIEF)
# A bare entry at -0.0 keeps its sign; a one-entry sum of it is +0.0.
@example([("always", BeliefVar(0, "q0"))], _NEG_ZERO_FIRST, _NEG_ZERO_FIRST)
@example([("always", Sum((BeliefVar(0, "q0"),)))], _NEG_ZERO_FIRST, _NEG_ZERO_FIRST)
@example([("now", Min((Sum((BeliefVar(0, "q0"),)), BeliefVar(0, "q0")))),
          ("always", Product((Constant(-1.0), BeliefVar(0, "q0"))))],
         _NEG_ZERO_FIRST, _NEG_ZERO_FIRST)
def test_barrier_values_are_left_to_right_sums_bit_for_bit(barriers, first, second):
    conjuncts = [_WRAP[kind](BeliefPred(f"p{i}", e, negated=True))
                 for i, (kind, e) in enumerate(barriers)]
    phi = conjuncts[0]
    for c in conjuncts[1:]:
        phi = And(phi, c)
    mon = compile_monitor(phi, LEAF_MODEL, CFG)
    start = LEAF_MODEL.initial.probs.tolist()
    assert [_bits(v) for v in mon.values] == [
        _bits([left_to_right(e, start) for e in ob.barriers]) for ob in mon.obligations]
    at_first = barrier_values(mon, first)
    assert [_bits(v) for v in at_first] == [
        _bits([left_to_right(e, first.tolist()) for e in ob.barriers])
        for ob in mon.obligations]
    _, reached = check_step(mon, at_first)
    assert not any(ob.discharged for ob in mon.obligations)
    assert [_bits(v) for v in barrier_values(reached, second)] == [
        [] if ob.discharged else _bits([left_to_right(e, second.tolist()) for e in ob.barriers])
        for ob in reached.obligations]


@settings(max_examples=200, deadline=None)
@given(st.lists(_LEAF_EXPRS, min_size=1, max_size=4), st.lists(_LEAF_BELIEF, max_size=5))
@example([BeliefVar(0, "q0"), Sum((BeliefVar(0, "q0"), BeliefVar(2, "q2")))],
         [_NEG_ZERO_FIRST, _NEG_ZERO_FIRST[::-1]])
def test_a_stack_of_beliefs_reads_as_each_of_its_rows_does(barriers, beliefs):
    # The audit gathers the leaf values of an episode's beliefs at once,
    # with each row's bins numbered after the previous row's.
    conjuncts = [Always(BeliefPred(f"p{i}", e, negated=True)) for i, e in enumerate(barriers)]
    mon = compile_monitor(And(*conjuncts) if len(conjuncts) > 1 else conjuncts[0],
                          LEAF_MODEL, CFG)
    stack = np.array(beliefs).reshape(len(beliefs), 4)
    assert [_bits(row) for row in gather_leaves(mon.leaves, stack).tolist()] == [
        _bits(gather_leaves(mon.leaves, b).tolist()) for b in beliefs]


# --------------------------------------------------------------------------
# Stacked steps: walk_steps on barrier columns is check_step step after step

# Beliefs as arrays of any floats: barrier_values reads them as they are.
_ANY_BELIEF = st.lists(
    st.sampled_from([0.0, -0.0, 0.1, 0.5, 0.9, -1.0, 1e308, -1e308, np.inf, -np.inf, np.nan])
    | st.floats(-1.0, 1.0),
    min_size=4, max_size=4).map(lambda xs: np.array(xs, dtype=float))
_KIND_OF = {"always": Always, "eventually": Eventually, "next": Next, "now": lambda a: a,
            "until": Until}


def _obligation(kind: str, left, right):
    """A conjunct of `kind` whose barriers are left (and right for
    until): a negated predicate's barrier is its expression."""
    atoms = [BeliefPred(f"p{i}", e, negated=True) for i, e in enumerate((left, right))]
    return _KIND_OF[kind](*atoms) if kind == "until" else _KIND_OF[kind](atoms[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(_KIND_OF)), _LEAF_EXPRS, _LEAF_EXPRS),
                min_size=1, max_size=4),
       st.integers(0, 3), st.lists(_ANY_BELIEF, max_size=8),
       st.sampled_from([CFG, MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.9),
                                           ft=FtParams(rho=0.99, eps=0.1))]))
# The until rule's cases: right side at the start, left side negative at
# the start while the right side reaches at step 1, and a later reach.
@example([("until", Product((Constant(-1.0), BeliefVar(0, "q0"))), BeliefVar(1, "q1"))], 0,
         [np.array([0.0, 0.2, 0.3, 0.5]), np.array([0.0, -0.1, 0.3, 0.5])], CFG)
@example([("always", BeliefVar(0, "q0"), BeliefVar(0, "q0")),
          ("eventually", Difference(BeliefVar(1, "q1"), Constant(0.9)), BeliefVar(0, "q0"))],
         1, [np.array([0.5, 0.1, 0.2, 0.2])] * 6 + [np.array([0.5, 0.95, 0.2, 0.2])], CFG)
def test_walk_steps_is_check_step_step_after_step(conjuncts, warm, beliefs, cfg):
    obligations = [_obligation(*c) for c in conjuncts]
    phi = obligations[0] if len(obligations) == 1 else And(*obligations)
    try:
        mon = compile_monitor(phi, LEAF_MODEL, cfg)
    except BeliefShieldError:
        return  # an eventually obligation whose start fixes no deadline
    # Steps already taken, one at a time; then the rest both ways.
    for b in beliefs[:warm]:
        _, mon = check_step(mon, barrier_values(mon, b))
    rest = beliefs[warm:]
    expected, reached = [], mon
    for b in rest:
        values = barrier_values(reached, b)
        walk = walk_step(reached, values)
        quiet = walk_step(reached, values, details=False)
        before = reached
        records, reached = check_step(reached, values)
        expected.append(records)
        # walk_step is check_step's walk, passing or not, and successor
        # builds check_step's monitor from its changes.
        assert repr(walk[0]) == repr(records)
        assert repr(successor(before, walk[1], values)) == repr(reached)
        # Without details only a failing record's text goes.
        assert repr(quiet) == repr(
            ([[s, v, "" if s == "fail" else d] for s, v, d in walk[0]], walk[1]))
    # Each barrier as a column over the steps, from one gather of every
    # step's leaves, as the audit evaluates them.
    leaves = gather_leaves(mon.leaves, np.array(rest).reshape(len(rest), 4)).T
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [[] if ob.discharged else [evaluate_columns(f, leaves).tolist()
                                             for f in ob.evaluators]
                   for ob in mon.obligations]
    got, got_reached = walk_steps(mon, columns, len(rest))
    # repr tells every float apart but NaNs, which no rule tells apart.
    assert repr(got) == repr(expected)
    assert repr(got_reached) == repr(reached)
    assert [type(v) for r in got for _, v, _ in r] == [type(v) for r in expected for _, v, _ in r]
    if not rest:
        assert got_reached is mon


@pytest.mark.parametrize("start", [-np.inf, np.nan, -1e308])
def test_an_eventually_obligation_whose_start_fixes_no_deadline_is_refused(start):
    reach = BeliefPred("reach", Sum((BeliefVar(0, "q0"), Constant(start))), negated=True)
    with pytest.raises(BeliefShieldError, match=r"^obligation 1:eventually \(F !reach\) has "
                       r"start barrier .*, which fixes no reach deadline$"):
        compile_monitor(And(Always(MARGIN), Eventually(reach)), MODEL, CFG)
