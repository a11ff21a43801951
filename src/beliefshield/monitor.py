"""Compiles formulas into barrier obligations and checks them step by
step along a belief trajectory.

Supported shape: a top-level conjunction whose conjuncts are `G core`,
`F core`, `core1 U core2`, `X core`, or a bare propositional `core`,
where every core is propositional (atoms combined with and/or). Each
core translates to a single barrier expression, one rule per atom kind
with its `negated` flag choosing between two forms:

    state-set atom        ->  sum of member beliefs - 1
      negated             ->  sum of complement beliefs - 1
    belief predicate f    ->  -f + delta     (small delta > 0)
      negated (!f)        ->  f
    and / or chain        ->  pointwise min / max of its operands

A state named more than once in a set counts once. translate_core is
one fold over the core (`ldtl.fold_tree`), so a subtree shared by
several parents becomes one shared expression.

Every conjunct, an operand of the top-level And chain, becomes one
`Obligation` record. Its kind selects the rule in the `_RULES` table
that checks it between consecutive beliefs:

    always      G core    invariance (decay bound) every step, plus
                          membership of the starting belief;
    eventually  F core    contraction every step until the barrier first
                          reaches >= 0 (discharged); a reach deadline is
                          fixed at activation from the first barrier
                          value, and an obligation still undischarged
                          after the deadline step is a violation;
    until       c1 U c2   membership/decay on the left barrier while the
                          right barrier is negative (including at the
                          starting belief); discharged when the right
                          barrier reaches >= 0;
    next        X core    one-shot membership at the following step;
    now         core      one-shot membership at the starting belief.

One-shot kinds are discharged by their single check, pass or fail. A
discharged obligation is not evaluated again: its records read
`inactive` and repeat the barrier value it was discharged with.

Monitors are immutable; check_step returns the step's records and the
successor monitor, so candidate actions can be probed without mutation.
The records are one [status, barrier, detail] list per obligation, in
the monitor's obligation order: the form a version 3 trace row holds
them in (see `traceio`), so the writer writes them and the audit
compares them as they are. An oid or kind is read from the obligation at
a record's position, and `passed` says whether a step passed. The
successor holds a new Obligation only where a rule changed one (a
deadline fixed, a discharge) and shares the others. A step is two parts:
the barrier values at the next belief (barrier_values), then the kind's
float-only rule for every active obligation. walk_step is that walk, the
one walk of a single transition: it gives the step's records, passing or
not, and the changes its rules make, and replaces no obligation and
builds no monitor; with details false it writes no failure text, a
failing record's detail being "". check_step is walk_step followed by
`successor`, which builds the monitor reached from those changes; the
shield walks each posterior once with walk_step, without details, and
builds the successor only for the action it executes. A monitor holds
the barrier values at the belief it has reached (compile_monitor's at
the model's initial belief), so each belief is evaluated once, as it is
reached, and no caller carries them; this is exact, because a successor
only discharges obligations and no rule reads the values of a discharged
one.

barrier_values takes the belief as its float64 array and reads it
through the monitor's leaf table (`ldtl.leaf_table`). Each sum whose
children are all entries b(q), such as a state-set atom's member mass,
is one bin, and one gathered np.bincount per belief sums every bin, bit
for bit as the sum itself adds (`ldtl.gather_leaves`). compile_expr
compiles each barrier once, reading each bin and each entry outside
such a sum directly from the list of leaf values at the position the
table's lookup (`LeafTable.slot`) gives it, and barrier_values applies
them to one belief's list.

walk_steps is the same check over a whole run of transitions, for the
audit, which runs the monitor's own evaluators over its leaf table at
each step of its lockstep and keeps each barrier's values as a column
over the batch's steps.
walk_steps walks each active obligation's rule in _RULES over its steps
on the columns' floats, up to the one that discharges it, so every rule
is written once. An obligation is replaced only where its rule changes
it, and the monitor reached is built once, at the end. The records and
the monitor reached are those of check_step step after step, bit for
bit. check_step and walk_step stay for the simulator and the shield,
which decide one transition at a time.

compile_monitor refuses an eventually obligation whose barrier at the
initial belief fixes no reach deadline (NaN, -inf, or so far below 0
that the step budget overflows): every deadline is fixed from those
values, at the first step, which would raise instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound
from .errors import BeliefShieldError, UnsupportedNesting
from .ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Evaluator, Formula, LeafTable, Max, Min, Next, Or, StateSet, Sum,
    Until, children, compile_expr, conjuncts, describe, fold_tree, gather_leaves, leaf_table,
)
from .model import Mpomdp


@dataclass(frozen=True)
class MonitorConfig:
    """Check parameters shared by all obligations of one monitor."""

    delta: float = 1e-3
    alpha: LinearAlpha = LinearAlpha(0.5)
    ft: FtParams = FtParams(rho=0.99, eps=0.1)

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


# --------------------------------------------------------------------------
# Table-driven translation of propositional cores


def translate_core(core: Formula, m: Mpomdp, delta: float) -> BeliefExpr:
    """Barrier expression whose nonnegativity tracks satisfaction of a
    propositional core (exactly for negated predicates and up to the
    delta offset for positive ones; state atoms via their belief mass).
    Raises UnsupportedNesting at a node that is not an atom, and or or."""

    def kids(node) -> tuple:
        if not isinstance(node, (StateSet, BeliefPred, And, Or)):
            raise UnsupportedNesting(f"not a propositional core: {describe(node)}")
        return children(node)

    def translate(node, below: list[BeliefExpr]) -> BeliefExpr:
        if isinstance(node, StateSet):
            members = ([q for q in range(m.n_states) if q not in node.indices]
                       if node.negated else dict.fromkeys(node.indices))
            return Difference(Sum(tuple(BeliefVar(q, m.state_names[q]) for q in members)),
                              Constant(1.0))
        if isinstance(node, BeliefPred):
            return node.expr if node.negated else Difference(Constant(delta), node.expr)
        return (Min if isinstance(node, And) else Max)(tuple(below))

    return fold_tree(core, translate, kids)


# --------------------------------------------------------------------------
# Obligations


@dataclass(frozen=True)
class Obligation:
    """One conjunct as a barrier check between consecutive beliefs.

    kind is "always", "eventually", "until", "next" or "now" and selects
    the step rule in _RULES. barriers holds one expression, or (left,
    right) for until; evaluators are their compiled forms over the
    monitor's leaf values, built once by compile_monitor and carried to
    every successor by `replace`. deadline is the reach
    deadline an eventually obligation fixes at activation. value is the
    barrier recorded at the step the obligation was discharged, which
    every later `inactive` record repeats.
    """

    oid: str
    kind: str
    label: str
    barriers: tuple[BeliefExpr, ...]
    evaluators: tuple[Evaluator, ...] = field(repr=False, compare=False)
    deadline: int | None = None
    discharged: bool = False
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(f"unknown obligation kind {self.kind!r}")


BarrierValues = list[list[float]]
# check_step's records; a status is "pass", "fail", "discharged" or
# "inactive".
Records = list[list]
# What one step's rules change: (position, field changes) for each
# obligation the successor replaces.
Changes = list[tuple[int, dict]]


@dataclass(frozen=True)
class Monitor:
    """Immutable monitor state: the leaf table its evaluators read,
    obligations, their barrier values at the belief reached, and the
    number of transitions examined so far."""

    config: MonitorConfig
    leaves: LeafTable = field(repr=False, compare=False)
    obligations: tuple[Obligation, ...]
    values: BarrierValues
    step_count: int = 0

    @property
    def all_discharged(self) -> bool:
        """True when nothing dischargeable is still pending."""
        return not self.pending()

    def pending(self) -> tuple[str, ...]:
        """Oids of the obligations still waiting for their discharge;
        an always obligation is never discharged and never pending."""
        return tuple(ob.oid for ob in self.obligations
                     if not ob.discharged and ob.kind != "always")


# Temporal conjunct type -> (kind, the propositional cores that become
# its barriers). Any other conjunct must itself be a propositional core,
# checked once at the start ("now").
_TEMPORAL = {
    Always: lambda f: ("always", (f.child,)),
    Eventually: lambda f: ("eventually", (f.child,)),
    Until: lambda f: ("until", (f.left, f.right)),
    Next: lambda f: ("next", (f.child,)),
}


def compile_monitor(phi: Formula, m: Mpomdp, config: MonitorConfig) -> Monitor:
    """Build a monitor from a top-level conjunction of obligations.

    Raises UnsupportedNesting for anything outside the supported shape
    (nested temporal operators, temporal operands of or, an until with a
    temporal side, and so on), and BeliefShieldError, naming the
    obligation, for an eventually obligation whose barrier at the
    model's initial belief fixes no reach deadline.
    """
    shapes = []
    for i, conjunct in enumerate(conjuncts(phi)):
        label = describe(conjunct)
        shape = _TEMPORAL.get(type(conjunct))
        kind, cores = shape(conjunct) if shape else ("now", (conjunct,))
        try:
            barriers = tuple(translate_core(core, m, config.delta) for core in cores)
        except UnsupportedNesting:
            raise UnsupportedNesting(
                f"conjunct {label!r} is not a temporal obligation over a propositional core"
                if kind == "now" else
                f"nested temporal operator inside {label!r}; only propositional cores "
                f"can be monitored") from None
        shapes.append((f"{i}:{kind}", kind, label, barriers))
    leaves = leaf_table([e for *_, barriers in shapes for e in barriers])
    obligations = tuple(
        Obligation(oid, kind, label, barriers,
                   tuple(compile_expr(e, leaves.slot) for e in barriers))
        for oid, kind, label, barriers in shapes)
    start = Monitor(config, leaves, obligations, [])
    start = replace(start, values=barrier_values(start, m.initial.probs))
    for ob, (h0, *_) in zip(start.obligations, start.values):
        if ob.kind == "eventually" and not h0 >= 0.0:
            try:
                ft_time_bound(h0, config.ft)
            except (ValueError, OverflowError):
                raise BeliefShieldError(
                    f"obligation {ob.oid} ({ob.label}) has start barrier {h0!r}, "
                    f"which fixes no reach deadline") from None
    return start


# --------------------------------------------------------------------------
# Stepping


# A rule maps one active obligation and its barrier values at b_prev and
# b_next to (status, recorded barrier, detail, field changes for the
# successor obligation, or None when it stays as it is). Rules only read
# floats. A discharge records the barrier value it was decided on. With
# details false a failing record's detail is "": the shield reads only a
# candidate's statuses and barriers, and executes only one that passes.


def _always(ob, prev, nxt, first, step, cfg, details):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev < 0.0:
        return "fail", h_next, f"start barrier {h_prev:.6g} < 0" if details else "", None
    if not dtbf_check(h_prev, h_next, cfg.alpha):
        return ("fail", h_next,
                f"decay bound broken ({h_prev:.6g} -> {h_next:.6g})" if details else "", None)
    return "pass", h_next, "", None


def _eventually(ob, prev, nxt, first, step, cfg, details):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev >= 0.0:
        return "discharged", h_prev, "satisfied at start", {"discharged": True, "value": h_prev}
    deadline = ob.deadline
    if deadline is None:
        deadline = ft_time_bound(h_prev, cfg.ft)
    if h_next >= 0.0:
        return ("discharged", h_next, f"reached at step {step} (deadline {deadline})",
                {"deadline": deadline, "discharged": True, "value": h_next})
    changes = {"deadline": deadline} if ob.deadline is None else None
    contracts = ft_dtbf_check(h_prev, h_next, cfg.ft)
    in_time = step <= deadline
    if contracts and in_time:
        return "pass", h_next, "", changes
    if not details:
        return "fail", h_next, "", changes
    problems = []
    if not contracts:
        problems.append(f"contraction broken ({h_prev:.6g} -> {h_next:.6g})")
    if not in_time:
        problems.append(f"deadline {deadline} passed")
    return "fail", h_next, "; ".join(problems), changes


def _until(ob, prev, nxt, first, step, cfg, details):
    (h1_prev, h2_prev), (h1_next, h2_next) = prev, nxt
    if first and h2_prev >= 0.0:
        return ("discharged", h2_prev, "right side satisfied at start",
                {"discharged": True, "value": h2_prev})
    if first and h1_prev < 0.0:
        # Right side negative at the start means the left must already
        # hold there; a later discharge cannot repair position zero.
        return ("fail", h1_next,
                f"left barrier {h1_prev:.6g} < 0 at start" if details else "", None)
    if h2_next >= 0.0:
        return ("discharged", h2_next, f"right side reached at step {step}",
                {"discharged": True, "value": h2_next})
    if not dtbf_check(h1_prev, h1_next, cfg.alpha):
        return ("fail", h1_next,
                f"left decay bound broken ({h1_prev:.6g} -> {h1_next:.6g})" if details else "",
                None)
    return "pass", h1_next, f"right barrier {h2_next:.6g}", None


# next and now are one-shot: decided at their single step either way.


def _next(ob, prev, nxt, first, step, cfg, details):
    h_next = nxt[0]
    settled = {"discharged": True, "value": h_next}
    if h_next >= 0.0:
        return "discharged", h_next, "", settled
    return "fail", h_next, "barrier < 0 at the next step" if details else "", settled


def _now(ob, prev, nxt, first, step, cfg, details):
    h0 = prev[0]
    settled = {"discharged": True, "value": h0}
    if h0 >= 0.0:
        return "discharged", h0, "", settled
    return "fail", h0, "barrier < 0 at start" if details else "", settled


_RULES = {
    "always": _always,
    "eventually": _eventually,
    "until": _until,
    "next": _next,
    "now": _now,
}


def barrier_values(mon: Monitor, probs: np.ndarray) -> BarrierValues:
    """Barrier values of every obligation at the belief whose float64
    entries are probs, from the list of its leaf values; empty for
    discharged obligations."""
    s = gather_leaves(mon.leaves, probs).tolist()
    return [[] if ob.discharged else [f(s) for f in ob.evaluators]
            for ob in mon.obligations]


def walk_step(mon: Monitor, nxt: BarrierValues, details: bool = True
              ) -> tuple[Records, Changes]:
    """The records of the transition from the belief mon has reached to
    the one whose barrier values are nxt, and the changes its rules make
    to the obligations, from which `successor` builds the monitor
    reached. It replaces no obligation and builds no monitor. With
    details false every failing record's detail is "", and every other
    record is as it is with details true."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    cfg = mon.config
    records: Records = []
    changes: Changes = []
    for ob, h_prev, h_next in zip(mon.obligations, mon.values, nxt):
        if ob.discharged:
            records.append(["inactive", ob.value, ""])
            continue
        status, barrier, detail, change = _RULES[ob.kind](ob, h_prev, h_next, first, step, cfg,
                                                           details)
        records.append([status, barrier, detail])
        if change:
            # One record per obligation so far: this one is the last.
            changes.append((len(records) - 1, change))
    return records, changes


def successor(mon: Monitor, changes: Changes, nxt: BarrierValues) -> Monitor:
    """The monitor one transition on from mon, whose rules made changes
    on the way to the belief whose barrier values are nxt."""
    obligations = mon.obligations
    if changes:
        obligations = list(obligations)
        for i, change in changes:
            obligations[i] = replace(obligations[i], **change)
        obligations = tuple(obligations)
    return Monitor(mon.config, mon.leaves, obligations, nxt, mon.step_count + 1)


def check_step(mon: Monitor, nxt: BarrierValues) -> tuple[Records, Monitor]:
    """Records and successor monitor for the transition from the belief
    mon has reached to the one whose barrier values are nxt."""
    records, changes = walk_step(mon, nxt)
    return records, successor(mon, changes, nxt)


def walk_steps(mon: Monitor, columns: list[list[list[float]]], t: int
               ) -> tuple[list[Records], Monitor]:
    """The records of every step and the monitor reached, for T
    transitions from the belief mon has reached, given by their barrier
    values: columns lists, per obligation, each barrier's T values (none
    for a discharged one), as Python floats. What T successive check_step
    calls return, bit for bit; no records and mon itself for T = 0.

    Each active obligation's rule decides its steps one after another,
    up to the one that discharges it. An obligation is replaced only
    where its rule changes it, and the monitor reached is built once, at
    the end."""
    if not t:
        return [], mon
    cfg = mon.config
    steps: list[Records] = []
    obligations: list[Obligation] = []
    values: BarrierValues = []
    for ob, prev, cols in zip(mon.obligations, mon.values, columns):
        records: Records = []
        if not ob.discharged:
            rule = _RULES[ob.kind]
            for step, nxt in enumerate(zip(*cols), mon.step_count + 1):
                *record, changes = rule(ob, prev, nxt, step == 1, step, cfg, True)
                records.append(record)
                prev = nxt
                if changes:
                    ob = replace(ob, **changes)
                    if ob.discharged:
                        break
        # A monitor holds no values of an obligation discharged before
        # the last step.
        values.append([] if len(records) < t else list(prev))
        records += [["inactive", ob.value, ""] for _ in range(t - len(records))]
        steps.append(records)
        obligations.append(ob)
    return ([list(step_records) for step_records in zip(*steps)],
            Monitor(cfg, mon.leaves, tuple(obligations), values, mon.step_count + t))


def passed(records: Records) -> bool:
    """Whether a step passed: no record's status is "fail"."""
    for status, _, _ in records:
        if status == "fail":
            return False
    return True
