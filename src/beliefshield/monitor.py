"""Compiles formulas into barrier obligations and checks them step by
step along a belief trajectory.

Supported shape: a top-level conjunction whose conjuncts are `G core`,
`F core`, `core1 U core2`, `X core`, or a bare propositional `core`,
where every core is propositional (atoms combined with and/or). Each
core translates to a single barrier expression:

    state-set atom        ->  sum of member beliefs - 1
    negated state-set     ->  sum of complement beliefs - 1
    belief predicate f    ->  -f + delta     (small delta > 0)
    negated predicate !f  ->  f
    and / or              ->  pointwise min / max

Every conjunct becomes one `Obligation` record. Its kind selects the
rule in the `_RULES` table that checks it between consecutive beliefs:

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

Monitors are immutable; check_step returns the verdict together with
the successor monitor, so candidate actions can be probed without
mutation. A step is two parts: the barrier values at the next belief
(barrier_values), then the kind's float-only rule for every active
obligation (check_step), which builds a new record only for an
obligation whose state changed; the shield reuses the same rules
through step_passes. A monitor holds the barrier values at the belief
it has reached (compile_monitor's at the model's initial belief), so
each belief is evaluated once, as it is reached, and no caller carries
them; this is exact, because a successor only discharges obligations
and no rule reads the values of a discharged one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .barrier import FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound
from .errors import UnsupportedNesting
from .ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Evaluator, Formula, Max, Min, NegBeliefPred, NegStateSet, Next,
    Or, StateSet, Sum, Until, compile_expr, describe, is_propositional,
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
    delta offset for positive ones; state atoms via their belief mass)."""
    if isinstance(core, StateSet):
        members = tuple(BeliefVar(q, m.state_names[q]) for q in core.indices)
        return Difference(Sum(members), Constant(1.0))
    if isinstance(core, NegStateSet):
        complement = tuple(
            BeliefVar(q, m.state_names[q])
            for q in range(m.n_states) if q not in core.indices
        )
        return Difference(Sum(complement), Constant(1.0))
    if isinstance(core, BeliefPred):
        return Difference(Constant(delta), core.expr)
    if isinstance(core, NegBeliefPred):
        return core.expr
    if isinstance(core, And):
        return Min(_flatten(core, And, m, delta))
    if isinstance(core, Or):
        return Max(_flatten(core, Or, m, delta))
    raise UnsupportedNesting(f"not a propositional core: {describe(core)}")


def _flatten(core: Formula, op: type, m: Mpomdp, delta: float) -> tuple[BeliefExpr, ...]:
    if isinstance(core, op):
        return _flatten(core.left, op, m, delta) + _flatten(core.right, op, m, delta)
    return (translate_core(core, m, delta),)


# --------------------------------------------------------------------------
# Obligations


@dataclass(frozen=True)
class Obligation:
    """One conjunct as a barrier check between consecutive beliefs.

    kind is "always", "eventually", "until", "next" or "now" and selects
    the step rule in _RULES. barriers holds one expression, or (left,
    right) for until; evaluators are their compiled forms, built once
    and carried to every successor by `replace`. deadline is the reach
    deadline an eventually obligation fixes at activation. value is the
    barrier recorded at the step the obligation was discharged, which
    every later `inactive` record repeats.
    """

    oid: str
    kind: str
    label: str
    barriers: tuple[BeliefExpr, ...]
    evaluators: tuple[Evaluator, ...] = field(default=(), repr=False, compare=False)
    deadline: int | None = None
    discharged: bool = False
    value: float | None = None

    def __post_init__(self):
        if self.kind not in _RULES:
            raise ValueError(f"unknown obligation kind {self.kind!r}")
        if not self.evaluators:
            object.__setattr__(self, "evaluators",
                               tuple(compile_expr(e) for e in self.barriers))


@dataclass(frozen=True)
class ObligationRecord:
    """Outcome of one obligation at one step."""

    oid: str
    kind: str
    status: str  # "pass" | "fail" | "discharged" | "inactive"
    barrier: float | None
    detail: str = ""


@dataclass(frozen=True)
class StepVerdict:
    step: int
    records: tuple[ObligationRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(r.oid for r in self.records if r.status == "fail")


BarrierValues = list[list[float]]


@dataclass(frozen=True)
class Monitor:
    """Immutable monitor state: obligations, their barrier values at the
    belief reached, and the number of transitions examined so far."""

    config: MonitorConfig
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
    temporal side, and so on).
    """
    obligations = []
    for i, conjunct in enumerate(conjuncts(phi)):
        label = describe(conjunct)
        shape = _TEMPORAL.get(type(conjunct))
        if shape is not None:
            kind, cores = shape(conjunct)
            for core in cores:
                _require_propositional(core, label)
        elif is_propositional(conjunct):
            kind, cores = "now", (conjunct,)
        else:
            raise UnsupportedNesting(
                f"conjunct {label!r} is not a temporal obligation over a "
                f"propositional core"
            )
        obligations.append(Obligation(
            f"{i}:{kind}", kind, label,
            tuple(translate_core(core, m, config.delta) for core in cores)))
    p = m.initial.probs.tolist()
    return Monitor(config, tuple(obligations),
                   [[f(p) for f in ob.evaluators] for ob in obligations])


def conjuncts(phi: Formula) -> list[Formula]:
    """The top-level conjuncts of phi, left to right."""
    if isinstance(phi, And):
        return conjuncts(phi.left) + conjuncts(phi.right)
    return [phi]


def _require_propositional(core: Formula, label: str) -> None:
    if not is_propositional(core):
        raise UnsupportedNesting(
            f"nested temporal operator inside {label!r}; only propositional "
            f"cores can be monitored"
        )


# --------------------------------------------------------------------------
# Stepping


# A rule maps one active obligation and its barrier values at b_prev and
# b_next to (status, recorded barrier, detail, field changes for the
# successor obligation, or None when it stays as it is). Rules only read
# floats. A discharge records the barrier value it was decided on.


def _always(ob, prev, nxt, first, step, cfg):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev < 0.0:
        return "fail", h_next, f"start barrier {h_prev:.6g} < 0", None
    if not dtbf_check(h_prev, h_next, cfg.alpha):
        return "fail", h_next, f"decay bound broken ({h_prev:.6g} -> {h_next:.6g})", None
    return "pass", h_next, "", None


def _eventually(ob, prev, nxt, first, step, cfg):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev >= 0.0:
        return "discharged", h_prev, "satisfied at start", {"discharged": True, "value": h_prev}
    deadline = ob.deadline
    if deadline is None:
        deadline = ft_time_bound(h_prev, cfg.ft)
    if h_next >= 0.0:
        return ("discharged", h_next, f"reached at step {step} (deadline {deadline})",
                {"deadline": deadline, "discharged": True, "value": h_next})
    problems = []
    if not ft_dtbf_check(h_prev, h_next, cfg.ft):
        problems.append(f"contraction broken ({h_prev:.6g} -> {h_next:.6g})")
    if step > deadline:
        problems.append(f"deadline {deadline} passed")
    changes = {"deadline": deadline} if ob.deadline is None else None
    return ("fail" if problems else "pass"), h_next, "; ".join(problems), changes


def _until(ob, prev, nxt, first, step, cfg):
    (h1_prev, h2_prev), (h1_next, h2_next) = prev, nxt
    if first and h2_prev >= 0.0:
        return ("discharged", h2_prev, "right side satisfied at start",
                {"discharged": True, "value": h2_prev})
    if first and h1_prev < 0.0:
        # Right side negative at the start means the left must already
        # hold there; a later discharge cannot repair position zero.
        return "fail", h1_next, f"left barrier {h1_prev:.6g} < 0 at start", None
    if h2_next >= 0.0:
        return ("discharged", h2_next, f"right side reached at step {step}",
                {"discharged": True, "value": h2_next})
    if not dtbf_check(h1_prev, h1_next, cfg.alpha):
        return ("fail", h1_next,
                f"left decay bound broken ({h1_prev:.6g} -> {h1_next:.6g})", None)
    return "pass", h1_next, f"right barrier {h2_next:.6g}", None


# next and now are one-shot: decided at their single step either way.


def _next(ob, prev, nxt, first, step, cfg):
    h_next = nxt[0]
    settled = {"discharged": True, "value": h_next}
    if h_next >= 0.0:
        return "discharged", h_next, "", settled
    return "fail", h_next, "barrier < 0 at the next step", settled


def _now(ob, prev, nxt, first, step, cfg):
    h0 = prev[0]
    settled = {"discharged": True, "value": h0}
    if h0 >= 0.0:
        return "discharged", h0, "", settled
    return "fail", h0, "barrier < 0 at start", settled


_RULES = {
    "always": _always,
    "eventually": _eventually,
    "until": _until,
    "next": _next,
    "now": _now,
}


def barrier_values(mon: Monitor, p: list[float]) -> BarrierValues:
    """Barrier values of every obligation at the belief whose entries
    are p (`belief.probs.tolist()`); empty for discharged obligations."""
    return [[] if ob.discharged else [f(p) for f in ob.evaluators]
            for ob in mon.obligations]


def check_step(mon: Monitor, nxt: BarrierValues) -> tuple[StepVerdict, Monitor]:
    """Verdict and successor monitor for the transition from the belief
    mon has reached to the one whose barrier values are nxt."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    records: list[ObligationRecord] = []
    obligations: list[Obligation] = []
    for ob, h_prev, h_next in zip(mon.obligations, mon.values, nxt):
        if ob.discharged:
            records.append(ObligationRecord(ob.oid, ob.kind, "inactive", ob.value))
        else:
            status, value, detail, changes = _RULES[ob.kind](
                ob, h_prev, h_next, first, step, mon.config)
            records.append(ObligationRecord(ob.oid, ob.kind, status, value, detail))
            if changes:
                ob = replace(ob, **changes)
        obligations.append(ob)
    verdict = StepVerdict(step=step, records=tuple(records))
    return verdict, Monitor(mon.config, tuple(obligations), nxt, step)


def step_passes(mon: Monitor, nxt: BarrierValues) -> bool:
    """Whether check_step(mon, nxt) passes, without building records or
    a successor."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    for ob, h_prev, h_next in zip(mon.obligations, mon.values, nxt):
        if not ob.discharged and _RULES[ob.kind](
                ob, h_prev, h_next, first, step, mon.config)[0] == "fail":
            return False
    return True
