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

Obligations then check, between consecutive beliefs:

    G core       invariance (decay bound) every step, plus membership
                 of the starting belief;
    F core       contraction every step until the barrier first reaches
                 >= 0 (discharged); a reach deadline is fixed at
                 activation from the first barrier value, and an
                 undischarged obligation past it is a violation;
    c1 U c2      membership/decay on the left barrier while the right
                 barrier is negative (including at the starting belief);
                 discharged when the right barrier reaches >= 0;
    X core       one-shot membership at the following step;
    bare core    one-shot membership at the starting belief.

Monitors are immutable; monitor_step returns the verdict together with
the successor monitor, so candidate actions can be probed without
mutation. Each barrier is compiled once, when the monitor is built, and
a step is two parts: the barrier values at both beliefs
(barrier_values), then one float-only rule per obligation kind
(check_step). The shield reuses the same rules through step_passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .barrier import FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound
from .errors import UnsupportedNesting
from .ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Evaluator, Formula, Max, Min, NegBeliefPred, NegStateSet, Next,
    Or, StateSet, Sum, Until, compile_expr, describe, is_propositional,
)
from .model import Belief, Mpomdp


@dataclass(frozen=True)
class MonitorConfig:
    """Check parameters shared by all obligations of one monitor."""

    delta: float = 1e-3
    alpha: LinearAlpha = LinearAlpha(0.5)
    ft: FtParams = FtParams(rho=0.99, eps=0.1)

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


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
class Invariance:
    oid: str
    label: str
    barrier: BeliefExpr
    started: bool = False


@dataclass(frozen=True)
class FiniteTime:
    oid: str
    label: str
    barrier: BeliefExpr
    deadline: int | None = None
    discharged: bool = False


@dataclass(frozen=True)
class UntilWatch:
    oid: str
    label: str
    left_barrier: BeliefExpr
    right_barrier: BeliefExpr
    started: bool = False
    discharged: bool = False


@dataclass(frozen=True)
class NextPending:
    oid: str
    label: str
    barrier: BeliefExpr
    discharged: bool = False


@dataclass(frozen=True)
class OneShot:
    oid: str
    label: str
    barrier: BeliefExpr
    discharged: bool = False


Obligation = Union[Invariance, FiniteTime, UntilWatch, NextPending, OneShot]


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


@dataclass(frozen=True)
class Monitor:
    """Immutable monitor state: obligations plus the number of
    transitions examined so far."""

    config: MonitorConfig
    obligations: tuple[Obligation, ...]
    step_count: int = 0
    last_values: tuple[float | None, ...] = ()
    # Compiled barriers of each obligation, in _barriers order; built
    # once and handed on to every successor.
    evaluators: tuple[tuple[Evaluator, ...], ...] = field(
        default=(), repr=False, compare=False)

    def __post_init__(self):
        if len(self.last_values) != len(self.obligations):
            object.__setattr__(self, "last_values", (None,) * len(self.obligations))
        if len(self.evaluators) != len(self.obligations):
            object.__setattr__(self, "evaluators", tuple(
                tuple(compile_expr(e) for e in _barriers(ob)) for ob in self.obligations))

    @property
    def all_discharged(self) -> bool:
        """True when nothing dischargeable is still pending."""
        return all(
            getattr(ob, "discharged", True) for ob in self.obligations
        )

    def pending(self) -> tuple[str, ...]:
        return tuple(
            ob.oid for ob in self.obligations if not getattr(ob, "discharged", True)
        )


def compile_monitor(phi: Formula, m: Mpomdp, config: MonitorConfig) -> Monitor:
    """Build a monitor from a top-level conjunction of obligations.

    Raises UnsupportedNesting for anything outside the supported shape
    (nested temporal operators, temporal operands of or, an until with a
    temporal side, and so on).
    """
    obligations: list[Obligation] = []
    for i, conjunct in enumerate(conjuncts(phi)):
        label = describe(conjunct)
        if isinstance(conjunct, Always):
            _require_propositional(conjunct.child, label)
            obligations.append(Invariance(
                f"{i}:always", label, translate_core(conjunct.child, m, config.delta)))
        elif isinstance(conjunct, Eventually):
            _require_propositional(conjunct.child, label)
            obligations.append(FiniteTime(
                f"{i}:eventually", label, translate_core(conjunct.child, m, config.delta)))
        elif isinstance(conjunct, Until):
            _require_propositional(conjunct.left, label)
            _require_propositional(conjunct.right, label)
            obligations.append(UntilWatch(
                f"{i}:until", label,
                translate_core(conjunct.left, m, config.delta),
                translate_core(conjunct.right, m, config.delta)))
        elif isinstance(conjunct, Next):
            _require_propositional(conjunct.child, label)
            obligations.append(NextPending(
                f"{i}:next", label, translate_core(conjunct.child, m, config.delta)))
        elif is_propositional(conjunct):
            obligations.append(OneShot(
                f"{i}:now", label, translate_core(conjunct, m, config.delta)))
        else:
            raise UnsupportedNesting(
                f"conjunct {label!r} is not a temporal obligation over a "
                f"propositional core"
            )
    return Monitor(config=config, obligations=tuple(obligations))


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


def _barriers(ob: Obligation) -> tuple[BeliefExpr, ...]:
    if isinstance(ob, UntilWatch):
        return (ob.left_barrier, ob.right_barrier)
    if isinstance(ob, (Invariance, FiniteTime, NextPending, OneShot)):
        return (ob.barrier,)
    raise TypeError(f"unknown obligation: {ob!r}")


def _active(ob: Obligation) -> bool:
    return not getattr(ob, "discharged", False)


# A rule maps one active obligation and its barrier values at b_prev and
# b_next to (status, recorded barrier, detail, field changes for the
# successor obligation). Rules only read floats.

_STARTED = {"started": True}
_DISCHARGED = {"discharged": True}
_STARTED_DISCHARGED = {"started": True, "discharged": True}


def _always(ob, prev, nxt, first, step, cfg):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev < 0.0:
        return "fail", h_next, f"start barrier {h_prev:.6g} < 0", _STARTED
    if not dtbf_check(h_prev, h_next, cfg.alpha):
        return ("fail", h_next, f"decay bound broken ({h_prev:.6g} -> {h_next:.6g})",
                _STARTED)
    return "pass", h_next, "", _STARTED


def _eventually(ob, prev, nxt, first, step, cfg):
    (h_prev,), (h_next,) = prev, nxt
    if first and h_prev >= 0.0:
        return "discharged", h_prev, "satisfied at start", _DISCHARGED
    deadline = ob.deadline
    if deadline is None:
        deadline = ft_time_bound(h_prev, cfg.ft)
    if h_next >= 0.0:
        return ("discharged", h_next, f"reached at step {step} (deadline {deadline})",
                {"deadline": deadline, "discharged": True})
    problems = []
    if not ft_dtbf_check(h_prev, h_next, cfg.ft):
        problems.append(f"contraction broken ({h_prev:.6g} -> {h_next:.6g})")
    if step >= deadline:
        problems.append(f"deadline {deadline} passed")
    return ("fail" if problems else "pass"), h_next, "; ".join(problems), {"deadline": deadline}


def _until(ob, prev, nxt, first, step, cfg):
    (h1_prev, h2_prev), (h1_next, h2_next) = prev, nxt
    if first and h2_prev >= 0.0:
        return "discharged", h2_prev, "right side satisfied at start", _STARTED_DISCHARGED
    if first and h1_prev < 0.0:
        # Right side negative at the start means the left must already
        # hold there; a later discharge cannot repair position zero.
        return "fail", h1_next, f"left barrier {h1_prev:.6g} < 0 at start", _STARTED
    if h2_next >= 0.0:
        return "discharged", h2_next, f"right side reached at step {step}", _STARTED_DISCHARGED
    if not dtbf_check(h1_prev, h1_next, cfg.alpha):
        return ("fail", h1_next,
                f"left decay bound broken ({h1_prev:.6g} -> {h1_next:.6g})", _STARTED)
    return "pass", h1_next, f"right barrier {h2_next:.6g}", _STARTED


def _next(ob, prev, nxt, first, step, cfg):
    h_next = nxt[0]
    if h_next >= 0.0:
        return "discharged", h_next, "", _DISCHARGED
    return "fail", h_next, "barrier < 0 at the next step", _DISCHARGED


def _now(ob, prev, nxt, first, step, cfg):
    h0 = prev[0]
    if h0 >= 0.0:
        return "discharged", h0, "", _DISCHARGED
    return "fail", h0, "barrier < 0 at start", _DISCHARGED


_RULES = {
    Invariance: ("always", _always),
    FiniteTime: ("eventually", _eventually),
    UntilWatch: ("until", _until),
    NextPending: ("next", _next),
    OneShot: ("now", _now),
}

BarrierValues = list[list[float]]


def barrier_values(mon: Monitor, p: list[float]) -> BarrierValues:
    """Barrier values of every obligation at the belief whose entries
    are p (`belief.probs.tolist()`); empty for discharged obligations."""
    return [[f(p) for f in fs] if _active(ob) else []
            for ob, fs in zip(mon.obligations, mon.evaluators)]


def check_step(mon: Monitor, prev: BarrierValues, nxt: BarrierValues
               ) -> tuple[StepVerdict, Monitor]:
    """Verdict and successor monitor for a transition, given the barrier
    values at b_prev and b_next."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    records: list[ObligationRecord] = []
    new_obs: list[Obligation] = []
    new_vals: list[float | None] = []
    for ob, last, h_prev, h_next in zip(mon.obligations, mon.last_values, prev, nxt):
        kind, rule = _RULES[type(ob)]
        if not _active(ob):
            records.append(ObligationRecord(ob.oid, kind, "inactive", last))
            new_obs.append(ob)
            new_vals.append(last)
            continue
        status, value, detail, changes = rule(ob, h_prev, h_next, first, step, mon.config)
        records.append(ObligationRecord(ob.oid, kind, status, value, detail))
        new_obs.append(replace(ob, **changes))
        new_vals.append(value)
    verdict = StepVerdict(step=step, records=tuple(records))
    successor = Monitor(config=mon.config, obligations=tuple(new_obs), step_count=step,
                        last_values=tuple(new_vals), evaluators=mon.evaluators)
    return verdict, successor


def step_passes(mon: Monitor, prev: BarrierValues, p_next: list[float]) -> bool:
    """Whether check_step would pass the transition to the belief with
    entries p_next, without building records or a successor; barriers
    are evaluated at p_next only up to the first failing obligation."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    for ob, fs, h_prev in zip(mon.obligations, mon.evaluators, prev):
        if _active(ob):
            h_next = [f(p_next) for f in fs]
            if _RULES[type(ob)][1](ob, h_prev, h_next, first, step, mon.config)[0] == "fail":
                return False
    return True


def monitor_step(mon: Monitor, b_prev: Belief, b_next: Belief) -> tuple[StepVerdict, Monitor]:
    """Check the transition b_prev -> b_next against every obligation.

    Pure: returns the verdict and the successor monitor. The first call
    treats b_prev as the starting belief (position 0) and runs the
    activation checks described in the module docstring.
    """
    return check_step(mon, barrier_values(mon, b_prev.probs.tolist()),
                      barrier_values(mon, b_next.probs.tolist()))
