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
compares them as they are. An oid or kind is read from the obligation
at a record's position, and `passed` says whether a step passed. The
successor holds a new Obligation only where a rule changed one (a
deadline fixed, a discharge) and shares the others. A step is two
parts: the barrier values at the next belief (barrier_values), then the
kind's float-only rule for every active obligation (check_step); the
shield reuses the same rules through step_passes. A monitor holds the
barrier values at the belief it has reached (compile_monitor's at the
model's initial belief), so each belief is evaluated once, as it is
reached, and no caller carries them; this is exact, because a
successor only discharges obligations and no rule reads the values of
a discharged one.

barrier_values takes the belief as its float64 array and reads it
through the monitor's leaf table (leaf_values, which also reads a (T, n)
stack of beliefs at once, for the audit). Each sum whose children are
all entries b(q), such as a state-set atom's member mass, is one bin,
and one gathered np.bincount per belief or stack sums every bin.
np.bincount starts each bin at 0.0 and adds its entries in child
order, the float operations of the builtin `sum` on Python 3.10 and
3.11, so the values are those of the sums themselves bit for bit. An
entry outside such a sum is read on its own, so that a -0.0 keeps its
sign. compile_expr compiles each barrier once, reading each bin and
each such entry directly from the list of leaf values at the position
the monitor's leaf lookup gives it; evaluate_barriers applies them to
one belief's list.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .barrier import FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound
from .errors import UnsupportedNesting
from .ldtl import (
    Always, And, BeliefExpr, BeliefPred, BeliefVar, Constant, Difference,
    Eventually, Evaluator, Formula, Max, Min, Next, Or, StateSet, Sum, Until,
    children, compile_expr, describe, is_propositional,
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
        members = ([q for q in range(m.n_states) if q not in core.indices]
                   if core.negated else core.indices)
        return Difference(Sum(tuple(BeliefVar(q, m.state_names[q]) for q in members)),
                          Constant(1.0))
    if isinstance(core, BeliefPred):
        return core.expr if core.negated else Difference(Constant(delta), core.expr)
    if isinstance(core, (And, Or)):
        node = Min if isinstance(core, And) else Max
        return node(tuple(translate_core(c, m, delta) for c in core.children))
    raise UnsupportedNesting(f"not a propositional core: {describe(core)}")


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


@dataclass(frozen=True)
class LeafTable:
    """Where barrier_values reads a belief. index holds the state of
    every entry of every bin, bin by bin in child order, and bins the
    bin of each; bare holds the states of the entries read on their own.
    The evaluators read bin k at position k of the leaf values and
    bare[j] at position n_bins + j."""

    index: np.ndarray
    bins: np.ndarray
    n_bins: int
    bare: np.ndarray


def _leaf_key(node: BeliefExpr) -> tuple[int, ...] | int | None:
    """A leaf's state indices: a tuple for a bin, a sum whose children
    are all entries (at least one), an int for any other entry, and
    None for a node that is not a leaf."""
    if isinstance(node, BeliefVar):
        return operator.index(node.index)
    if (isinstance(node, Sum) and node.children
            and all(isinstance(c, BeliefVar) for c in node.children)):
        return tuple(operator.index(c.index) for c in node.children)
    return None


def _leaf_table(barriers: list[BeliefExpr]
                ) -> tuple[LeafTable, Callable[[BeliefExpr], int | None]]:
    """The leaf table of a monitor's barriers, and compile_expr's leaf
    lookup for it: a leaf's position among the leaf values, None for any
    other node. Equal sums share one bin and an entry is read once,
    however often it occurs. Walked without recursion."""
    bins: dict[tuple[int, ...], int] = {}
    bare: dict[int, int] = {}
    todo = list(barriers)
    while todo:
        node = todo.pop()
        key = _leaf_key(node)
        if key is None:
            todo.extend(children(node))
        elif isinstance(key, tuple):
            bins.setdefault(key, len(bins))
        else:
            bare.setdefault(key, len(bare))
    table = LeafTable(
        index=np.array([q for key in bins for q in key], dtype=np.intp),
        bins=np.array([k for key, k in bins.items() for _ in key], dtype=np.intp),
        n_bins=len(bins),
        bare=np.array(list(bare), dtype=np.intp))
    slots = {**bins, **{q: len(bins) + j for q, j in bare.items()}}
    return table, lambda node: slots.get(_leaf_key(node))


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
    temporal side, and so on).
    """
    shapes = []
    for i, conjunct in enumerate(phi.children if isinstance(phi, And) else (phi,)):
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
        shapes.append((f"{i}:{kind}", kind, label,
                       tuple(translate_core(core, m, config.delta) for core in cores)))
    leaves, leaf = _leaf_table([e for *_, barriers in shapes for e in barriers])
    obligations = tuple(
        Obligation(oid, kind, label, barriers,
                   tuple(compile_expr(e, leaf) for e in barriers))
        for oid, kind, label, barriers in shapes)
    start = Monitor(config, leaves, obligations, [])
    return replace(start, values=barrier_values(start, m.initial.probs))


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


def leaf_values(leaves: LeafTable, beliefs: np.ndarray) -> list:
    """The leaf values of a belief, a float64 array of its n entries, as
    one list: its bins, then its bare entries. Of a (T, n) stack of
    beliefs, one such list per row: row r's entries are read at r * n + q
    and its bins numbered after row r - 1's, so one np.bincount sums
    every row's bins, each in child order as for a single belief."""
    index, bins, t = leaves.index, leaves.bins, 1
    stacked = beliefs.ndim == 2
    if stacked:
        t, n = beliefs.shape
        rows = np.arange(t)[:, None]
        index = (index + n * rows).ravel()
        bins = (bins + leaves.n_bins * rows).ravel()
    values = np.bincount(bins, beliefs.take(index), t * leaves.n_bins)
    if stacked:
        values = values.reshape(t, leaves.n_bins)
    if leaves.bare.size:
        values = np.concatenate((values, beliefs.take(leaves.bare, axis=-1)), axis=-1)
    return values.tolist()


def evaluate_barriers(mon: Monitor, s: list[float]) -> BarrierValues:
    """Barrier values of every obligation from one belief's leaf values
    s (see leaf_values); empty for discharged obligations."""
    return [[] if ob.discharged else [f(s) for f in ob.evaluators]
            for ob in mon.obligations]


def barrier_values(mon: Monitor, probs: np.ndarray) -> BarrierValues:
    """Barrier values of every obligation at the belief whose float64
    entries are probs; empty for discharged obligations."""
    return evaluate_barriers(mon, leaf_values(mon.leaves, probs))


def check_step(mon: Monitor, nxt: BarrierValues) -> tuple[Records, Monitor]:
    """Records and successor monitor for the transition from the belief
    mon has reached to the one whose barrier values are nxt."""
    first = mon.step_count == 0
    step = mon.step_count + 1
    records: Records = []
    obligations: list[Obligation] = []
    for ob, h_prev, h_next in zip(mon.obligations, mon.values, nxt):
        if ob.discharged:
            records.append(["inactive", ob.value, ""])
        else:
            *record, changes = _RULES[ob.kind](ob, h_prev, h_next, first, step, mon.config)
            records.append(record)
            if changes:
                ob = replace(ob, **changes)
        obligations.append(ob)
    return records, Monitor(mon.config, mon.leaves, tuple(obligations), nxt, step)


def passed(records: Records) -> bool:
    """Whether a step passed: no record's status is "fail"."""
    for status, _, _ in records:
        if status == "fail":
            return False
    return True


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
