"""Multi-agent POMDP model: joint dynamics tables, beliefs, and the
exact Bayes filter over the joint state.

The model is a tuple of dense tables over a finite joint state space Q:
transition[q, a, q'] is the probability of landing in q' after joint
action a in state q, observation[q', a, z] the probability of the joint
observation z in the successor state, reward[q, a] an immediate reward.
Joint actions and observations are flat mixed-radix encodings of the
per-agent components, agent 0 most significant.

All stochastic rows must sum to 1 within 1e-9, with no entry negative
or above 1 + 1e-9; loaders renormalize once after validation, the
filter itself never renormalizes inputs silently. A negative entry is
refused however small, since renormalizing keeps its sign and the
filter would carry it into a belief.

The filter's arithmetic is in a fixed order, so its bits depend on
neither the BLAS library nor the CPU kernel it picks. The model stores
each action's non-zero transition entries once, in ascending source
state order, and the prediction adds each successor's terms in that
order, from 0.0 (see predicted_belief). Expected rewards and the
correction's normalizer are numpy sums over one contiguous product
vector, whose pairwise order numpy fixes by the vector's length.

Sampling is an inverse-CDF draw over successor tables that the model
builds once, when it is constructed: one per transition row (q, a), one
per observation row (q', a) and one for the initial distribution. A
row's table lists its positive entries in index order and the row's
running sums at all of them but the last. A draw takes one u =
rng.random() and picks the entry that bisect_right(sums, u) points at.
The running sums are the row's own np.cumsum, taken at those
positions, so a draw equals np.searchsorted(np.cumsum(row), u,
side="right") bit for bit wherever that index has positive mass: a zero
entry adds nothing to the sum, so no u falls in its bin. A u at or
above the row's total, possible when a row sums to just under 1, lands
on the last positive entry, which construction requires every row to
have: no draw ever picks a zero-probability entry.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroLikelihood

SIMPLEX_ATOL = 1e-9
LIKELIHOOD_FLOOR = 1e-12

# Joins per-agent observation names into a joint observation label.
OBS_JOIN = "+"


def flat_from_components(components: tuple[int, ...], radices: tuple[int, ...]) -> int:
    """Mixed-radix encode, first component most significant."""
    if len(components) != len(radices):
        raise ValueError(f"got {len(components)} components for {len(radices)} agents")
    flat = 0
    for c, r in zip(components, radices):
        if not 0 <= c < r:
            raise ValueError(f"component {c} out of range for radix {r}")
        flat = flat * r + c
    return flat


def components_from_flat(flat: int, radices: tuple[int, ...]) -> tuple[int, ...]:
    """Invert flat_from_components."""
    size = int(np.prod(radices)) if radices else 1
    if not 0 <= flat < size:
        raise ValueError(f"flat index {flat} out of range for radices {radices}")
    out = []
    for r in reversed(radices):
        out.append(flat % r)
        flat //= r
    return tuple(reversed(out))


def check_names(names, what: str) -> None:
    """The name rules for one list of `what` (state, agent, action or
    observation) names: at least one, each a non-empty string, none
    twice. An observation name may not contain OBS_JOIN, or two joint
    observations could share a label. Raises ValueError."""
    if not names:
        raise ValueError(f"expected at least one {what} name")
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name:
            raise ValueError(f"{what} names must be non-empty strings, got {name!r}")
        if name in seen:
            raise ValueError(f"duplicate {what} name {name!r}")
        if what == "observation" and OBS_JOIN in name:
            raise ValueError(f"observation names may not contain {OBS_JOIN!r}")
        seen.add(name)


@dataclass(frozen=True)
class JointAction:
    """One action per agent, plus its flat table index."""

    components: tuple[int, ...]
    flat_index: int

    @classmethod
    def from_components(cls, components: tuple[int, ...], radices: tuple[int, ...]) -> "JointAction":
        return cls(tuple(components), flat_from_components(tuple(components), radices))


@dataclass(frozen=True)
class Belief:
    """Point on the probability simplex over the joint state space.

    Only the shape is checked here. Values are checked where a belief
    enters: validate_tables at config load, validate_model for models
    built in code, and the audit's replay of recorded beliefs. A belief
    built from outside data holds a read-only copy of it. Filter outputs
    need no check and no copy (see `owning`): each is a fresh
    non-negative vector divided by a normalizer above LIKELIHOOD_FLOOR.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).copy()
        if p.ndim != 1:
            raise ValueError(f"belief must be a vector, got shape {p.shape}")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def owning(cls, probs: np.ndarray) -> "Belief":
        """A belief that takes over `probs`, a fresh float64 vector that
        no one else holds, without copying or checking it, and makes it
        read-only."""
        probs.setflags(write=False)
        b = object.__new__(cls)
        object.__setattr__(b, "probs", probs)
        return b

    def __getitem__(self, q: int) -> float:
        return float(self.probs[q])

    def __len__(self) -> int:
        return len(self.probs)


# A row's successor table: the indices of its positive entries, and the
# row's running sums at all of those entries but the last.
RowTable = tuple[list[int], list[float]]


def _row_tables(block: np.ndarray) -> list[RowTable]:
    """Successor table of every row of an (n, k) block of stochastic rows,
    each of which has a positive entry."""
    positive = block > 0
    indices = np.nonzero(positive)[1].tolist()
    sums = np.cumsum(block, axis=1)[positive].tolist()
    ends = np.cumsum(positive.sum(axis=1)).tolist()
    return [(indices[start:end], sums[start:end - 1])
            for start, end in zip([0] + ends, ends)]


# An action's transition kernel as its non-zero entries (src, dst, w):
# w[k] = transition[src[k], a, dst[k]], in ascending (src, dst) order.
Kernel = tuple[np.ndarray, np.ndarray, np.ndarray]


def _kernel(block: np.ndarray) -> Kernel:
    """Non-zero entries of one action's (n, n) transition block, row by
    row."""
    src, dst = np.nonzero(block)
    entries = (src, dst, block[src, dst])
    for arr in entries:
        arr.setflags(write=False)
    return entries


@dataclass(frozen=True)
class SuccessorTables:
    """Every row's successor table, built once per model: transition[a][q],
    observation[a][q'] and initial; and kernels[a], each action's
    transition entries, which the prediction sums."""

    transition: list[list[RowTable]]
    observation: list[list[RowTable]]
    initial: RowTable
    kernels: list[Kernel]


@dataclass(frozen=True)
class Mpomdp:
    """Dense multi-agent POMDP over a finite joint state space.

    Tables:
        transition:  (n_states, n_joint_actions, n_states)
        observation: (n_states, n_joint_actions, n_joint_observations)
        reward:      (n_states, n_joint_actions)

    n_joint_actions and n_joint_observations are the products of the
    per-agent radices, fixed at construction.
    """

    state_names: tuple[str, ...]
    agent_names: tuple[str, ...]
    action_names: tuple[tuple[str, ...], ...]       # per agent
    observation_names: tuple[tuple[str, ...], ...]  # per agent
    initial: Belief
    transition: np.ndarray
    observation: np.ndarray
    reward: np.ndarray
    state_index: dict[str, int] = field(init=False, repr=False, compare=False)
    n_joint_actions: int = field(init=False, repr=False, compare=False)
    n_joint_observations: int = field(init=False, repr=False, compare=False)
    successors: SuccessorTables = field(init=False, repr=False, compare=False)
    # reward[:, a] for each a, as contiguous rows of the stored table.
    reward_rows: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_names(self.state_names, "state")
        check_names(self.agent_names, "agent")
        if not len(self.action_names) == len(self.observation_names) == self.n_agents:
            raise ValueError("expected one action and one observation name list per agent")
        for actions, observations in zip(self.action_names, self.observation_names):
            check_names(actions, "action")
            check_names(observations, "observation")
        na = int(np.prod(self.action_radices))
        nz = int(np.prod(self.observation_radices))
        object.__setattr__(self, "n_joint_actions", na)
        object.__setattr__(self, "n_joint_observations", nz)
        t = np.asarray(self.transition, dtype=float)
        o = np.asarray(self.observation, dtype=float)
        r = np.asarray(self.reward, dtype=float)
        n = self.n_states
        if t.shape != (n, na, n):
            raise ValueError(f"transition shape {t.shape}, expected {(n, na, n)}")
        if o.shape != (n, na, nz):
            raise ValueError(f"observation shape {o.shape}, expected {(n, na, nz)}")
        if r.shape != (n, na):
            raise ValueError(f"reward shape {r.shape}, expected {(n, na)}")
        if len(self.initial) != n:
            raise ValueError(f"initial belief over {len(self.initial)} states, model has {n}")
        bad = np.argwhere(~np.isfinite(r))
        if bad.size:
            q, a = bad[0].tolist()
            raise ValueError(str(Violation("reward", (q, a),
                                           f"expected a finite number, got {r[q, a]}")))
        for table, rows in (("transition", t), ("observation", o),
                            ("initial", self.initial.probs[None, :])):
            empty = np.argwhere(~(rows > 0).any(axis=-1))
            if empty.size:
                raise ValueError(str(Violation(table, tuple(empty[0].tolist()),
                                               "row has no positive entry")))
        # Stored action-major, copies viewed as (n, A, n), (n, A, Z) and
        # (n, A): transition[:, a, :] is then one contiguous block, so an
        # action's kernel is listed from one block,
        # observation[:, a, :].T is a C-contiguous (Z, n) block whose row
        # z is observation[:, a, z], and reward[:, a] is a contiguous row.
        t = np.array(t.transpose(1, 0, 2), order="C").transpose(1, 0, 2)
        o = np.array(o.transpose(1, 2, 0), order="C").transpose(2, 0, 1)
        r = np.array(r.T, order="C").T
        for arr in (t, o, r):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", t)
        object.__setattr__(self, "observation", o)
        object.__setattr__(self, "reward", r)
        object.__setattr__(self, "reward_rows", list(r.T))
        object.__setattr__(self, "state_index", {s: i for i, s in enumerate(self.state_names)})
        # One action slice at a time, so the cumsum temporaries stay at
        # one (n, k) block.
        object.__setattr__(self, "successors", SuccessorTables(
            transition=[_row_tables(t[:, a, :]) for a in range(na)],
            observation=[_row_tables(o[:, a, :]) for a in range(na)],
            initial=_row_tables(self.initial.probs[None, :])[0],
            kernels=[_kernel(t[:, a, :]) for a in range(na)],
        ))

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_agents(self) -> int:
        return len(self.agent_names)

    @property
    def action_radices(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.action_names)

    @property
    def observation_radices(self) -> tuple[int, ...]:
        return tuple(len(z) for z in self.observation_names)

    def joint_action_label(self, flat: int) -> tuple[str, ...]:
        comps = components_from_flat(flat, self.action_radices)
        return tuple(self.action_names[i][c] for i, c in enumerate(comps))


@dataclass(frozen=True)
class Violation:
    """One failed validity check, addressed by table and index path."""

    table: str
    indices: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = ", ".join(str(i) for i in self.indices)
        return f"{self.table}[{where}]: {self.message}"


def _check_rows(table: str, rows: np.ndarray, out: list[Violation]) -> None:
    # rows: (..., k) stochastic along the last axis
    sums = rows.sum(axis=-1)
    # Negated comparisons, so that NaN sums and entries are reported too.
    bad_sum = np.argwhere(~(np.abs(sums - 1.0) <= SIMPLEX_ATOL))
    for idx in bad_sum:
        out.append(Violation(table, tuple(int(i) for i in idx),
                             f"row sums to {sums[tuple(idx)]:.12g}, not 1"))
    bad_entry = np.argwhere(~((rows >= 0.0) & (rows <= 1.0 + SIMPLEX_ATOL)))
    for idx in bad_entry:
        out.append(Violation(table, tuple(int(i) for i in idx),
                             f"entry {rows[tuple(idx)]:.12g} outside [0, 1]"))


def validate_tables(initial: np.ndarray, transition: np.ndarray,
                    observation: np.ndarray) -> list[Violation]:
    """Check stochasticity of every transition/observation row and the
    initial distribution. Empty result means the tables are valid."""
    out: list[Violation] = []
    _check_rows("transition", np.asarray(transition, dtype=float), out)
    _check_rows("observation", np.asarray(observation, dtype=float), out)
    _check_rows("initial", np.asarray(initial, dtype=float)[None, :], out)
    return out


def validate_model(m: Mpomdp) -> list[Violation]:
    """validate_tables over a built model."""
    return validate_tables(m.initial.probs, m.transition, m.observation)


def predicted_belief(b: Belief, action: int, m: Mpomdp) -> np.ndarray:
    """One-step prediction: push b through the transition kernel, no
    observation correction. Returns a raw probability vector.

    Entry q' is sum_q b(q) * transition[q, a, q'] over the non-zero
    entries of the action's kernel, added in ascending q from 0.0, so
    its bits are those of that scalar loop on any CPU."""
    src, dst, w = m.successors.kernels[action]
    terms = b.probs[src]
    terms *= w
    return np.bincount(dst, terms, m.n_states)


def correct(predicted: np.ndarray, action: int, obs: int, m: Mpomdp) -> np.ndarray:
    """Observation correction of a predicted belief: the raw posterior
    vector observation[q', a, z] * predicted(q') / normalizer.

    Raises ZeroLikelihood when the normalizer is <= 1e-12: the
    observation is impossible under the predicted belief and the
    posterior is undefined. Never renormalizes its inputs.
    """
    numer = m.observation[:, action, obs] * predicted
    denom = float(numer.sum())
    if denom <= LIKELIHOOD_FLOOR:
        raise ZeroLikelihood(action, obs, denom)
    return numer / denom


def belief_update(b: Belief, action: int, obs: int, m: Mpomdp) -> Belief:
    """Exact Bayes filter step over the joint state, predicted_belief
    followed by correct:

    posterior(q') ∝ observation[q', a, z] * sum_q transition[q, a, q'] * b(q)
    """
    return Belief.owning(correct(predicted_belief(b, action, m), action, obs, m))


def expected_reward(b: Belief, action: int, m: Mpomdp) -> float:
    """Belief-weighted immediate reward sum_q b(q) * reward[q, a], as
    numpy's sum of the product vector."""
    return float(np.add.reduce(b.probs * m.reward_rows[action]))


def _sample_index(table: RowTable, rng: np.random.Generator) -> int:
    # Inverse-CDF draw; one generator call, so reproducible for a given
    # generator state.
    indices, sums = table
    return indices[bisect_right(sums, rng.random())]


def sample_transition(q: int, action: int, m: Mpomdp, rng: np.random.Generator) -> int:
    """Draw a successor state from transition[q, action, :]."""
    return _sample_index(m.successors.transition[action][q], rng)


def sample_observation(q_next: int, action: int, m: Mpomdp, rng: np.random.Generator) -> int:
    """Draw a joint observation from observation[q_next, action, :]."""
    return _sample_index(m.successors.observation[action][q_next], rng)


def sample_initial_state(m: Mpomdp, rng: np.random.Generator) -> int:
    """Draw the hidden start state from the initial distribution."""
    return _sample_index(m.successors.initial, rng)
