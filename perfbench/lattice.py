"""Corridor lattice generator: the shipped corridor scenario at a chosen size.

A courier crosses two lanes of `lane` cells each: the safe lane a0..,
whose last cell is the absorbing goal, and the hallway h0.. (h0 is the
dock; h1.. hold debris). `patrollers` patrollers each roam the hallway
cells h1..h<patrol> on a line and carry a noisy sensor that reports
which half of their beat they are in. Joint states are named
"<courier>_<patroller 1>_..."; there is one joint state per combination.

Predicates keep the shipped texts' meaning and sum over every matching
joint state; the formula text is the shipped one. With lane=4, patrol=2
and one patroller the generated tables are the shipped corridor's.

Only public constructors are used, so the result is exactly what a user
could write by hand as YAML.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from beliefshield import (
    Belief, FixedAction, FtParams, JointAction, LinearAlpha, MonitorConfig, Mpomdp,
    ScenarioConfig, parse_expr, parse_formula,
)
from beliefshield.presets import (
    ACTION_BONUS, COURIER_ACTIONS, FORMULA, GOAL_BONUS, MOVE_SUCCESS,
    PATROLLER_ACTIONS, SENSOR_CORRECT,
)

HOLD_MOVE = 0.05
SWEEP_MOVE = 0.9


@dataclass(frozen=True)
class LatticeSize:
    lane: int        # cells per lane
    patrol: int      # hallway cells h1..h<patrol> each patroller roams
    patrollers: int

    def __post_init__(self):
        if self.lane < 2 or not 1 <= self.patrol < self.lane or self.patrollers < 1:
            raise ValueError(f"invalid lattice size {self}")


def _courier_cells(size: LatticeSize) -> tuple[str, ...]:
    return (tuple(f"a{i}" for i in range(size.lane))
            + tuple(f"h{i}" for i in range(size.lane)))


def _routes(lane: int) -> dict[str, dict[str, str]]:
    last = lane - 1
    return {
        "follow_route": {**{f"h{i}": f"a{i}" for i in range(lane)},
                         **{f"a{i}": f"a{i + 1}" for i in range(last)}},
        "return_home": {**{f"h{i}": f"h{i - 1}" for i in range(1, lane)},
                        "a0": "h0",
                        **{f"a{i}": f"a{i - 1}" for i in range(1, last)}},
        "shortcut": {**{f"h{i}": f"h{i + 1}" for i in range(last)},
                     f"h{last}": f"a{last}",
                     **{f"a{i}": f"h{i + 1}" for i in range(last)}},
    }


def _courier_kernel(cells: tuple[str, ...], route: dict[str, str], goal: str) -> np.ndarray:
    k = np.zeros((len(cells), len(cells)))
    for i, cell in enumerate(cells):
        dest = route.get(cell, cell)
        if cell == goal or dest == cell:
            k[i, i] = 1.0
        else:
            k[i, cells.index(dest)] = MOVE_SUCCESS
            k[i, i] = 1.0 - MOVE_SUCCESS
    return k


def _patroller_kernel(patrol: int, move: float) -> np.ndarray:
    """Random walk on a line of `patrol` cells: leave with `move`,
    split evenly over the neighbours."""
    k = np.zeros((patrol, patrol))
    for i in range(patrol):
        neighbours = [j for j in (i - 1, i + 1) if 0 <= j < patrol]
        k[i, i] = 1.0 if not neighbours else 1.0 - move
        for j in neighbours:
            k[i, j] = move / len(neighbours)
    return k


def _sensor(patrol: int) -> np.ndarray:
    """P(ping_a | cell), ping_a meaning the first half of the beat."""
    half = (patrol + 1) // 2
    return np.array([SENSOR_CORRECT if i < half else 1.0 - SENSOR_CORRECT
                     for i in range(patrol)])


def _sum_text(names: list[str]) -> str:
    return "(" + " + ".join(f"b({s})" for s in names) + ")"


def lattice_model(size: LatticeSize) -> tuple[Mpomdp, dict[str, str]]:
    """The model and the predicate texts over its states."""
    cells = _courier_cells(size)
    goal = f"a{size.lane - 1}"
    beat = tuple(f"h{i}" for i in range(1, size.patrol + 1))
    patrol_states = list(itertools.product(range(size.patrol), repeat=size.patrollers))
    states = [(c, ps) for c in range(len(cells)) for ps in patrol_states]
    names = ["_".join((cells[c],) + tuple(beat[p] for p in ps)) for c, ps in states]
    n = len(states)

    joint_actions = list(itertools.product(
        range(len(COURIER_ACTIONS)), *[range(len(PATROLLER_ACTIONS))] * size.patrollers))
    na = len(joint_actions)
    nz = 2 ** size.patrollers
    routes = _routes(size.lane)
    courier_k = [_courier_kernel(cells, routes[a], goal) for a in COURIER_ACTIONS]
    patroller_k = [_patroller_kernel(size.patrol, HOLD_MOVE if a == "hold" else SWEEP_MOVE)
                   for a in PATROLLER_ACTIONS]
    ping_a = _sensor(size.patrol)

    transition = np.zeros((n, na, n))
    reward = np.zeros((n, na))
    for q, (c, ps) in enumerate(states):
        for a, (ca, *pas) in enumerate(joint_actions):
            row = courier_k[ca][c]
            for p, pa in zip(ps, pas):
                row = np.kron(row, patroller_k[pa][p])
            transition[q, a] = row
            reward[q, a] = ACTION_BONUS[COURIER_ACTIONS[ca]] + (
                GOAL_BONUS if cells[c] == goal else 0.0)

    observation = np.zeros((n, na, nz))
    for q, (_, ps) in enumerate(states):
        dist = np.ones(1)
        for p in ps:
            dist = np.kron(dist, [ping_a[p], 1.0 - ping_a[p]])
        observation[q, :, :] = dist

    # Mostly at the dock, the rest spread along the safe lane up to the goal.
    lane_mass = 0.1 * (3 / (size.lane - 1))
    courier_start = {"h0": 0.7, **{f"a{i}": lane_mass for i in range(1, size.lane)}}
    initial = np.zeros(n)
    for q, (c, _) in enumerate(states):
        initial[q] = courier_start.get(cells[c], 0.0) / len(patrol_states)

    def at(cell: str) -> list[str]:
        return [names[q] for q, (c, _) in enumerate(states) if cells[c] == cell]

    near = [names[q] for q, (c, ps) in enumerate(states)
            if any(cells[c] == beat[p] for p in ps)]
    predicates = {
        "near_patroller": f"0.1 - {_sum_text(near)}",
        "near_debris": "min(" + ", ".join(
            f"0.1 - {_sum_text(at(f'h{i}'))}" for i in range(1, size.lane)) + ")",
        "at_goal": f"0.5 - {_sum_text(at(goal))}",
    }

    agents = ("courier",) + (("patroller",) if size.patrollers == 1 else
                             tuple(f"patroller{j + 1}" for j in range(size.patrollers)))
    model = Mpomdp(
        state_names=tuple(names),
        agent_names=agents,
        action_names=(COURIER_ACTIONS,) + (PATROLLER_ACTIONS,) * size.patrollers,
        observation_names=(("none",),) + (("ping_a", "ping_b"),) * size.patrollers,
        initial=Belief(initial),
        transition=transition,
        observation=observation,
        reward=reward,
    )
    return model, predicates


def lattice_config(size: LatticeSize, shield_mode: str, horizon: int,
                   episodes: int) -> ScenarioConfig:
    """The scenario with nominal policy shortcut + sweep for every
    patroller, the shipped formula and the shipped monitor settings."""
    model, texts = lattice_model(size)
    predicates = {name: parse_expr(text, model.state_index) for name, text in texts.items()}
    nominal = FixedAction(JointAction.from_components(
        (COURIER_ACTIONS.index("shortcut"),)
        + (PATROLLER_ACTIONS.index("sweep"),) * size.patrollers,
        model.action_radices).flat_index)
    return ScenarioConfig(
        name=f"lattice-{size.lane}x{size.patrol}x{size.patrollers}",
        model=model,
        predicates=predicates,
        formula=parse_formula(FORMULA, predicates, model.state_index),
        formula_text=FORMULA,
        monitor=MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.5),
                              ft=FtParams(rho=0.99, eps=0.1)),
        policy=nominal,
        shield_mode=shield_mode,
        horizon=horizon,
        episodes=episodes,
        seed=0,
    )
