"""Built-in corridor delivery scenario.

A courier crosses a two-lane grid. The safe lane runs a0 -> a1 -> a2 ->
a3 (the goal, absorbing); the parallel hallway h0 -> h1 -> h2 -> h3 is
shorter but littered with debris (h1..h3) and patrolled by a second
robot that roams between h1 and h2. The courier has no sensor of its
own; the patroller carries a noisy position sensor (ping_a / ping_b,
75% correct). Joint states are named "<courier>_<patroller>".

Courier actions (move succeeds with 0.85, otherwise stay put):
    follow_route   climb to the safe lane and advance along it
    return_home    walk back toward the dock h0
    shortcut       dive into the hallway and cut across to the goal

Patroller actions: hold (swap cells with 0.05) and sweep (swap with
0.9). Reward pays a per-step bonus for bolder courier actions plus a
bonus for sitting on the goal, so the nominal fixed policy (shortcut +
sweep) is the greedy but unsafe choice.

The formula keeps the belief clear of patroller and debris risk while
requiring the goal belief to reach 0.5:

    G !(near_patroller | near_debris) & F at_goal

Run `python -m beliefshield.presets [outdir]` to regenerate the shipped
YAML files (shielded and unshielded variants).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from .barrier import FtParams, LinearAlpha
from .config import ScenarioConfig, write_config
from .model import Belief, Mpomdp, joint_labels
from .monitor import MonitorConfig
from .parsing import parse_expr, parse_formula
from .sim import FixedAction

COURIER_CELLS = ("a0", "a1", "a2", "a3", "h0", "h1", "h2", "h3")
PATROLLER_CELLS = ("h1", "h2")
GOAL = "a3"

COURIER_ACTIONS = ("follow_route", "return_home", "shortcut")
PATROLLER_ACTIONS = ("hold", "sweep")

MOVE_SUCCESS = 0.85
SENSOR_CORRECT = 0.75

# Destination per courier action; cells not listed stay put.
ROUTES = {
    "follow_route": {"h0": "a0", "h1": "a1", "h2": "a2", "h3": "a3",
                     "a0": "a1", "a1": "a2", "a2": "a3"},
    "return_home": {"h1": "h0", "h2": "h1", "h3": "h2",
                    "a0": "h0", "a1": "a0", "a2": "a1"},
    "shortcut": {"h0": "h1", "h1": "h2", "h2": "h3", "h3": "a3",
                 "a0": "h1", "a1": "h2", "a2": "h3"},
}

ACTION_BONUS = {"follow_route": 0.5, "return_home": 0.0, "shortcut": 1.0}
GOAL_BONUS = 2.0

# Courier start: mostly at the dock, some mass already along the lane.
COURIER_START = {"h0": 0.7, "a1": 0.1, "a2": 0.1, "a3": 0.1}

PREDICATES = {
    "near_patroller": "0.1 - (b(h1_h1) + b(h2_h2))",
    # Tightest debris clearance; negative once any cell's mass tops 0.1.
    "near_debris": ("min(0.1 - (b(h1_h1) + b(h1_h2)), "
                    "0.1 - (b(h2_h1) + b(h2_h2)), "
                    "0.1 - (b(h3_h1) + b(h3_h2)))"),
    "at_goal": "0.5 - (b(a3_h1) + b(a3_h2))",
}

FORMULA = "G !(near_patroller | near_debris) & F at_goal"


def _courier_kernel(action: str) -> np.ndarray:
    k = np.zeros((len(COURIER_CELLS), len(COURIER_CELLS)))
    for i, cell in enumerate(COURIER_CELLS):
        if cell == GOAL:
            k[i, i] = 1.0  # goal is absorbing under every action
            continue
        dest = ROUTES[action].get(cell, cell)
        if dest == cell:
            k[i, i] = 1.0
        else:
            k[i, COURIER_CELLS.index(dest)] = MOVE_SUCCESS
            k[i, i] = 1.0 - MOVE_SUCCESS
    return k


def _patroller_kernel(action: str) -> np.ndarray:
    swap = 0.05 if action == "hold" else 0.9
    return np.array([[1.0 - swap, swap], [swap, 1.0 - swap]])


def corridor_model() -> Mpomdp:
    states = tuple(f"{c}_{p}" for c, p in joint_labels((COURIER_CELLS, PATROLLER_CELLS)))
    actions = joint_labels((COURIER_ACTIONS, PATROLLER_ACTIONS))
    n, na = len(states), len(actions)

    courier_k = {a: _courier_kernel(a) for a in COURIER_ACTIONS}
    patroller_k = {a: _patroller_kernel(a) for a in PATROLLER_ACTIONS}

    transition = np.zeros((n, na, n))
    observation = np.zeros((n, na, 2))
    reward = np.zeros((n, na))
    initial = np.zeros(n)
    for q, (ci, pi) in enumerate(joint_labels((range(len(COURIER_CELLS)),
                                               range(len(PATROLLER_CELLS))))):
        cell = COURIER_CELLS[ci]
        for a, (ca, pa) in enumerate(actions):
            # np.kron lists the joint successors in the same order.
            transition[q, a] = np.kron(courier_k[ca][ci], patroller_k[pa][pi])
            reward[q, a] = ACTION_BONUS[ca] + (GOAL_BONUS if cell == GOAL else 0.0)
        # Sensor reads the patroller's cell; ping_a means h1.
        p_ping_a = SENSOR_CORRECT if PATROLLER_CELLS[pi] == "h1" else 1.0 - SENSOR_CORRECT
        observation[q, :, 0] = p_ping_a
        observation[q, :, 1] = 1.0 - p_ping_a
        initial[q] = COURIER_START.get(cell, 0.0) / len(PATROLLER_CELLS)

    return Mpomdp(
        state_names=states,
        agent_names=("courier", "patroller"),
        action_names=(COURIER_ACTIONS, PATROLLER_ACTIONS),
        observation_names=(("none",), ("ping_a", "ping_b")),
        initial=Belief(initial),
        transition=transition,
        observation=observation,
        reward=reward,
    )


def corridor_config(shield_mode: str = "literal") -> ScenarioConfig:
    """The corridor scenario; pass shield_mode="off" for the unshielded
    baseline that runs the nominal policy unprotected."""
    model = corridor_model()
    predicates = {name: parse_expr(text, model.state_index)
                  for name, text in PREDICATES.items()}
    formula = parse_formula(FORMULA, predicates, model.state_index)
    nominal = FixedAction(model.action_labels.index(("shortcut", "sweep")))
    return ScenarioConfig(
        name="corridor" if shield_mode != "off" else "corridor_unshielded",
        model=model,
        predicates=predicates,
        formula=formula,
        formula_text=FORMULA,
        monitor=MonitorConfig(delta=1e-3, alpha=LinearAlpha(0.5),
                              ft=FtParams(rho=0.99, eps=0.1)),
        policy=nominal,
        shield_mode=shield_mode,
        horizon=200,
        episodes=100,
        seed=7,
    )


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    outdir = Path(args[0]) if args else Path("configs")
    outdir.mkdir(parents=True, exist_ok=True)
    for mode, stem in (("literal", "corridor"), ("off", "corridor_unshielded")):
        path = outdir / f"{stem}.yaml"
        write_config(corridor_config(mode), path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
