"""Golden trace hashes: the exact bytes of seven corridor batches.

The hashes pin the simulator, filter, monitor and shield arithmetic bit
for bit, so a refactor that changes any recorded float, verdict or
decision fails here. A change that alters them on purpose must say why
in CHANGES.md and update the table.

The shipped formula has only `always` and `eventually` obligations, so
the `corridor_all_kinds_*` batches add an until, a next and a bare
propositional conjunct; their traces pin every obligation kind's
records, including the `inactive` records that follow a discharge.

Python 3.12 made `sum()` use compensated summation for floats, which
changes the barrier values the expression evaluator produces, so the
hashes (taken on Python 3.11) only hold before 3.12. They were taken
with numpy 2.4 and its bundled OpenBLAS on x86-64; the filter's matrix
products come from BLAS, so a BLAS whose kernels add in another order
also changes the last bits.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from beliefshield.config import load_config
from beliefshield.parsing import parse_expr, parse_formula
from beliefshield.sim import RandomUniform, run_batch
from beliefshield.traceio import write_traces

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPISODES = 20

GOLDEN = {
    "corridor":
        "674d79a59dfa6e5fc924cbb3f4ab82efa7b6d4d829e5d9c01e47afbb46d86492",
    "corridor_unshielded":
        "b936a8b5913bb4656356aea133bd647dd6cb06590803aef3544ec677be768729",
    "corridor_conservative":
        "e7027bb5c13f2abf0fd11012fb43dacd0d4b5f03ae11e91536109619753c97c4",
    "corridor_random":
        "1e968121cac549915979310dafea40ed168f4fe0b830149579db506031581d3a",
    "corridor_all_kinds_off":
        "e155a41a15c85ed9dc09cb619c07b28c9c5c642d432300ed54ba5882912c2f9f",
    "corridor_all_kinds_literal":
        "c05835cfef90e74ff51bc59db26d313c73b213cd579c291fbcb9337bae57a966",
    "corridor_all_kinds_conservative":
        "ecbabb949f2390147d67bfd5cd852f6058a9e20a2c529e05eece850bfbb55970",
}

ALL_KINDS_FORMULA = ("G !(near_patroller | near_debris) & F at_goal & clear U at_goal"
                     " & X !near_patroller & !near_debris")

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() uses compensated float summation from Python 3.12 on, "
           "so barrier values differ in the last bits from the 3.11 hashes",
)


def _scenario(name: str):
    if name == "corridor_unshielded":
        return load_config(CONFIGS / "corridor_unshielded.yaml")
    cfg = load_config(CONFIGS / "corridor.yaml")
    if name == "corridor_conservative":
        return replace(cfg, shield_mode="conservative")
    if name == "corridor_random":
        return replace(cfg, policy=RandomUniform())
    if name.startswith("corridor_all_kinds_"):
        states = {s: i for i, s in enumerate(cfg.model.state_names)}
        predicates = dict(cfg.predicates,
                          clear=parse_expr("b(h1_h1) + b(h2_h2) - 0.5", states))
        return replace(cfg, predicates=predicates, formula_text=ALL_KINDS_FORMULA,
                       formula=parse_formula(ALL_KINDS_FORMULA, predicates, states),
                       shield_mode=name.removeprefix("corridor_all_kinds_"))
    return cfg


def trace_sha256(name: str, tmp_path: Path) -> str:
    cfg = _scenario(name)
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=EPISODES)
    path = tmp_path / f"{name}.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden_hash(name, tmp_path):
    assert trace_sha256(name, tmp_path) == GOLDEN[name]
