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
        "c807d0a0aaa005b0a07c5b296e5eeb80f6e5462241dbe78068c829ae62805c36",
    "corridor_unshielded":
        "08a31b51c510ac43de454bf8b8507bd25b9931f21a7fafeb6382002f197fff3d",
    "corridor_conservative":
        "23f267bea45dc759c90d02b6e30b06ef83addaa1179efd33b8383e198fabbbd6",
    "corridor_random":
        "406b209af45ef82768f1b21a0487ec1b08d57c417794d0d6fd672461337b1b9a",
    "corridor_all_kinds_off":
        "012a4c73b5be269efca3bc82069902f182873b6b2a4a3f927bd4b60b2d999091",
    "corridor_all_kinds_literal":
        "d53c74bf33319b94296940876573ff8c1d545b3e75a93a14f0f4b83b08ed1030",
    "corridor_all_kinds_conservative":
        "0f572887f86ad569976467f87c9c38a3ce6af814dc27706d2436f642ed140750",
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
