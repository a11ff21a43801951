"""Golden trace hashes: the exact bytes of seven corridor batches, and
the decisions of the five shielded ones.

The byte hashes pin the simulator, filter, monitor and shield arithmetic
bit for bit, so a refactor that changes any recorded float, verdict or
decision fails here. A change that alters them on purpose must say why
in CHANGES.md and update the table.

The shipped formula has only `always` and `eventually` obligations, so
the `corridor_all_kinds_*` batches add an until, a next and a bare
propositional conjunct; their traces pin every obligation kind's
records, including the `inactive` records that follow a discharge.

Python 3.12 made `sum()` use compensated summation for floats, which
changes the barrier values the expression evaluator produces, so the
hashes (taken on Python 3.11) only hold before 3.12. The filter's
matrix products come from BLAS, and OpenBLAS picks its kernel for the
CPU at run time; kernels add in different orders, so the byte hashes
pin that kernel (taken with numpy 2.4's bundled OpenBLAS on its AVX-512
kernel), not only the library. `OPENBLAS_CORETYPE=Haswell` forces the
AVX2 kernel, under which the byte hashes fail.

The decision hashes cover only each step's nominal and executed
actions, its override flag and its verdict statuses, which do not
depend on those last bits: candidates whose rewards differ only in
them fall within the shield's tie band. They hold under the default
kernel and under `OPENBLAS_CORETYPE` set to Haswell, Zen, Sandybridge,
Nehalem or Prescott, and CI runs them under Haswell.
"""

from __future__ import annotations

import hashlib
import json
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
        "287032071f4755a6231e88734525632bc7e2790ead5808ddf55a0be779e9e592",
    "corridor_unshielded":
        "b936a8b5913bb4656356aea133bd647dd6cb06590803aef3544ec677be768729",
    "corridor_conservative":
        "dd3f89f9c3cd2f570b772159bd10f7adb4aa9af0ac2d333ba3e8d63ca5c3f906",
    "corridor_random":
        "5cf5755977e9aec2bba163853b989cdc44e319db87fa5fc5813633f1ee54408c",
    "corridor_all_kinds_off":
        "e155a41a15c85ed9dc09cb619c07b28c9c5c642d432300ed54ba5882912c2f9f",
    "corridor_all_kinds_literal":
        "ab9d224b59b16fecabdb87fe4e7df005e2fcb6b6012bc94aa31a18ed83b11eec",
    "corridor_all_kinds_conservative":
        "22b4bebeade0111b391349e4fa6ac35666fc1aa5cb04ff1cc9c086c8a8a22b9e",
}

# The shielded batches' decisions: see decisions_sha256.
GOLDEN_DECISIONS = {
    "corridor":
        "2391bf3f92ca8006ba7e0f5b2a16d8325d2ea238b7ea33f28a6cb61882f2c6a1",
    "corridor_conservative":
        "2391bf3f92ca8006ba7e0f5b2a16d8325d2ea238b7ea33f28a6cb61882f2c6a1",
    "corridor_random":
        "e1f2f149c8742f89a5dc2ed0447f53347d1b8fe572e059fa7cb1eb774d2212e2",
    "corridor_all_kinds_literal":
        "b8bc6fa5e6114b64baa4d3be426bccba02c2e8ec0f8b5b2a8e0ab3722b4a31e6",
    "corridor_all_kinds_conservative":
        "b8bc6fa5e6114b64baa4d3be426bccba02c2e8ec0f8b5b2a8e0ab3722b4a31e6",
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


def _batch(name: str):
    cfg = _scenario(name)
    return cfg, run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=EPISODES)


def trace_sha256(name: str, tmp_path: Path) -> str:
    cfg, result = _batch(name)
    path = tmp_path / f"{name}.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def decisions_sha256(name: str) -> str:
    """The hash of one JSON line per step: episode, step, nominal and
    executed actions, override flag and each verdict record's status."""
    _, result = _batch(name)
    lines = [json.dumps([t.episode, s.step, s.nominal, s.executed, s.overridden,
                         [r.status for r in s.verdict.records]]) + "\n"
             for t in result.traces for s in t.steps]
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_bytes_match_golden_hash(name, tmp_path):
    assert trace_sha256(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DECISIONS))
def test_decisions_match_golden_hash(name):
    assert decisions_sha256(name) == GOLDEN_DECISIONS[name]
