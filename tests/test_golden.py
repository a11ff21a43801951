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

The filter, the shield and the monitor add in fixed orders: predictions
sum each action's transition entries in ascending source state, rewards
and normalizers are numpy sums over one contiguous vector, and
generated barrier sums fold left to right from 0.0. No BLAS product
enters a trace, so the byte hashes hold under every OpenBLAS kernel
tried: the default, which was the AVX-512 one on the x86-64 machine that
took them, and `OPENBLAS_CORETYPE` set to Haswell, Zen, Sandybridge,
Nehalem or Prescott; and with numpy's AVX2 and AVX-512 loops disabled
through `NPY_DISABLE_CPU_FEATURES`. They were re-baselined when the
prediction left BLAS, and last when trace version 3 wrote each step as
a positional array and the obligations once per header; the steps'
content, every decision and every audit report stayed as they were.

Python 3.12 made the builtin `sum()` use compensated summation for
floats. The generated evaluators no longer call it, but the hashes were
taken on Python 3.11 and have not been checked on 3.12, so they are
skipped there.

The decision hashes cover only each step's nominal and executed
actions, its override flag and its verdict statuses. They are kept
beside the byte hashes because a change that moves last bits on
purpose must still leave them unedited: candidates whose rewards differ
only in last bits fall within the shield's tie band.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import beliefshield
from beliefshield.config import load_config
from beliefshield.parsing import parse_expr, parse_formula
from beliefshield.sim import RandomUniform, run_batch
from beliefshield.traceio import write_traces

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPISODES = 20

GOLDEN = {
    "corridor":
        "de74257a839bff3c33e128642524b4f6e02b3fd0a0549a4d2cae352c0082ebcb",
    "corridor_unshielded":
        "edf04ccff5847e3f8ef8afade3a733bda81db423c72677123f4707848ba0b97d",
    "corridor_conservative":
        "caf576a9ee392e445aff1419090aa65b9e10bd8a831952a460fad25ee36deb98",
    "corridor_random":
        "396f310481285abbdf186cad2ec146183584a9a4df35cd507e9833b89ea782dc",
    "corridor_all_kinds_off":
        "ddb65fa650241aca00293d35ac33ec837c4988d5e9214e966af7c3da7523a7c6",
    "corridor_all_kinds_literal":
        "23fe665666681a66bd45c87340b35ff000361bc2c603f458c10607b0e485a27e",
    "corridor_all_kinds_conservative":
        "d92f287e59666c72af38a5f8d3ee8cbd1a868890a5991cc3227316f3df495e9e",
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
    reason="the hashes were taken on Python 3.11 and are unverified on 3.12 and later",
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


# Writes the batch named argv[1] into the directory argv[2] and prints its
# hash, in a fresh interpreter, where OpenBLAS reads OPENBLAS_CORETYPE.
_WRITE_BATCH = ("import sys; from pathlib import Path; from test_golden import trace_sha256; "
                "print(trace_sha256(sys.argv[1], Path(sys.argv[2])))")


def test_trace_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(beliefshield.__file__).resolve().parents[1]), str(Path(__file__).parent)])
    written = {}
    for kernel in ("", "Haswell", "Prescott"):
        out = tmp_path / (kernel or "default")
        out.mkdir()
        run = subprocess.run(
            [sys.executable, "-c", _WRITE_BATCH, "corridor", str(out)],
            env=dict(env, OPENBLAS_CORETYPE=kernel) if kernel else env,
            capture_output=True, text=True, check=True)
        assert run.stdout.strip() == GOLDEN["corridor"], kernel
        written[kernel] = (out / "corridor.trace.jsonl").read_bytes()
    assert written["Haswell"] == written[""]
    assert written["Prescott"] == written[""]
