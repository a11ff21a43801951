"""Golden audit-report hashes: the audit of each golden trace batch.

Each hash covers the `repr` of every EpisodeAudit the audit reports for
one batch of tests/test_golden.py, written to a trace file and read
back: the per-obligation clean, discharged and oracle columns, the
largest belief error and the verdict mismatches. They pin the replay,
the verdict comparison and the finite-trace oracle together, so an
audit rewrite that changes any verdict, flag or reported error fails
here. The hashes were taken with the tree-walking `evaluate_expr`
oracle.

Like the trace hashes, these were taken on Python 3.11 and are skipped
on 3.12 and later, where they are unverified.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from test_golden import EPISODES, GOLDEN, _scenario

from beliefshield.audit import audit_traces
from beliefshield.sim import run_batch
from beliefshield.traceio import read_traces, write_traces

GOLDEN_AUDIT = {
    "corridor":
        "bdd3de892dd2e7fab63dd76198a824c8d8f69f1b6047d7b5cfbe40a8c4047c59",
    "corridor_unshielded":
        "4f2d6b006b2db7cf0ff3f1ee166231e47e42e25ec0ee800897df440d253ff2b4",
    "corridor_conservative":
        "bdd3de892dd2e7fab63dd76198a824c8d8f69f1b6047d7b5cfbe40a8c4047c59",
    "corridor_random":
        "bdd3de892dd2e7fab63dd76198a824c8d8f69f1b6047d7b5cfbe40a8c4047c59",
    "corridor_all_kinds_off":
        "1823be7f8773012beb1ba320fd471cf48f32b03a8152fa978cbf88c30d5f8d9f",
    "corridor_all_kinds_literal":
        "729093fb49ac4a22bd5cd73004d7cacee7bcc9dffdf6886954f3b216cf592e7c",
    "corridor_all_kinds_conservative":
        "729093fb49ac4a22bd5cd73004d7cacee7bcc9dffdf6886954f3b216cf592e7c",
    "corridor_deadlock_literal":
        "e389f3fa5eb4b07f7fa2334b6e41495f904a85467eca59068c63fc4f7256f93f",
    "corridor_deadlock_conservative":
        "e389f3fa5eb4b07f7fa2334b6e41495f904a85467eca59068c63fc4f7256f93f",
}

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="the hashes were taken on Python 3.11 and are unverified on 3.12 and later",
)


def audit_sha256(name: str, tmp_path: Path) -> str:
    cfg = _scenario(name)
    result = run_batch(cfg.to_scenario(), base_seed=cfg.seed, episodes=EPISODES)
    path = tmp_path / f"{name}.trace.jsonl"
    write_traces(result, path, cfg.name, cfg.shield_mode, cfg.horizon)
    report = audit_traces(cfg, read_traces(path))
    text = "\n".join(repr(ep) for ep in report.episodes)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_audit_report_matches_golden_hash(name, tmp_path):
    assert audit_sha256(name, tmp_path) == GOLDEN_AUDIT[name]
