"""Tests of the benchmark itself.

Run from the root of a checkout: python3 -m pytest -q perfbench

The kernel counters are the numbers later changes may rest a claim on,
so two traced passes of the same ops must give identical counts, and
the counts must agree with what the program reports in ``stats.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

KERNEL_COUNTS = (
    "kernel.nodes",
    "kernel.identity_prunes",
    "kernel.iso_prunes",
    "kernel.leaves",
    "kernel.canonical",
    "kernel.subtrees",
    "kernel.canon_calls",
)


@pytest.fixture(scope="module")
def staged():
    stage, _ = bench.stage_and_build(ROOT)
    env = bench.program_env(stage)
    sys.path.insert(0, str(stage / "src"))
    return stage, env


def test_kernel_counts_repeat_exactly(staged, tmp_path):
    stage, env = staged
    run = bench.Run("hunt", stage, env, "default", tmp_path, {}, tmp_path / "ops", time.monotonic() + 600)
    passes = [run.run_pass(traced=True) for _ in range(2)]
    for results in passes:
        assert [p for r in results for p in r.problems] == []
    first, second = (bench.layer_counts(results) for results in passes)
    assert {k: first[k] for k in KERNEL_COUNTS} == {k: second[k] for k in KERNEL_COUNTS}
    reported = sum(r.report["search"]["nodes"] for r in passes[0] if r.kind != "verify")
    assert first["kernel.nodes"] == reported > 0


def test_self_time_subtracts_children():
    spans = [
        ["cli", 0.0, 10.0, -1, None],
        ["engine", 1.0, 9.0, 0, None],
        ["kernel.search.run", 2.0, 6.0, 1, {"nodes": 5, "leaves": 1}],
        ["table.build", 6.0, 7.0, 1, None],
        ["table.build", 6.2, 6.8, 3, None],
    ]
    counts = bench.layer_counts([bench.OpResult("enumerate", 10.0, 0, [], trace=spans)])
    assert counts["cli.self_s"] == pytest.approx(2.0)
    assert counts["engine.self_s"] == pytest.approx(3.0)
    assert counts["kernel.search_s"] == pytest.approx(4.0)
    assert counts["kernel.nodes"] == 5
    assert counts["kernel.subtrees"] == 1
    assert counts["table.build_s"] == pytest.approx(1.0)
    assert counts["table.build_calls"] == 1


def test_corpus_left_bol_flags(staged):
    import inputs
    from bolforge.props import is_left_bol

    sources, _ = inputs.corpus_sources()
    assert [flag for _, _, flag in sources] == [is_left_bol(t).holds for _, t, _ in sources]
