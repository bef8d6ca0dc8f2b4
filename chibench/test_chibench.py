"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest -q chibench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
from chibound import corpus, solvers  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

NAMES = sorted(WORKLOADS)
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return WORKLOADS[name](seed=3, tiny=True)


def test_contract_names_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in CONTRACT["workloads"])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name):
    result = measure.measure(tiny(name), seconds=0, trace=False)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted >= 1
    metrics, raw = measure.end_to_end(result)
    assert list(metrics) == [m["name"] for m in CONTRACT["end_to_end"]]
    assert all(value > 0 for value, _, _ in (metrics | raw).values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    result = measure.measure(tiny(name), seconds=0, trace=True)
    assert result.correct, result.problems
    metrics = measure.per_layer(result)
    assert sorted(metrics) == sorted(m["name"] for m in CONTRACT["per_layer"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_digests_are_equal(name):
    workload = tiny(name)
    plain = measure.run_rep(workload, 0, validate=True)
    traced = measure.run_traced(workload, 0)
    assert traced.records == plain.records
    assert digest(workload.digest_lines(plain.items, traced.records)) == digest(
        workload.digest_lines(plain.items, plain.records)
    )


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_exactly(name):
    workload = tiny(name)
    first, second = measure.run_traced(workload, 1), measure.run_traced(workload, 2)
    assert first.tracer.counts() == second.tracer.counts()


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_sum_to_traced_wall(name):
    rep = measure.run_traced(tiny(name), 0)
    layers = rep.tracer.layer_self()
    assert set(layers) == {"corpus", "patterns", "solvers", "graph", "structures", "bounds", "driver"}
    assert abs(sum(layers.values()) - rep.wall_s) <= measure.SUM_TOLERANCE * rep.wall_s


def test_tracing_is_removed_afterwards():
    def snapshot():
        return {
            (name, attr): getattr(module, attr)
            for name, module in sys.modules.items() if name.startswith("chibound")
            for attr in dir(module)
        }

    before = snapshot()
    measure.run_traced(tiny("balloon-cutset"), 0)
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_broken_witness_is_counted_as_failed(monkeypatch):
    real = solvers.clique_number
    monkeypatch.setattr(solvers, "clique_number", lambda g: (real(g)[0], frozenset()))
    result = measure.measure(tiny("enum-all"), seconds=0, trace=False)
    assert not result.correct
    assert result.failed > 0


@pytest.mark.parametrize("name", ["chi-dense", "balloon-cutset"])
def test_pool_is_the_named_chibound_corpus(name):
    workload = WORKLOADS[name](seed=3)
    for block in workload.blocks[:2]:
        graphs = corpus.enumerate_graphs(corpus.parse_corpus_spec(block.spec()))
        assert [g.adj for g in graphs] == list(block.rows())


def test_seed_and_repetition_change_labels_not_classes():
    a, b = WORKLOADS["chi-dense"](seed=1), WORKLOADS["chi-dense"](seed=2)
    lines = [[i.line for i in w.inputs(rep)] for w in (a, b) for rep in (0, 1)]
    assert len({tuple(x) for x in lines}) == 4
    assert [i.pool for i in a.inputs(0)] == [i.pool for i in b.inputs(1)]
    assert lines[0] == [i.line for i in WORKLOADS["chi-dense"](seed=1).inputs(0)]


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "enum-all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
