"""Tests of the benchmark itself: every workload runs at a tiny size, and
every oracle check rejects a corrupted output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from spans import Untraced  # noqa: E402

TINY = [workloads.Exhaustive(4), workloads.LargeSparse(300), workloads.LongStrip(200)]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _amflood_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "amflood" or k.startswith("amflood.")}


@pytest.fixture(autouse=True)
def _restore_amflood():
    # The benchmark re-imports amflood for every repetition; put back the
    # modules other tests in this process imported.
    saved = _amflood_modules()
    yield
    for name in _amflood_modules():
        del sys.modules[name]
    sys.modules.update(saved)


def _outputs(workload, seed: int = 3):
    inp = workload.make_input(seed)
    am, _ = run.fresh_amflood()
    return inp, workload.verdict(am, Untraced(), workload.setup(am, Untraced(), inp))


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_workload_runs_at_tiny_size(workload, trace):
    result, detail = run.run_workload(workload, seed=5, seconds=0.2, trace=bool(trace))
    assert detail["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 + trace
    section = "per_layer" if trace else "end_to_end"
    assert sorted(result["metrics"]) == sorted(m["name"] for m in BENCHMARK[section])
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_depend_only_on_seed():
    assert workloads.sparse_graph(7, 500, 8) == workloads.sparse_graph(7, 500, 8)
    assert workloads.sparse_graph(7, 500, 8) != workloads.sparse_graph(8, 500, 8)
    ladder = workloads.triangulated_ladder(7, 200)
    assert ladder == workloads.triangulated_ladder(7, 200)
    assert len(ladder.text.splitlines()) == 3 * 99 + 100


def test_double_cover_on_triangle_and_even_cycle():
    tri = oracle.adjacency(3, [(0, 1), (1, 2), (0, 2)])
    assert oracle.double_cover_layers(tri, 0) == [[0], [1, 2], [1, 2], [0]]
    c6 = oracle.adjacency(6, [(i, (i + 1) % 6) for i in range(6)])
    assert oracle.double_cover_layers(c6, 0) == [[0], [1, 5], [2, 4], [3]]


def test_exhaustive_oracle_matches_oeis():
    summary = oracle.exhaustive_summary(5)
    assert summary["per_n"] == {n: (oracle.CONNECTED[n], oracle.CONNECTED_BIPARTITE[n])
                                for n in range(2, 6)}
    assert summary["histogram"][0] == sum(n * oracle.CONNECTED_BIPARTITE[n]
                                          for n in range(2, 6))


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_clean_outputs_pass(workload):
    inp, texts = _outputs(workload)
    workload.check(inp, texts)


def test_rejects_node_moved_between_round_sets():
    w = TINY[1]
    inp, texts = _outputs(w)
    obj = json.loads(texts["trace"])
    node = obj["round_sets"][1].pop(0)
    obj["round_sets"][2] = sorted(obj["round_sets"][2] + [node])
    with pytest.raises(CheckFailed, match="round-set 1"):
        w.check(inp, {"trace": _canon(obj)})


def test_rejects_dropped_arc():
    w = TINY[1]
    inp, texts = _outputs(w)
    obj = json.loads(texts["trace"])
    obj["rounds"][2].pop(3)
    with pytest.raises(CheckFailed, match="round 3 sends"):
        w.check(inp, {"trace": _canon(obj)})


def test_rejects_changed_histogram_bucket():
    w = TINY[0]
    inp, texts = _outputs(w)
    for bucket in ("0", "2"):
        obj = json.loads(texts["summary"])
        obj["j_minus_e_histogram"][bucket] += 1
        with pytest.raises(CheckFailed):
            w.check(inp, {"summary": _canon(obj)})


def test_rejects_held_message_in_async_run():
    w = TINY[2]
    inp, texts = _outputs(w)
    obj = json.loads(texts["async"])
    rec = obj["rounds"][4]
    rec["held"] = [rec["delivered"].pop()]
    with pytest.raises(CheckFailed, match="round 5 holds"):
        w.check(inp, {**texts, "async": _canon(obj)})


def test_rejects_unstable_bytes():
    w = TINY[2]
    inp, texts = _outputs(w)
    with pytest.raises(CheckFailed, match="re-serialization"):
        w.check(inp, {**texts, "sync": json.dumps(json.loads(texts["sync"])) + "\n"})
    obj = json.loads(texts["sync"])
    obj["rounds"][0].reverse()
    with pytest.raises(CheckFailed, match="round 1 sends"):
        w.check(inp, {**texts, "sync": _canon(obj)})


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "long_strip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_counts_match_oeis():
    result, _ = run.run_workload(TINY[0], seed=1, seconds=0.1, trace=True)
    m = result["metrics"]
    assert m["analysis.graphs"]["value"] == sum(oracle.CONNECTED[n] for n in range(2, 5))
    assert m["sync_engine.runs"]["value"] == sum(n * oracle.CONNECTED[n] for n in range(2, 5))
