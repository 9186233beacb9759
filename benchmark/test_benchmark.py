"""Tests of the benchmark itself: its checker, its metric names and its
result line. Run with ``python -m pytest benchmark`` from the repository
root; the full workloads are too slow for a test and are not run here."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import ops as ops_mod  # noqa: E402
import rdomkernel as rk  # noqa: E402
import run  # noqa: E402


def _planted(seed=3, hubs=2, r=1):
    n, edges = inputs.planted_hubs(inputs.rng_for(seed, "test"), hubs, r, (4, 6))
    g = rk.Graph(n, edges)
    return g, rk.kernelize(rk.DominationInstance(g, frozenset(range(n)), r, n), target=0)


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "benchmark/run.py"
    assert {w["name"] for w in spec["workloads"]} == set(ops_mod.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert "setup_s" in run.END_TO_END


def test_inputs_depend_on_the_seed_alone():
    for build in ops_mod.WORKLOADS.values():
        if build is ops_mod.sparse_default:
            continue  # 10^4-vertex inputs; same code path as measure
        assert build(7) == build(7)
    assert ops_mod.planted_shrink(7) != ops_mod.planted_shrink(8)
    sizes = {op.text.split("\n", 1)[0] for op in ops_mod.planted_shrink(7)}
    assert sizes == {op.text.split("\n", 1)[0] for op in ops_mod.planted_shrink(8)}


def test_checker_accepts_real_kernels_and_shrinks_them():
    for r in (1, 2):
        g, res = _planted(r=r)
        assert res.trace, "planted graphs must shrink at target 0"
        assert checks.check_kernel_result(rk, g, r, g.n, res) == []


def test_checker_rejects_tampered_steps():
    g, res = _planted()
    step = res.trace[0]
    outsider = next(v for v in range(g.n) if v not in step.exchange_class)
    bad_steps = [
        replace(step, removed=outsider),
        replace(step, exchange_class=step.exchange_class | {outsider}),
        replace(step, dominator=frozenset()),
        replace(step, closure=step.dominator - {min(step.dominator)}),
    ]
    for bad in bad_steps:
        tampered = replace(res, trace=(bad,) + res.trace[1:])
        assert checks.check_kernel_result(rk, g, 1, g.n, tampered), bad


def test_closure_postcondition_is_checked():
    star = rk.Graph(6, [(0, i) for i in range(1, 6)])
    assert checks.check_closure(star, frozenset({0}), 3, 2) == []
    assert checks.check_closure(star, frozenset({1, 2, 3}), 3, 4) == []
    assert checks.check_closure(star, frozenset({1, 2, 3}), 3, 3)  # the centre sees 3 leaves


def test_checker_rejects_tampered_kernels_and_witnesses():
    g, res = _planted()
    assert checks.check_kernel_result(rk, g, 1, g.n, replace(res, dominatees=res.dominatees - {min(res.dominatees)}))
    h = res.graph
    fewer = rk.Graph(h.n, list(h.edges())[1:])
    assert checks.check_kernel_result(rk, g, 1, g.n, replace(res, graph=fewer))
    path = rk.Graph(7, [(i, i + 1) for i in range(6)])
    assert checks.check_rejection(path, 1, 1, frozenset({0, 3, 6})) == []
    assert checks.check_rejection(path, 1, 1, frozenset({0, 2, 6}))  # 0 and 2 are 2 apart
    assert checks.check_rejection(path, 1, 3, frozenset({0, 3, 6}))  # not larger than k


def _tiny(seed):
    n, edges = inputs.planted_hubs(inputs.rng_for(seed, "tiny"), 2, 1, (4, 6))
    grid = inputs.edge_text(*inputs.grid(6, 6))
    k = inputs.grid_r1_infeasible_k(6, 6)
    kernel = {"k": None, "target": 0, "infeasible": False}
    return [
        ops_mod.Op("planted", "kernel", inputs.edge_text(n, edges), {"r": 1, **kernel}),
        ops_mod.Op("grid-k", "kernel", grid, {"r": 1, "k": k, "target": None, "infeasible": True}),
        ops_mod.Op("grid-wcol", "wcol", grid, {}),
        ops_mod.Op("grid-counters", "counters", grid, {"a": (0, 7, 14, 21)}),
        ops_mod.Op("grid-vc", "vc", grid, {"b": (0, 5, 30, 35)}),
    ]


def _main(monkeypatch, tmp_path, capsys, trace):
    monkeypatch.setitem(ops_mod.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(monkeypatch, tmp_path, capsys, trace):
    code, result = _main(monkeypatch, tmp_path, capsys, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    if trace:
        assert result["metrics"]["removed"]["value"] > 0
        assert result["metrics"]["reject_share"]["value"] == 1.0
        assert (tmp_path / "spans-tiny.bin").stat().st_size > 0


def test_failed_check_is_counted_and_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(checks, "check_op", lambda rk, op, res, seed: ["planted fault"] if op.name == "grid-vc" else [])
    code, result = _main(monkeypatch, tmp_path, capsys, 0)
    assert code == 1
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_share"]["value"] < 1


def test_output_digest_change_between_invocations_is_a_failure(monkeypatch, tmp_path, capsys):
    assert _main(monkeypatch, tmp_path, capsys, 0)[0] == 0
    store = json.loads((tmp_path / "digests.json").read_text())
    (tmp_path / "digests.json").write_text(json.dumps(dict.fromkeys(store, "0" * 64)))
    code, result = _main(monkeypatch, tmp_path, capsys, 0)
    assert code == 1 and result["failed"] == len(store)
