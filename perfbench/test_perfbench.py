"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

CHEAP_ENTRIES = ("tm1d", "tm2d", "tm3d", "cyc3", "rig3", "cyc4r", "exact4")


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return bench.Runner(tmp_path_factory.mktemp("inputs"))


def _run_one(runner, op, pins=None):
    runner.prepare([op])
    rc, out, err, _ = runner.execute(op)
    wl.check(op, rc, out, err, pins or runner.pins)
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_op_list_and_inputs(runner, workload):
    first = wl.build_pass(workload, wl.DEFAULT_SEED)
    again = wl.build_pass(workload, wl.DEFAULT_SEED)
    wl.fill_inputs(first, runner.rob)
    wl.fill_inputs(again, runner.rob)
    assert wl.ops_digest(first) == wl.ops_digest(again)
    assert wl.ops_digest(first) == runner.pins["default_seed"][workload]["ops_digest"]
    other = wl.build_pass(workload, wl.DEFAULT_SEED + 1)
    wl.fill_inputs(other, runner.rob)
    assert wl.ops_digest(other) != wl.ops_digest(first)
    assert sorted(op.kind for op in other) == sorted(op.kind for op in first)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_conjugated_copies_keep_pinned_invariants(runner, seed):
    ops = [op for op in wl.build_pass("symmetry", seed) if op.params["entry"] in CHEAP_ENTRIES]
    runner.prepare(ops)
    records = runner.run_pass(ops)
    assert [r.note for r in records if not r.ok] == []


def test_conjugation_round_trips():
    spec = wl.catalogue_spec("rig3")
    sigma, sigma_inv = (2, 0, 1), (1, 2, 0)
    b = ((0,), (1,))  # the reversal, its own inverse
    image = ref.conjugate_spec(spec, sigma, b, "x")
    assert ref.rule_tables(image) != ref.rule_tables(spec)
    assert ref.rule_tables(ref.conjugate_spec(image, sigma_inv, b, "x")) == ref.rule_tables(spec)
    a = ((1, 0), (0, 1))
    assert ref.sp_compose(a, ref.sp_inverse(a)) == ((0, 1), (0, 0))
    assert ref.sp_parse(ref.sp_text(a)) == a


def _first(workload, kind):
    return next(op for op in wl.build_pass(workload, wl.DEFAULT_SEED) if op.kind == kind)


def test_wrong_pinned_invariant_fails_the_check(runner):
    op = next(op for op in wl.build_pass("symmetry", wl.DEFAULT_SEED)
              if op.kind == "aut" and op.params["entry"] == "cyc3")
    _run_one(runner, op)
    bad = copy.deepcopy(runner.pins)
    bad["catalogue"]["cyc3"]["relabel_group"].pop()
    with pytest.raises(wl.CheckFailed):
        _run_one(runner, op, bad)

    op = next(op for op in wl.build_pass("symmetry", wl.DEFAULT_SEED)
              if op.kind == "sym" and op.params["entry"] == "rig3")
    _run_one(runner, op)
    bad = copy.deepcopy(runner.pins)
    matrices = bad["catalogue"]["rig3"]["matrices"]
    matrices["-;1"]["verdict"] = "ExactYes"
    with pytest.raises(wl.CheckFailed):
        _run_one(runner, op, bad)

    op = _first("robinson", "torus")
    bad = copy.deepcopy(runner.pins)
    bad["robinson"]["torus"][f"{op.params['w']}x{op.params['h']}"] += 1
    with pytest.raises(wl.CheckFailed):
        _run_one(runner, op, bad)


def test_reference_catches_a_wrong_window(runner):
    op = _first("materialize", "point")
    _run_one(runner, op)
    op.params = dict(op.params, shift=[v + 1 for v in op.params["shift"]])
    with pytest.raises(wl.CheckFailed):
        _run_one(runner, op)


def test_misplaced_threads_flag_is_a_failure(runner):
    op = next(op for op in wl.build_pass("symmetry", wl.DEFAULT_SEED)
              if op.kind == "sym" and op.params["entry"] == "tm1d")
    op.argv = [a for a in op.argv if a not in ("--threads", "2")]
    op.argv = op.argv[:1] + ["--threads", "2"] + op.argv[1:]
    with pytest.raises(wl.CheckFailed, match="exit 2"):
        _run_one(runner, op)


def test_injected_swap_breaks_rule_three(runner):
    text = wl.make_verify_text(runner.rob, wl.verify_source_key("supertile", 5, "NE", 3))
    for fracs in ([0.0, 0.0], [0.5, 0.99], [0.99, 0.3]):
        patch = runner.rob.load_patch_text(wl.inject_swap(text, fracs))
        kinds = {v.kind for v in runner.rob.verify_patch(patch)}
        assert {"coset_not_cross", "stray_cross"} <= kinds


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_runs_every_op_kind(runner, workload):
    result = bench.smoke_run(runner, workload, wl.DEFAULT_SEED)
    assert result["notes"] == [] and result["correct"]
    assert set(result["kinds"]) == {op.kind for op in wl.build_pass(workload, wl.DEFAULT_SEED)}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_keeps_stdout_and_fills_layers(runner, workload):
    ops = list({op.kind: op for op in wl.build_pass(workload, wl.DEFAULT_SEED)
                if op.params.get("entry") != "cyc6r"}.values())
    runner.prepare(ops)
    plain = runner.run_pass(ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    assert [r.stdout_digest for r in plain] == [r.stdout_digest for r in traced]
    assert all(r.ok for r in plain + traced)
    metrics = layer_metrics(tracer)
    assert metrics["cli.main.self_s"][0] > 0
    busy = {
        "symmetry": "symmetry.transformed_substitution.calls",
        "materialize": "points.symbol_at.calls",
        "robinson": "robinson.verify_patch.cells",
    }[workload]
    assert metrics[busy][0] > 0
    # wrappers are gone again
    assert runner.cli.main.__module__ == "subsym.cli" and not hasattr(runner.cli.main, "__wrapped__")


def test_self_time_subtracts_parallel_children():
    tracer = Tracer()
    from tracer import Span

    parent = Span("p", "symmetry", 0.0, None, 0)
    parent.end = 10.0
    a = Span("a", "substitution", 1.0, parent, 0)
    a.end = 5.0
    b = Span("b", "substitution", 3.0, parent, 0)
    b.end = 7.0
    tracer.spans = [parent, a, b]
    st = tracer.self_times()
    assert st["p"] == pytest.approx(4.0)
    assert st["a"] == pytest.approx(4.0) and st["b"] == pytest.approx(4.0)


def test_without_src_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "robinson", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"][1] == f"{HERE.name}/run.py"
    tracer = Tracer()
    per_layer = set(layer_metrics(tracer)) | {"trace.overhead_ratio", "trace.spans"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb", "setup_s"}
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)
