"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, aggregate, self_times  # noqa: E402

prog = workloads.import_program()


def synthetic(tracer, spans):
    """Fill a tracer with (name, parent, start, end) spans."""
    for name, parent, start, end in spans:
        tracer.name_id.append(tracer._intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.op.append(0)
    return tracer


def test_self_time_is_span_minus_children():
    # op [0, 10] > a [1, 6] > b [2, 4];  op > c [7, 9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 4.0, 9.0]
    assert self_times(parent, start, end) == [3.0, 3.0, 2.0, 2.0]
    # self times of all spans add up to the root's wall time
    assert sum(self_times(parent, start, end)) == 10.0


def test_aggregate_counts_reentrant_names_once_inclusive():
    tracer = synthetic(Tracer(), [
        ("op", -1, 0.0, 10.0),
        ("pb.f", 0, 1.0, 9.0),
        ("pb.f", 1, 2.0, 5.0),   # f calling itself
        ("hl.g", 1, 6.0, 8.0),
    ])
    stats = aggregate(tracer)
    assert stats["pb.f"]["calls"] == 2
    assert stats["pb.f"]["incl_s"] == 8.0
    assert stats["pb.f"]["self_s"] == (8.0 - 3.0 - 2.0) + 3.0
    assert stats["hl.g"]["self_s"] == 2.0
    assert stats["op"]["self_s"] == 2.0


@pytest.mark.parametrize("make", [
    inputs.poly_hik_inputs, inputs.fine_k0_inputs, inputs.study_inputs,
])
def test_element_counts_do_not_depend_on_seed(make):
    a, b = make(1, 0), make(2, 0)
    assert a != b
    counts = lambda texts: [prog.mesh.load_mesh(t).n_elements for t in texts]
    assert counts(a) == counts(b)


def test_inputs_are_reproducible():
    assert inputs.poly_hik_inputs(5, 3) == inputs.poly_hik_inputs(5, 3)
    assert inputs.poly_hik_inputs(5, 3) != inputs.poly_hik_inputs(5, 4)


def test_generated_texts_load():
    poly = prog.mesh.load_mesh(inputs.poly_hik_inputs(3, 0)[0])
    assert poly.n_elements == 289
    assert 4 == min(el.n_faces for el in poly.elements)
    assert max(el.n_faces for el in poly.elements) > 6

    fine = prog.mesh.load_mesh(inputs.fine_k0_inputs(3, 0)[0])
    assert fine.n_elements == 32 * 32
    grid = np.stack(np.meshgrid(np.arange(33), np.arange(33)), -1).reshape(-1, 2)
    moved = np.linalg.norm(fine.vertices - grid / 32, axis=1)
    assert 0 < moved.max() <= 0.15 / 32

    study = [prog.mesh.load_mesh(t) for t in inputs.study_inputs(3, 0)]
    assert [m.n_elements for m in study] == [28, 112, 448]
    prog.mesh.MeshFamily(tag="nonconforming", meshes=study)
    assert all(m.total_area == pytest.approx(1.0) for m in study)


def test_install_records_nested_spans_and_restores():
    original = prog.assembly.build_local_operators
    tracer = Tracer()
    text = inputs.tiny_inputs(0)[0]
    with tracer.install(vars(prog), layers.OBSERVERS):
        with tracer.span("op"):
            workloads.solve_op(prog, [text], 1)
    assert prog.assembly.build_local_operators is original
    names = [tracer.names[i] for i in tracer.name_id]
    assert names[0] == "op"
    ops = names.index("hho_local.local_operators")
    assert names[tracer.parent[ops]] == "assembly.build_local_operators"
    mesh = prog.mesh.load_mesh(text)
    assert tracer.counters["mesh.elements"] == mesh.n_elements
    stats = aggregate(tracer)
    layer_self = sum(s["self_s"] for s in stats.values())
    assert layer_self == pytest.approx(stats["op"]["incl_s"], rel=1e-9)


def test_checks_flag_bad_outputs():
    system, solution, info = workloads.solve_op(prog, inputs.tiny_inputs(0)[2:], 1)
    assert workloads.check_solve((system, solution, info), 1.0).problems == []
    solution.data *= 2.0
    assert workloads.check_solve((system, solution, info), 1e-2).problems


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_poly_hik",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_prints_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "solve_poly_hik",
         "--seed", "4", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
