"""Smoke tests of the benchmark harness itself (not of qmcecon).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer  # noqa: E402


def test_self_time_of_nested_spans():
    tracer = Tracer()
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]
    tracer.spans += [Span("m.root", 0.0, None, 10.0), Span("m.a", 1.0, 0, 4.0),
                     Span("m.b", 5.0, 0, 9.0), Span("m.c", 6.0, 2, 8.0)]
    assert tracer.self_times() == [3.0, 3.0, 2.0, 2.0]
    summary = tracer.summary()
    assert summary["m.b"] == {"calls": 1, "self_s": 2.0}
    assert tracer.summary(2)["m.c"] == {"calls": 1, "self_s": 2.0}
    assert "m.root" not in tracer.summary(1)
    assert tracer.top_level_seconds() == 10.0
    assert [s.name for s in tracer.children(2)] == ["m.c"]
    assert [s.name for s in tracer.children(0)] == ["m.a", "m.b", "m.c"]


def _module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_install_rebinds_every_namespace_and_restores():
    layer = _module("fake.layer", (
        "import time\n"
        "def inner():\n    time.sleep(0.002)\n    return 1\n"
        "def outer():\n    time.sleep(0.001)\n    return inner() + inner()\n"
        "def lazy():\n    yield 1\n"
        "def _private():\n    return 0\n"))
    user = types.ModuleType("fake.user")
    user.inner = layer.inner
    originals = dict(vars(layer))
    tracer = Tracer()
    names = tracer.install({"layer": layer}, [layer, user])
    assert names == ["layer.inner", "layer.outer"]
    assert layer.lazy is originals["lazy"] and layer._private is originals["_private"]
    assert layer.outer() == 2 and user.inner() == 1
    tracer.uninstall()
    assert layer.inner is originals["inner"] and user.inner is originals["inner"]
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("layer.outer", None), ("layer.inner", 0), ("layer.inner", 0),
        ("layer.inner", None)]
    selfs = tracer.self_times()
    outer, first, second = tracer.spans[:3]
    assert selfs[0] == pytest.approx(outer.duration - first.duration - second.duration)
    assert 0 < selfs[0] < outer.duration


def test_install_covers_cross_layer_imports():
    import qmcecon
    from qmcecon import bench, econ, engine

    namespaces = [m for n, m in sys.modules.items() if n.startswith("qmcecon")]
    tracer = Tracer()
    names = tracer.install(workloads.LAYERS, namespaces)
    try:
        for name in ("engine.inverse_qft", "bench.count_stream", "econ.run_qmc",
                     "qmcecon.run_qmc"):
            module, attr = name.rsplit(".", 1)
            target = qmcecon if module == "qmcecon" else getattr(qmcecon, module)
            assert hasattr(getattr(target, attr), "__wrapped__"), name
        assert "engine.theta_to_mu" not in names
        assert "circuits.lower_gates" not in names
    finally:
        tracer.uninstall()
    assert not hasattr(engine.inverse_qft, "__wrapped__")
    assert not hasattr(bench.count_stream, "__wrapped__")
    assert not hasattr(econ.run_qmc, "__wrapped__")


@pytest.mark.parametrize("name", list(workloads.PARTS))
def test_part_tiny_passes_its_checks(name):
    workload = workloads.PARTS[name]
    inputs = workload.setup(0, "tiny")
    checks = workload.check(inputs, workload.run(inputs)) + workload.once(inputs)
    assert checks
    assert [c for c in checks if not c.ok] == []


def test_checks_count_a_raising_operation():
    workload = workloads.PARTS["resource-table"]
    inputs = workload.setup(0, "tiny")
    outputs = {"rows": workloads.Failure("MemoryError: boom")}
    checks = workload.check(inputs, outputs)
    assert len(checks) == 2 and not any(c.ok for c in checks)


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_metrics_printed():
    spec = _bench_spec()
    assert spec["paths"] == [HERE.name]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    parts = [p for pair in workloads.WORKLOADS.values() for p in pair]
    assert sorted(parts) == sorted(workloads.PARTS)


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_one_result_line(trace):
    spec = _bench_spec()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "estimates",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "circuits-training",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
