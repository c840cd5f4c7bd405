"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

The workload tests run one untraced and two traced operations of every
workload (about a minute in all).
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

import ergolab  # noqa: E402

# Layers whose span must fire on the workload whose metrics they feed.
FEEDS = {
    "ensemble-resonant": ["typicality.deviation", "dynamics.overlap", "montecarlo.run", "cli"],
    "ensemble-small": ["randomness.haar", "randomness.decomposition", "randomness.state",
                       "dynamics.prepare_state", "dynamics.time_avg", "dynamics.time_fraction",
                       "typicality.deviation", "typicality.bounds", "montecarlo.run",
                       "montecarlo.normality", "cli"],
    "lab-commands": ["spectrum.parse", "spectrum.structure", "randomness.moments",
                     "randomness.blocks", "dynamics.oracle", "typicality.bounds",
                     "typicality.mpmath", "cli"],
}


def _ergolab_namespaces():
    return [m for name, m in sys.modules.items()
            if name == "ergolab" or name.startswith("ergolab.")]


def _bindings_of(fn):
    return {(ns.__name__, attr) for ns in _ergolab_namespaces()
            for attr, value in vars(ns).items() if value is fn}


def test_shim_finds_every_binding():
    import ergolab.cli  # noqa: F401

    originals = {}
    for module, names in spans.LAYERS.values():
        for name in names:
            fn = getattr(sys.modules[f"ergolab.{module}"], name)
            originals[fn] = _bindings_of(fn)
    recorder = spans.Recorder()
    installed = recorder.install()
    try:
        assert {(ns.__name__, attr) for ns, attr, _ in installed} == set().union(*originals.values())
        for fn in originals:
            assert not _bindings_of(fn), f"{fn.__name__} is still bound unwrapped"
        mc, ty = sys.modules["ergolab.montecarlo"], sys.modules["ergolab.typicality"]
        for ns, name in [(mc, "deviation_exact"), (mc, "sample_decomposition"),
                         (mc, "prepare_state"), (mc, "sample_random_state"),
                         (ty, "shell_overlap_matrix"), (ty, "exact_time_avg_weight"),
                         (ergolab, "deviation_exact"), (ergolab.cli, "main")]:
            assert hasattr(getattr(ns, name), "__wrapped__"), (ns.__name__, name)
    finally:
        recorder.uninstall()
    for fn, bound in originals.items():
        assert _bindings_of(fn) == bound


def test_aggregate_self_and_inclusive_time():
    trace = [
        ["cli", 0.0, 10.0, -1],
        ["spectrum.structure", 1.0, 4.0, 0],
        ["spectrum.structure", 2.0, 3.0, 1],
        ["typicality.deviation", 5.0, 9.0, 0],
        ["dynamics.overlap", 5.5, 6.0, 3],
    ]
    out = spans.aggregate(trace, {"typicality.resonant_ops": 7, "montecarlo.cells_reported": 1})
    assert out["cli.self_s"] == pytest.approx(3.0)
    assert out["spectrum.structure.calls"] == 2
    assert out["spectrum.structure.s"] == pytest.approx(3.0)
    assert out["spectrum.structure.self_s"] == pytest.approx(3.0)
    assert out["typicality.deviation.self_s"] == pytest.approx(3.5)
    assert out["typicality.resonant_ops"] == 7
    assert out["montecarlo.useful_ratio"] == 1.0


def test_mean_limit_is_five_sigma_for_many_trials():
    assert workloads.mean_limit(2000) == pytest.approx(5.016, abs=1e-3)
    assert workloads.mean_limit(10) == pytest.approx(12.42, abs=1e-2)


def test_reference_loads_no_numpy_submodule():
    code = ("import sys, reference; before = set(sys.modules); reference.seconds(); "
            "print(sorted(set(sys.modules) - before), 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["[]", "False"]


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced_run(request, tmp_path_factory):
    work = tmp_path_factory.mktemp(request.param)
    saved, run.WORK = run.WORK, work
    try:
        bench = run.Run(request.param, seed=3)
        for trace in (False, True, True):
            bench.operation(trace)
    finally:
        run.WORK = saved
    return request.param, bench.ops


def test_traced_and_untraced_reports_are_identical(traced_run):
    _, ops = traced_run
    assert all(op["failed"] == 0 for op in ops)
    assert ops[0]["digests"] == ops[1]["digests"] == ops[2]["digests"]


def test_times_relative_to_the_reference(traced_run):
    _, ops = traced_run
    for op in ops:
        assert op["ref_s"] > 0
        # Each stretch of commands is divided by a reference time near ref_s.
        assert op["wall_rel"] == pytest.approx(op["wall_s"] / op["ref_s"], rel=0.5)
        assert 0 < op["cpu_rel"] <= 1.5 * op["wall_rel"]


def test_spans_fire_on_the_workload_they_feed(traced_run):
    workload, ops = traced_run
    layers = ops[1]["layers"]
    for layer in FEEDS[workload]:
        assert layers[f"{layer}.calls"] >= 1, layer
    if workload == "ensemble-resonant":
        assert layers["typicality.resonant_ops"] > 0
    if workload == "ensemble-small":
        assert 0 < layers["montecarlo.useful_ratio"] <= 1
    if workload == "lab-commands":
        assert layers["dynamics.oracle.evals"] == 4 * 19_501
        assert layers["spectrum.table_pairs"] > 0


def test_counts_repeat_across_traced_runs(traced_run):
    _, ops = traced_run
    first, second = ops[1]["layers"], ops[2]["layers"]
    counts = [k for k in first if not (k.endswith(".s") or k.endswith("_s"))]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    declared = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(declared["command"] + ["--workload", "ensemble-small", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / run.BENCH.name / ".work").exists()
