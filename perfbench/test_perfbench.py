"""Tests of the benchmark itself: tiny-size runs of every workload, the
tracer's bindings and arithmetic, and the refusal to run without sources.

Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from stringshape import modal, optimizer, sensing, sensitivity, studies  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_spec_names_the_workloads_and_metrics_the_code_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    names = {m["name"] for m in SPEC["per_layer"]}
    for traced in tracer_mod.TRACED:
        assert {f"{traced}.calls", f"{traced}.self_s"} <= names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, report = bench.run(workload, seed=3, seconds=0.01, trace=bool(trace),
                               import_s=0.0, root=ROOT, out_dir=str(tmp_path), size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
    for name in ("setup_s", "wall_s", "peak_rss_mb", "ops_failed_frac"):
        assert report["metrics"][name]["unit"]
    if trace:
        assert report["traced_outputs_identical"]
        assert os.path.exists(report["spans"])


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload):
    """Search results, solves and study tables do not change under the tracer."""
    w = bench.make_workload(workload, seed=5, size="tiny")
    inputs, _ = w.setup()
    plain = w.run_pass(inputs)
    with tracer_mod.Tracer() as tr:
        traced_inputs, _ = w.setup()
        traced = w.run_pass(traced_inputs)
    assert tr.spans
    assert len(plain) == len(traced)
    for a, b in zip(plain, traced):
        assert a.error is None and b.error is None
        assert w.same(a.output, b.output)


def _bindings(original):
    found = []
    for key, mod in sys.modules.items():
        if key == "stringshape" or key.startswith("stringshape."):
            found += [(mod, name) for name, value in vars(mod).items() if value is original]
    return found


def test_tracer_rebinds_every_binding_and_restores_them():
    lengths, config_jacobian = sensing.lengths, sensing.config_jacobian
    peak_search, matrix = optimizer.planar_peak_search, modal.ModalBasis.matrix
    bound = {fn: _bindings(fn) for fn in (lengths, config_jacobian, peak_search)}
    assert len(bound[config_jacobian]) >= 3     # sensing, sensitivity, the package
    with tracer_mod.Tracer():
        for fn, places in bound.items():
            wrapped = {getattr(mod, name) for mod, name in places}
            assert len(wrapped) == 1 and fn not in wrapped
        assert sensitivity.config_jacobian is sensing.config_jacobian
        assert studies.planar_peak_search is optimizer.planar_peak_search
        assert modal.ModalBasis.matrix is not matrix
    for fn, places in bound.items():
        assert all(getattr(mod, name) is fn for mod, name in places)
    assert modal.ModalBasis.matrix is matrix


def test_self_time_and_nesting_counts():
    tr = tracer_mod.Tracer(traced=("sensing.solve_shape", "sensing.lengths",
                                   "sensing.config_jacobian"))
    tr.spans = [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 0, 5.0, 6.0),
                (1, 2, 5.2, 5.5), (1, -1, 11.0, 12.0)]
    stats, total = tr.summary()
    assert stats["sensing.solve_shape.self_s"] == pytest.approx(6.0)
    assert stats["sensing.lengths.self_s"] == pytest.approx(3.0 + 0.3 + 1.0)
    assert stats["sensing.config_jacobian.self_s"] == pytest.approx(0.7)
    assert stats["sensing.lengths.calls"] == 3
    assert total == pytest.approx(11.0)
    assert tr.count_under("sensing.lengths", "sensing.solve_shape") == 2


def test_each_block_is_scaled_by_the_probes_on_either_side():
    ref = bench.PROBE_REF_S
    gaps = [[ref, ref], [2 * ref, 2 * ref], [ref, 3 * ref]]
    assert bench.block_scales(gaps) == pytest.approx([1 / 1.5, 1 / 2.0])


def test_sensing_pool_is_fixed_and_the_seed_picks_the_stream():
    pool, _ = bench.SensingStream(seed=0, frames_per_round=2, frames=6).setup()
    a, _ = bench.make_workload("sensing-stream", seed=3, size="tiny").setup()
    b, _ = bench.make_workload("sensing-stream", seed=4, size="tiny").setup()
    in_pool = [any(np.array_equal(c, p) for p, _ in pool) for c, _ in a + b]
    assert all(in_pool) and len(in_pool) == 8
    assert not all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(list(range(1, 61))) == (50, pytest.approx(100.0 * 50 / 60))
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "soft-search",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert got.returncode != 0
    assert got.stdout == ""
