"""Tests of the benchmark's own arithmetic, metric names and input generator.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402
from cfmm.scene import load_scene, sample_ap_pose_arrays  # noqa: E402


def _span(i, name, start, end, parent=None, pid=1, **counts):
    return {"id": i, "pid": pid, "name": name, "parent": parent, "start": start,
            "end": end, "alloc_peak_bytes": 0, "counts": counts}


def test_self_times_on_synthetic_tree():
    spans = [
        _span(0, "plan", 1.0, 9.0),
        _span(1, "trace", 2.0, 5.0, parent=0),
        _span(2, "blockage", 3.0, 4.5, parent=1, segments=7),
        _span(3, "agc", 6.0, 7.0, parent=0),
        _span(4, "write", 9.5, 10.0),
        _span(0, "synth", 3.0, 8.0, pid=2),
        _span(1, "phasor", 4.0, 6.0, parent=0, pid=2),
        _span(0, "synth", 3.5, 7.5, pid=3),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [4.0, 1.5, 1.5, 1.0, 0.5, 3.0, 2.0, 4.0])
    s = tracer.summarize(spans, main_pid=1, wall_s=12.0)
    assert s["self_s"] == pytest.approx({"plan": 4.0, "trace": 1.5, "blockage": 1.5,
                                         "agc": 1.0, "write": 0.5, "synth": 7.0,
                                         "phasor": 2.0})
    main_self = sum(v for sp, v in zip(spans, tracer.self_times(spans)) if sp["pid"] == 1)
    assert main_self + s["other_s"] == pytest.approx(12.0)
    assert s["other_s"] == pytest.approx(3.5)
    assert s["worker_busy_ratio"] == pytest.approx((5.0 + 4.0) / (2 * 12.0))
    assert s["counts"]["blockage.segments"] == 7
    assert s["counts"]["synth.calls"] == 2


def test_alloc_peak_of_nested_spans():
    rec = tracer.Recorder(prefix="unused")
    tracemalloc.start()
    try:
        outer = rec.enter("outer")
        inner = rec.enter("inner")
        block = np.ones(4_000_000)  # 32 MB, freed before the outer span ends
        del block
        rec.exit(inner)
        small = np.ones(1_000_000)
        rec.exit(outer)
        del small
    finally:
        tracemalloc.stop()
    assert inner["alloc_peak_bytes"] >= 32e6
    assert outer["alloc_peak_bytes"] >= inner["alloc_peak_bytes"]


def test_metric_names_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert run.METRIC_NAME.fullmatch(name), name
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert "setup_s" in names


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generator_is_deterministic_and_windows_the_route(name, tmp_path):
    w = wl.WORKLOADS[name]
    first = wl.write_inputs(ROOT, w, 7, tmp_path / "a")
    again = wl.write_inputs(ROOT, w, 7, tmp_path / "a")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in again]
    assert json.loads(first[1].read_text())["seed"] == 7

    scene = load_scene(first[0])
    positions, _, _ = sample_ap_pose_arrays(scene.trajectory)
    bundled = load_scene(ROOT / "src" / "cfmm" / "data" / f"scene_{w.scene}.json")
    full, _, _ = sample_ap_pose_arrays(bundled.trajectory)
    assert positions.shape[0] == w.n_poses
    np.testing.assert_allclose(positions, full[w.first_pose:w.first_pose + w.n_poses],
                               atol=1e-9)


def test_route_window_rejects_a_cut_inside_a_mast_lift():
    traj = json.loads((ROOT / "src" / "cfmm" / "data" / "scene_full.json").read_text())
    traj = traj["trajectory"]
    lap_s = (68.5 + 175.0 + 68.5 + 175.0) / 0.5
    with pytest.raises(ValueError, match="mast lift"):
        wl.route_window(traj, int((lap_s + 15.0) / 0.1), 10)
