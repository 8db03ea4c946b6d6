"""The package surface that the benchmark under perfbench/ reads.

perfbench times and checks cfmm from outside the package: its tracer
wraps calls by module and attribute name, and its output checks read the
stage files through the library. These tests only read perfbench/; they
never install the tracer, which would rewrap cfmm functions for the whole
session.
"""

import importlib
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.raypaths as rp
import cfmm.scene as sc
import cfmm.sounder as sd
import cfmm.waveform as wf
from cfmm import cli

from conftest import PlanSource, first_poses, make_scene, set_first_value

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Targets the package no longer has; their layers read zero.
GONE = ["cfmm.scene.classify_link_matrix", "cfmm.cli._threshold_table"]


def test_tracer_targets_resolve():
    missing = []
    for _layer, module, attr, _counts in tracer.TARGETS:
        owner_name, _, name = attr.rpartition(".")
        owner = importlib.import_module(module)
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if getattr(owner, name, None) is None:
            missing.append(f"{module}.{attr}")
    assert missing == GONE


def test_chunk_counts_read_process_chunk():
    plan = sd.plan_campaign(first_poses(make_scene(), 6), wf.WaveformSpec(),
                            sd.ImpairmentConfig(), seed=5)
    params = pl.PipelineParams()
    chunk = pl.process_chunk(PlanSource(plan), params, 1, 5)
    counts = tracer._chunk_counts((None, params, 1, 5), {}, chunk)
    assert counts == {"rows": 4, "kept_bins": params.gate_native_bins * params.pad_factor}


def test_count_functions_read_real_results(tmp_path):
    # Each count function reads the arguments and result of a real call of
    # its target, so the package attributes it reads (Building.is_convex,
    # CaptureWriter.spectra_offset, ...) cannot go unnoticed.
    fp = np.array([[30, 25], [75, 25], [75, 38], [45, 38], [45, 50], [30, 50]], dtype=float)
    path = sc.save_scene(make_scene(buildings=[sc.Building("L", fp, 20.0)]), tmp_path / "l.json")
    scene = sc.load_scene(path)
    assert tracer._scene_counts((path,), {}, scene) == {"nonconvex_footprints": 1}

    positions, headings, _ = sc.sample_ap_pose_arrays(first_poses(scene, 6).trajectory)
    ue = scene.site(0).positions_m[0]
    bundle = rp.trace_paths_batch(scene, positions, headings, ue)
    counts = tracer._trace_counts((scene, positions, headings, ue), {}, bundle)
    assert counts == {"paths": len(bundle), "links": 6} and len(bundle) > 6
    ends = np.broadcast_to(ue, positions.shape)
    chords = scene.buildings[0].blockage_chords(positions, ends)
    args = (scene.buildings[0], positions, ends)
    assert tracer._blockage_counts(args, {}, chords) == {"segments": 6}

    plan = sd.plan_campaign(first_poses(scene, 6), wf.WaveformSpec(), sd.ImpairmentConfig(),
                            seed=5)
    strongest = plan.measured_power_dbm.max(axis=1)
    att = sd.agc_attenuation_sequence(strongest, sd.AGCConfig())
    counts = tracer._agc_counts((strongest, sd.AGCConfig()), {}, att)
    assert counts.pop("captures") == 6
    assert counts and sum(counts.values()) == 6
    assert all(f"agc_{a:g}db" in counts for a in att)
    spectra = sd.synthesize_chunk(plan, 1, 5)
    assert tracer._synth_counts((plan, 1, 5), {}, spectra) == {"capture_ues": 4 * plan.n_ues}

    captures = tmp_path / "captures.cfmc"
    writer = fm.CaptureWriter(captures, plan)
    m, u, n = writer.shape
    header = fm.capture_file_bytes(m, u, n, plan.site_id) - m * u * n * 8
    assert tracer._capture_init_counts((writer, captures, plan), {}, None) == {"bytes": header}
    writer.write_chunk(1, spectra)
    counts = tracer._capture_write_counts((writer, 1, spectra), {}, None)
    assert counts == {"bytes": 4 * u * n * 8}
    capture_file = fm.open_captures(captures)
    rows = capture_file.spectra(1, 5, 2)
    assert tracer._capture_read_counts((capture_file, 1, 5, 2), {}, rows) == {"rows": 4}
    taps = pl.kaiser_taps(n, 3.0)
    pdp = pl.compute_pdp(rows, taps, 2, (0, 2 * n), 1.0, np.empty(4))
    assert tracer._transform_counts((rows, taps, 2), {}, pdp) == {"bins": 2 * n}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """simulate, process and export of 24 poses of the canyon-campaign window."""
    w = workloads.Workload(name="contract", scene="canyon", first_pose=3140, n_poses=24,
                           stages=workloads.STAGES, workers=1)
    root = tmp_path_factory.mktemp("bench")
    scene, config = workloads.write_inputs(BENCH.parent, w, 7, root / "inputs")
    out = root / "out"
    for stage in w.stages:
        chunks = ["--chunk-size", "16"] if stage != "export" else []
        assert cli.main([stage, "--config", str(config), "--out", str(out), *chunks]) == 0
    return w, scene, out


def test_output_checks_pass(small_run):
    w, scene, out = small_run
    results = checks.check_outputs(out, w.stages, w.n_poses, 8, scene, los_oracle=False)
    assert [name for name, _, _ in results] == [
        "captures_parse", "matrix_parse_validate", "summary_rows", "pgm_headers"]
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert not failed


def test_los_oracle_reads_the_matrix(small_run, monkeypatch):
    w, scene, out = small_run
    monkeypatch.setattr(checks, "MIN_LOS_ROWS", 1)
    results = checks.check_outputs(out, w.stages, w.n_poses, 8, scene, los_oracle=True)
    name, ok, detail = results[-1]
    assert name == "los_first_arrival" and ok, detail


def test_matrix_check_fails_on_nan_value(small_run, tmp_path):
    w, scene, out = small_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    set_first_value(copy / "matrix.cfmm", np.nan)
    results = checks.check_outputs(copy, w.stages, w.n_poses, 8, scene, los_oracle=False)
    name, ok, detail = results[1]
    assert name == "matrix_parse_validate" and not ok
    assert detail.startswith("FormatError") and "stored values must be finite" in detail
