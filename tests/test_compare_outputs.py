"""tools/compare_outputs.py on two output directories: rounding differences in
captures and matrices, a corrupt capture file or matrix, manifest keys and a
missing directory."""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from cfmm import formats as fm
from cfmm import sounder as sd
from cfmm import waveform as wf
from conftest import first_poses, make_scene, set_first_value, write_matrix

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_value_mask_and_noise_differences(tmp_path, capsys):
    rng = np.random.default_rng(3)
    values = rng.random((40, 2, 30)).astype(np.float32) + 0.5
    mask = rng.random((40, 2, 30)) < 0.5
    values[~mask] = 0.0
    noise = rng.normal(size=(40, 2))
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "summary.csv").write_text("same\n")
    write_matrix(a / "matrix.cfmm", values, mask, noise, noise + 7.0)
    (a / "only_a.pgm").write_bytes(b"P5")
    changed, moved = values.copy(), noise.copy()
    i, j, q = np.argwhere(mask)[-1]  # in the second 32-capture block
    changed[i, j, q] = np.nextafter(changed[i, j, q], np.float32(2.0))
    moved[5, 1] += 1e-9
    write_matrix(b / "matrix.cfmm", changed, mask, moved, moved + 7.0)
    assert load_tool().main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "summary.csv: same" in out
    assert f"only_a.pgm: only in {a}" in out
    assert "matrix.cfmm: differs" in out
    assert f"float32 values that differ: 1 of {values.size}" in out
    assert "mask bins that differ: 0" in out
    rel = float(np.spacing(values[i, j, q]) / changed[i, j, q])
    assert f"{rel:.3e} at capture {i}, UE {j}, bin {q}" in out
    assert "noise_db values that differ: 1 of 80" in out
    assert "largest noise_db difference: 1.000e-09 dB" in out


def test_reports_threshold_differences(tmp_path, capsys):
    # The threshold table is the only difference between the two matrices.
    rng = np.random.default_rng(4)
    values = rng.random((40, 2, 30)).astype(np.float32) + 0.5
    mask = rng.random((40, 2, 30)) < 0.5
    noise = rng.normal(size=(40, 2))
    threshold = noise + 7.0
    moved = threshold.copy()
    moved[3, 0] += 0.25
    moved[37, 1] -= 0.5
    a, b = tmp_path / "a", tmp_path / "b"
    for d, levels in ((a, threshold), (b, moved)):
        d.mkdir()
        write_matrix(d / "matrix.cfmm", values, mask, noise, levels)
    assert load_tool().main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "matrix.cfmm: differs",
        f"  float32 values that differ: 0 of {values.size}",
        "  mask bins that differ: 0",
        "  noise_db values that differ: 0 of 80",
        "  threshold_db values that differ: 2 of 80",
        "  largest threshold_db difference: 5.000e-01 dB",
    ]


def write_captures(path, plan, spectra):
    fm.CaptureWriter(path, plan).write_chunk(0, spectra)


def test_reports_capture_metadata_and_spectrum_differences(tmp_path, capsys):
    plan = sd.plan_campaign(first_poses(make_scene(), 40), wf.WaveformSpec(),
                            sd.ImpairmentConfig(), seed=5)
    spectra = sd.synthesize_chunk(plan, 0, plan.n_captures)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_captures(a / "captures.cfmc", plan, spectra)
    power = plan.measured_power_dbm.copy()
    power[5, 1] += 1e-9
    power[7, 2] -= 2e-9
    changed = spectra.copy()
    c, j, q = 35, 3, 100  # in the second 32-capture block
    changed[c, j, q] *= np.float32(1.5)
    changed[2, 0, 7] *= np.float32(1.0 + 1e-6)
    write_captures(b / "captures.cfmc", replace(plan, measured_power_dbm=power, seed=6),
                   changed)
    assert load_tool().main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    m, u, n = spectra.shape
    assert out[0] == "captures.cfmc: differs"
    assert "  timestamps values that differ: 0 of 40" in out
    assert f"  measured_power_dbm values that differ: 2 of {m * u}" in out
    assert "  largest measured_power_dbm difference: 2.000e-09" in out
    assert f"  link_class values that differ: 0 of {m * u}" in out
    assert f"  reference_tones values that differ: 0 of {n}" in out
    assert f"  complex64 spectrum values that differ: 2 of {m * u * n}" in out
    x = complex(spectra[c, j, q])
    rel = abs(1.5 * x - x) / abs(1.5 * x)
    assert f"  largest relative spectrum difference: {rel:.3e} at capture {c}, UE {j}, tone {q}" in out
    # One line per header field that differs; the paths always do and are not shown.
    assert "  seed: 5 vs 6" in out
    assert not [line for line in out if line.startswith("  path")]


def test_corrupt_captures_exit_3(tmp_path, capsys):
    plan = sd.plan_campaign(first_poses(make_scene(), 4), wf.WaveformSpec(),
                            sd.ImpairmentConfig(), seed=5)
    spectra = sd.synthesize_chunk(plan, 0, plan.n_captures)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    write_captures(a / "captures.cfmc", plan, spectra)
    spectra[2, 1, 9] = np.nan
    write_captures(b / "captures.cfmc", plan, spectra)
    assert load_tool().main([str(a), str(b)]) == 3
    err = capsys.readouterr().err
    assert f"captures.cfmc: cannot read: {b / 'captures.cfmc'}: capture 2, UE 1" in err
    assert "NaN" in err


def test_corrupt_matrix_exit_3(tmp_path, capsys):
    values = np.ones((4, 2, 30), dtype=np.float32)
    mask = np.ones(values.shape, dtype=bool)
    noise = np.zeros((4, 2))
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        write_matrix(d / "matrix.cfmm", values, mask, noise, noise + 7.0)
    set_first_value(b / "matrix.cfmm", np.nan)
    assert load_tool().main([str(a), str(b)]) == 3
    err = capsys.readouterr().err
    assert f"matrix.cfmm: cannot read: {b / 'matrix.cfmm'}: captures 0..3" in err
    assert "finite" in err


def test_manifest_prints_differing_keys(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, config_hash, captures in ((a, "06ee", "/x/a/captures.cfmc"),
                                     (b, "25f0", "/x/b/captures.cfmc")):
        d.mkdir()
        stages = {"simulate": {"captures": captures, "numpy": "2.4.6", "n_captures": 64}}
        if d == b:
            stages["process"] = {"matrix": "matrix.cfmm"}
        (d / "manifest.json").write_text(json.dumps(
            {"config_hash": config_hash, "seed": 7, "stages": stages}))
    # Only the manifest differs, which the exit code forgives.
    assert load_tool().main([str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "manifest.json: differs",
        '  config_hash: "06ee" vs "25f0"',
        "  stages.process.matrix: absent vs \"matrix.cfmm\"",
        '  stages.simulate.captures: "/x/a/captures.cfmc" vs "/x/b/captures.cfmc"',
    ]


def test_manifest_run_timings_on_one_line(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, scale, workers in ((a, 1.0, 1), (b, 1.5, 2)):
        d.mkdir()
        (d / "captures.cfmc").write_bytes(b"same")
        stages = {"simulate": {"wall_s": 2.0 * scale, "cpu_s": 1.9 * scale, "seed": 7,
                               "capture_sync_wait_s": 0.1 * scale, "workers": workers},
                  "process": {"wall_s": 3.0 * scale, "cpu_s": 5.0}}
        (d / "manifest.json").write_text(json.dumps({"stages": stages}))
    assert load_tool().main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "captures.cfmc: same",
        "manifest.json: differs",
        "  stages.simulate.workers: 1 vs 2",
        "  run timings differ: stages.process.wall_s, stages.simulate.capture_sync_wait_s, "
        "stages.simulate.cpu_s, stages.simulate.wall_s",
    ]


def test_malformed_manifest_exit_3(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
    (a / "manifest.json").write_text("{}")
    (b / "manifest.json").write_text("{not json")
    assert load_tool().main([str(a), str(b)]) == 3
    err = capsys.readouterr().err
    assert f"manifest.json: cannot read: {b / 'manifest.json'}: malformed JSON" in err


def test_missing_directory_exit_2(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    for missing in ("gone", "file"):
        assert load_tool().main([str(tmp_path / "a"), str(tmp_path / missing)]) == 2
        assert f"{tmp_path / missing}: not a directory" in capsys.readouterr().err
