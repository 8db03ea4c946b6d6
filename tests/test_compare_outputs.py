"""tools/compare_outputs.py on two output directories: rounding differences, a
corrupt matrix and a missing directory."""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import set_first_value, write_matrix

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


def test_missing_directory_exit_2(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "file").write_text("not a directory\n")
    for missing in ("gone", "file"):
        assert load_tool().main([str(tmp_path / "a"), str(tmp_path / missing)]) == 2
        assert f"{tmp_path / missing}: not a directory" in capsys.readouterr().err
