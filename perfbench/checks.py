"""Output checks run on each pass of a workload, outside the timed stages.

Every check returns (name, ok, detail); each one counts as one operation
in the benchmark's error rate. cfmm is imported from the checkout's src.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np

MANIFEST = "manifest.json"
MIN_LOS_ROWS = 100


def _check(name: str, fn) -> tuple[str, bool, str]:
    try:
        detail = fn()
    except Exception as e:  # a check that raises has failed; report why
        return name, False, f"{type(e).__name__}: {e}"
    return name, True, detail or ""


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every stage output except the manifest."""
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name == MANIFEST or not path.is_file():
            continue
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[path.name] = h.hexdigest()
    return digests


def los_oracle_rows(matrix, source, scene) -> int:
    """Criterion 10(b) on every LOS row: first arrival at direct distance / c.

    Checked wherever the first wall image (off the nearer canyon wall
    below the UE row) arrives at least 4 native bins after the direct ray;
    the tracked first peak must sit within one oversampled bin of it.
    Returns the number of rows checked.
    """
    from cfmm import apld as ap
    from cfmm.constants import SPEED_OF_LIGHT as C
    from cfmm.scene import LinkClass

    bw = matrix.bin_width_s
    native = bw * matrix.oversample_factor
    pos, ues = source.positions, source.ue_positions
    ue_y = float(ues[0, 1])
    south = max(b.footprint[:, 1].max() for b in scene.buildings
                if b.footprint[:, 1].max() <= ue_y)
    checked = 0
    for j in range(matrix.n_ues):
        track = ap.first_peak_track(ap.assemble_apld(matrix, source, j))[0]
        mirror = ues[j] * [1, 0, 1] + [0, 2 * south - ue_y, 0]
        los = np.linalg.norm(pos - ues[j], axis=1)
        img = np.linalg.norm(pos - mirror, axis=1)
        rows = (source.link_class[:, j] == LinkClass.LOS) & ((img - los) / C >= 4.0 * native)
        got = track[rows]
        if not np.isfinite(got).all():
            raise AssertionError(f"ue {j}: LOS row with no surviving first arrival")
        off = np.abs(np.round(got / bw) - np.round(los[rows] / C / bw))
        if off.size and off.max() > 1:
            raise AssertionError(f"ue {j}: first arrival {off.max():.0f} bins off LOS")
        checked += int(rows.sum())
    if checked < MIN_LOS_ROWS:
        raise AssertionError(f"only {checked} LOS rows checked, want >= {MIN_LOS_ROWS}")
    return checked


def check_outputs(out: Path, stages: tuple[str, ...], n_poses: int, n_ues: int,
                  scene_path: Path, los_oracle: bool) -> list[tuple[str, bool, str]]:
    """Checks on the files the stages left in out."""
    from cfmm import formats as fm
    from cfmm.scene import load_scene

    results = []
    state = {}

    def captures():
        src = fm.open_captures(out / "captures.cfmc")
        if (src.n_captures, src.n_ues) != (n_poses, n_ues):
            raise AssertionError(f"captures {src.n_captures} x {src.n_ues}, "
                                 f"want {n_poses} x {n_ues}")
        state["source"] = src

    results.append(_check("captures_parse", captures))
    if "process" in stages:
        def matrix():
            m = fm.read_matrix(out / "matrix.cfmm")
            m.validate()
            if (m.n_captures, m.n_ues) != (n_poses, n_ues):
                raise AssertionError(f"matrix {m.values.shape}, want {n_poses} x {n_ues}")
            state["matrix"] = m

        def summary():
            with open(out / "summary.csv", newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
            if rows != n_poses * n_ues:
                raise AssertionError(f"summary.csv has {rows} rows, want {n_poses * n_ues}")

        results.append(_check("matrix_parse_validate", matrix))
        results.append(_check("summary_rows", summary))
    if "export" in stages:
        def heatmaps():
            n_bins = state["matrix"].n_bins
            head = f"P5\n{n_bins} {n_poses}\n255\n".encode("ascii")
            for j in range(n_ues):
                pgm = out / f"apld_ue{j}.pgm"
                with open(pgm, "rb") as fh:
                    if fh.read(len(head)) != head:
                        raise AssertionError(f"{pgm.name}: bad PGM header")
                if pgm.stat().st_size != len(head) + n_bins * n_poses:
                    raise AssertionError(f"{pgm.name}: size {pgm.stat().st_size}")

        results.append(_check("pgm_headers", heatmaps))
    if los_oracle:
        def los():
            rows = los_oracle_rows(state["matrix"], state["source"], load_scene(scene_path))
            return f"{rows} rows"

        results.append(_check("los_first_arrival", los))
    return results
