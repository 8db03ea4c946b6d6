import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfmm import cli
from cfmm import formats as fm
from cfmm import pipeline as pl
from cfmm import scene as sc
from cfmm import sounder as sd


class PlanSource:
    """Capture source backed by a campaign plan (spectra synthesized on read).
    It keeps its last synthesized capture range, so the U reads of one
    chunk synthesize it once; each read returns a fresh copy, as a capture
    file read does."""

    def __init__(self, plan):
        self.plan = plan
        self.n_captures = plan.n_captures
        self.n_ues = plan.n_ues
        self.n_subcarriers = plan.waveform.n_subcarriers
        self.subcarrier_spacing_hz = plan.waveform.subcarrier_spacing_hz
        self.attenuation_db = plan.attenuation_db
        self.cal_response = plan.cal_response
        self.reference_tones = plan.reference_tones
        self.positions = plan.positions
        self.ue_positions = plan.ue_positions
        self._last = (None, None)  # (m0, m1), (m, U, N) spectra

    def spectra(self, m0: int, m1: int, ue: int) -> np.ndarray:
        span, chunk = self._last
        if span != (m0, m1):
            chunk = sd.synthesize_chunk(self.plan, m0, m1)
            self._last = ((m0, m1), chunk)
        return chunk[:, ue].copy()


def noiseless(plan):
    """plan without receiver noise: a thermal density of -inf dBm/Hz makes
    the noise variance zero. The AGC sequence does not depend on it."""
    return replace(plan, impairments=replace(plan.impairments, thermal_dbm_per_hz=-np.inf))


def first_poses(scene, n_poses: int, skip: int = 0):
    """scene with its route cut to n_poses poses, from pose skip on. The
    route must open with a drive that long; the cut route starts at pose
    skip and ends half a capture interval after its last pose."""
    traj = scene.trajectory
    start, drive = traj.waypoints[:2]
    assert drive.action == "drive"
    step = np.array([drive.x - start.x, drive.y - start.y])
    pose_m = traj.speed_mps * traj.capture_interval_s
    length = pose_m * (skip + n_poses - 0.5)
    assert length < np.hypot(*step)
    x, y = np.array([start.x, start.y]) + step * (length / np.hypot(*step))
    if skip:
        x0, y0 = np.array([start.x, start.y]) + step * (pose_m * skip / np.hypot(*step))
        start = replace(start, x=float(x0), y=float(y0))
    return replace(scene, trajectory=replace(
        traj, waypoints=[start, sc.Waypoint("drive", x=float(x), y=float(y))]))


def process_matrix(source, tmp_path, params=None, chunk_size=128) -> fm.MatrixFile:
    """Process source as the `process` stage does, into a matrix file in a
    new directory under tmp_path, and open the file."""
    out = Path(tempfile.mkdtemp(prefix="matrix_", dir=tmp_path))
    cli._process_into(source, params or pl.PipelineParams(), out / "matrix.cfmm",
                      out / "summary.csv", chunk_size)
    return fm.read_matrix(out / "matrix.cfmm")


def write_matrix(path, values, mask, noise_db, delta_n_db=7.0, bin_width_s=1e-9,
                 oversample_factor=10) -> fm.MatrixFile:
    """Write dense (M, U, B) profiles, masked bins zero, as one chunk of a
    matrix file, and open the file."""
    m, u, b = values.shape
    w = fm.MatrixWriter(path, m, u, b, bin_width_s, oversample_factor, delta_n_db)
    w.write_chunk(0, pl.SparseRows.encode(mask, values[mask], noise_db))
    w.close()
    return fm.read_matrix(path)


def set_first_value(path, value: float) -> int:
    """Overwrite the first value stored in a matrix file, as a corrupt copy
    would hold it; returns the (capture, UE) row that holds it."""
    matrix = fm.read_matrix(path)
    r = int(np.flatnonzero(matrix.n_runs)[0])
    begin = int(matrix.record_end[r - 1]) if r else matrix.records_offset
    at = begin + 8 * int(matrix.n_runs[r])  # past the row's runs
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(np.float32(value).tobytes())
    return r


def dense(matrix: fm.MatrixFile, m0: int = 0, m1: int | None = None
          ) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask) of the profiles of captures [m0, m1) (default: all)
    in matrix, each (m1 - m0, U, B): float32 values, masked bins zero, and
    the bins that survived."""
    m1 = matrix.n_captures if m1 is None else m1
    return dense_rows(matrix.rows(m0, m1), matrix.n_ues)


def dense_rows(rows: pl.SparseRows, n_ues: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, mask) of SparseRows of whole captures, as process_chunk
    returns them, each (captures, n_ues, n_bins): float32 values, masked
    bins zero, and the bins that survived."""
    values, mask = rows.dense()
    shape = (-1, n_ues, rows.n_bins)
    return values.reshape(shape), mask.reshape(shape)


def ue_line(x0=20.0, y=60.0, spacing=5.0, n=8, height=1.0):
    return np.array([[x0 + i * spacing, y, height] for i in range(n)])


def make_scene(
    buildings=None,
    foliage=None,
    waypoints=None,
    extent=(100.0, 100.0),
    ue_positions=None,
    speed=0.5,
):
    if buildings is None:
        buildings = [
            sc.Building(
                building_id="B0",
                footprint=np.array([[40.0, 30.0], [60.0, 30.0], [60.0, 50.0], [40.0, 50.0]]),
                height_m=20.0,
            )
        ]
    if foliage is None:
        foliage = []
    if waypoints is None:
        waypoints = [
            sc.Waypoint("start", x=10.0, y=10.0, height=4.5),
            sc.Waypoint("drive", x=90.0, y=10.0),
        ]
    return sc.Scene(
        extent_m=np.array(extent),
        buildings=buildings,
        foliage=foliage,
        ue_sites=[sc.UESite(site_id="site0", positions_m=ue_line() if ue_positions is None else ue_positions)],
        trajectory=sc.Trajectory(waypoints=waypoints, speed_mps=speed),
    )


@pytest.fixture
def basic_scene():
    s = make_scene()
    s.validate()
    return s
