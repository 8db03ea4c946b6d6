import tempfile
from pathlib import Path

import numpy as np
import pytest

from cfmm import cli
from cfmm import formats as fm
from cfmm import pipeline as pl
from cfmm import scene as sc
from cfmm import sounder as sd


class PlanSource:
    """Capture source backed by a campaign plan (spectra synthesized on read)."""

    def __init__(self, plan, include_noise: bool = True):
        self.plan = plan
        self.include_noise = include_noise
        self.n_captures = plan.n_captures
        self.n_ues = plan.n_ues
        self.n_subcarriers = plan.waveform.n_subcarriers
        self.subcarrier_spacing_hz = plan.waveform.subcarrier_spacing_hz
        self.attenuation_db = plan.attenuation_db
        self.cal_response = plan.cal.response
        self.reference_tones = plan.reference_tones
        self.positions = plan.positions
        self.ue_positions = plan.ue_positions

    def spectra(self, m0: int, m1: int) -> np.ndarray:
        return sd.synthesize_chunk(self.plan, m0, m1, include_noise=self.include_noise)


def process_matrix(source, params=None, chunk_size=128) -> pl.PDPMatrix:
    """Process source as the `process` stage does, into a temporary matrix
    file, and read the file back."""
    with tempfile.TemporaryDirectory(prefix="cfmm_matrix_") as tmp:
        tmp = Path(tmp)
        cli._process_into(source, params or pl.PipelineParams(), tmp / "matrix.cfmm",
                          tmp / "summary.csv", chunk_size)
        return fm.read_matrix(tmp / "matrix.cfmm")


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
