"""End-to-end acceptance gate.

One test per release criterion, ordered cheap to expensive, so a
``pytest -v`` run prints one pass/fail line per criterion. Expected
values come from independent oracles: closed-form geometry, direct-sum
spectral evaluation, scipy minimization, and analytic link budgets.
Nothing here reuses the implementation's own intermediate results as
its reference.

The two campaign-scale tests at the end write a few GB of capture data
to a temporary directory and remove it on exit.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

import cfmm.apld as ap
import cfmm.channel as ch
import cfmm.cli as cli
import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.raypaths as rp
import cfmm.scene as sc
import cfmm.sounder as sd
from cfmm.config import resolve_scene_path
from cfmm.constants import SPEED_OF_LIGHT
from cfmm.waveform import WaveformSpec, reference_tones

from conftest import PlanSource, dense, dense_rows, measured_power_dbm, process_matrix

C = SPEED_OF_LIGHT


# --- manual campaign plans ---------------------------------------------------
#
# Several criteria need exact control over multipath structure, which a
# traced scene cannot give. These helpers assemble a CampaignPlan directly
# from chosen path lists, mirroring the planner's own bookkeeping: measured
# power from the analytic comb mean, AGC from the measured series, and the
# calibration record from the transmit amplitude times the chain response.

def _manual_plan(ap_positions, ue_positions, gains, delays, *, seed=3,
                 coupling_db=None, measured_override_dbm=None):
    """CampaignPlan over hand-chosen paths.

    gains/delays: the plan's flat path table, the same number of paths on
    every (capture, UE) link, links in (capture, UE) order (use np.tile
    for a static channel). Every link is marked LOS; synthesis never reads
    the class.
    """
    spec = WaveformSpec()
    chain = sd.make_chain_response(spec.n_subcarriers)
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=coupling_db)
    positions = np.asarray(ap_positions, dtype=float)
    ues = np.asarray(ue_positions, dtype=float)
    m_total = positions.shape[0]
    gains = np.asarray(gains, dtype=complex)
    delays = np.asarray(delays, dtype=float)

    n_links = m_total * ues.shape[0]
    splits = np.arange(n_links + 1) * (gains.size // n_links)
    mean_gain = ch.mean_tone_power(gains, delays, splits, spec).reshape(m_total, -1)
    measured = sd.TX_POWER_DBM + 10.0 * np.log10(mean_gain)
    if measured_override_dbm is not None:
        measured = np.asarray(measured_override_dbm, dtype=float).reshape(m_total, -1)
    att = sd.agc_attenuation_sequence(measured.max(axis=1))

    return sd.CampaignPlan(
        site_id="manual", waveform=spec, impairments=imp, seed=seed,
        positions=positions,
        timestamps=np.arange(m_total) * sd.CAPTURE_INTERVAL_S,
        ue_positions=ues,
        path_gains=gains, path_delays=delays, row_splits=splits,
        link_class=np.zeros((m_total, ues.shape[0]), dtype=np.uint8), attenuation_db=att,
        reference_tones=reference_tones(spec), chain=chain,
    )


def _static_plan(distance_m, extra=(), *, m_total=16,
                 gain_db=-60.0, coupling_db=None, seed=3):
    """Static single-UE plan: UE on the x axis at distance_m, AP at origin.

    The primary path has the stated gain at the geometric delay; extra
    paths are (delay_offset_native_bins, rel_power_db) add-ons.
    """
    spec = WaveformSpec()
    native = 1.0 / (spec.n_subcarriers * spec.subcarrier_spacing_hz)
    d0 = float(distance_m)
    taus = [d0 / C]
    amps = [10.0 ** (gain_db / 20.0)]
    for off_bins, rel_db in extra:
        taus.append(d0 / C + off_bins * native)
        amps.append(amps[0] * 10.0 ** (rel_db / 20.0))
    k = len(taus)
    gains = np.tile(np.asarray(amps, dtype=complex), m_total)
    delays = np.tile(np.asarray(taus), m_total)
    plan = _manual_plan(
        np.tile(np.asarray([[0.0, 0.0, 0.0]]), (m_total, 1)),
        np.asarray([[d0, 0.0, 0.0]]), gains, delays,
        seed=seed, coupling_db=coupling_db)
    assert plan.row_splits[-1] == m_total * k
    return plan


def _peak_bin(matrix: fm.MatrixFile, m: int, u: int = 0) -> int:
    values, mask = dense(matrix)
    row = np.where(mask[m, u], values[m, u], 0.0)
    assert row.any(), "no surviving bins"
    return int(np.argmax(row))


# --- 1..3: arithmetic and spectral oracles -----------------------------------

def test_criterion_01_grid_arithmetic():
    """Comb of 2801 tones at 125 kHz: 8 us unaliased span, ~2.857 ns bins."""
    spec = WaveformSpec()
    native_bin_width_s = 1.0 / (spec.n_subcarriers * spec.subcarrier_spacing_hz)
    max_unaliased_delay_s = 1.0 / spec.subcarrier_spacing_hz
    assert max_unaliased_delay_s == 8.0e-6
    assert abs(native_bin_width_s - 2.857e-9) / 2.857e-9 <= 0.005
    assert spec.n_subcarriers == 2801
    assert pl.native_bin_width_s(spec) == native_bin_width_s


def test_criterion_02_timing_arithmetic():
    """Slot plan: 10 x 64 us per UE, 8 UEs per capture, 10 Hz captures.

    In-capture rover motion at 0.5 m/s is exactly 2.56 mm (0.26 cm), a
    quarter the 5.00 cm pose spacing; both follow from the slot plan by
    integer arithmetic.
    """
    ns = lambda x: round(x * 1e9)
    assert ns(sd.REPETITION_SPAN_S) == 64_000
    assert sd.REPETITIONS_PER_UE == 10
    assert ns(sd.UE_SLOT_S) == 10 * 64_000
    assert ns(sd.CAPTURE_SPAN_S) == 8 * 640_000
    assert round(sd.CAPTURE_INTERVAL_S * 1e9) == 100_000_000
    spacing_um = round(0.5 * sd.CAPTURE_INTERVAL_S * 1e6)
    assert spacing_um == 50_000
    motion_um = round(0.5 * sd.CAPTURE_SPAN_S * 1e6)
    assert motion_um == 2_560
    assert motion_um * 1e-4 <= 0.26  # cm


def test_criterion_03_pipeline_oracle_equivalence():
    """compute_pdp equals the direct phasor sum at every oversampled bin."""
    rng = np.random.default_rng(97)
    for _ in range(100):
        n = int(rng.integers(4, 65))
        f = int(rng.integers(2, 7))
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = pl.kaiser_taps(n, 3.0)
        got = pl.compute_pdp(h, w, f, (0, f * n), 1.0, np.empty(()))
        phase = np.exp(2j * np.pi * np.outer(np.arange(n * f), np.arange(n)) / (f * n))
        want = np.abs(phase @ (w * h)) ** 2
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * want.max())


# --- 4..8: sounder chain against link-budget oracles -------------------------

def test_criterion_04_delay_recovery(tmp_path):
    """Single path at 10/100/300 m lands within one oversampled bin of d/c."""
    for d in (10.0, 100.0, 300.0):
        plan = _static_plan(d)
        matrix = process_matrix(PlanSource(plan), tmp_path)
        bw = matrix.bin_width_s
        want = round(d / C / bw)
        got = _peak_bin(matrix, m=8)
        assert abs(got - want) <= 1, f"d={d}: bin {got} vs oracle {want}"


class _NoiseSource:
    """Pipeline source yielding pure complex Gaussian noise spectra."""

    def __init__(self, m_total: int, seed: int):
        spec = WaveformSpec()
        self.n_captures = m_total
        self.n_ues = 1
        self.n_subcarriers = spec.n_subcarriers
        self.subcarrier_spacing_hz = spec.subcarrier_spacing_hz
        self.attenuation_db = np.zeros(m_total)
        self.cal_response = np.ones(spec.n_subcarriers, dtype=complex)
        self.reference_tones = np.ones(spec.n_subcarriers, dtype=complex)
        self.positions = np.zeros((m_total, 3))
        self.ue_positions = np.zeros((1, 3))
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((m_total, 1, self.n_subcarriers, 2))
        self._z = (z[..., 0] + 1j * z[..., 1]).astype(np.complex64)

    def spectra(self, m0: int, m1: int, ue: int) -> np.ndarray:
        return np.asarray(self._z[m0:m1, ue], dtype=np.complex128)


def test_criterion_05_threshold_false_alarm(tmp_path):
    """Noise-only survival fraction matches exp(-10^0.7) within 0.15% abs.

    A power bin of circular Gaussian noise is exponential, so a threshold
    7 dB above the estimated mean keeps a fraction exp(-10^0.7) ~ 0.666%.
    Single-snapshot averaging keeps the per-bin distribution exponential;
    1000 captures x 400 native bins give ~4e5 independent samples, so the
    +/-0.15% absolute window sits more than ten standard errors out.
    """
    source = _NoiseSource(1000, seed=20260815)
    params = pl.PipelineParams(ssa_window=1)
    matrix = process_matrix(source, tmp_path, params)
    frac = float(dense(matrix)[1].mean())
    want = float(np.exp(-(10.0 ** 0.7)))
    assert abs(frac - want) <= 0.0015, f"fraction {frac:.5f} vs {want:.5f}"


def test_criterion_06_dynamic_range(tmp_path):
    """100 dB of separation survives the chain; 110 dB does not.

    Strongest case: +5 dBm at the receiver pins the AGC at full
    attenuation, raising the noise figure to its cap. The per-bin noise
    floor then sits ~111 dB under the strong path's peak, so a weak path
    100 dB down clears the +7 dB threshold while one 110 dB down falls
    below it. Both UEs share the strong path at 30 m; the weak copy sits
    350 native bins later, inside the gate and far outside the mainlobe.
    """
    strong_gain_db = 5.0 - sd.TX_POWER_DBM  # +5 dBm received
    plans = {
        rel: _static_plan(30.0, extra=[(350, rel)],
                          gain_db=strong_gain_db, seed=11)
        for rel in (-100.0, -110.0)
    }
    native = 1.0 / (2801 * 125e3)
    for rel, plan in plans.items():
        assert (plan.attenuation_db == 30.0).all()
        matrix = process_matrix(PlanSource(plan), tmp_path)
        bw = matrix.bin_width_s
        strong_bin = round(30.0 / C / bw)
        weak_bin = round((30.0 / C + 350 * native) / bw)
        m = 8
        assert abs(_peak_bin(matrix, m) - strong_bin) <= 1
        mask = dense(matrix)[1]
        near = mask[m, 0, weak_bin - 10:weak_bin + 11]
        wide = mask[m, 0, weak_bin - 60:weak_bin + 61]
        if rel == -100.0:
            assert near.any(), "100 dB-down path lost"
        else:
            assert not wide.any(), "110 dB-down path retained"


def test_criterion_07_agc_contract(tmp_path):
    """Output power stays within 1.2 dB std on LOS; floor step is <= 20 dB.

    Part 1: a 220-capture drive from 45 m to 55 m standoff keeps the
    received power inside the AGC target window, so the gain holds and
    the synthesized output power varies only with the path loss drift
    (~1.7 dB peak to peak, std well under 1.2 dB).

    Part 2: stepping the received power from -55 dBm to -10 dBm forces
    the attenuator from 0 to 30 dB one capture later. The noise-figure
    penalty is capped at 20 dB, so the calibrated noise floor estimate
    rises by at most 20 dB; the estimate is checked inside [19, 20.3].
    """
    # part 1: hold on a LOS segment
    m_total = 220
    x = np.linspace(45.0, 55.0, m_total)
    a0 = 10.0 ** (-51.7 / 20.0)
    gains = (a0 / x).astype(complex)
    delays = x / C
    positions = np.column_stack([x, np.zeros(m_total), np.zeros(m_total)])
    plan = _manual_plan(positions, [[0.0, 0.0, 0.0]], gains, delays, seed=5)
    assert (plan.attenuation_db == 0.0).all()
    lo, hi = sd.AGC_WINDOW_DBM
    measured = measured_power_dbm(plan)
    assert ((measured >= lo) & (measured <= hi)).all()
    spectra = sd.synthesize_chunk(plan, 0, m_total)
    out_dbm = 10.0 * np.log10(np.sum(np.abs(spectra[:, 0]) ** 2, axis=1))
    assert float(np.std(out_dbm)) <= 1.2

    # part 2: forced 30 dB step
    nf = lambda att: sd.BASE_NOISE_FIGURE_DB + min(
        sd.NF_PENALTY_PER_ATT_DB * att, sd.NF_PENALTY_CAP_DB)
    assert nf(30.0) - nf(0.0) == 20.0
    m_total = 60
    amp = np.full(m_total, 10.0 ** (-97.0 / 20.0), dtype=complex)
    amp[30:] = 10.0 ** (-52.0 / 20.0)
    plan = _manual_plan(
        np.tile(np.asarray([[60.0, 0.0, 0.0]]), (m_total, 1)),
        [[0.0, 0.0, 0.0]], amp, np.full(m_total, 60.0 / C), seed=6)
    att = plan.attenuation_db
    assert (att[:31] == 0.0).all() and (att[31:] == 30.0).all()
    matrix = process_matrix(PlanSource(plan), tmp_path)
    floor = matrix.noise_level_db[:, 0]
    step = float(np.mean(floor[40:59]) - np.mean(floor[4:25]))
    assert 19.0 <= step <= 20.3, f"noise floor step {step:.2f} dB"


def test_criterion_08_crosstalk_removal(tmp_path):
    """Coupling leakage is cut before the first arrival and leaves the peak.

    LOS at 100 m puts the arrival at native bin 117; the cut clears
    everything below native bin 113 (guard 4). Same-seed runs with
    coupling on and off must agree at the peak to 0.01 dB: the injected
    spike is deterministic and the noise draws are coupling-independent.
    """
    runs = {}
    for label, coupling in (("on", -60.0), ("off", None)):
        plan = _static_plan(100.0, gain_db=-80.0, coupling_db=coupling, seed=7)
        assert (plan.attenuation_db == 10.0).all()
        runs[label] = process_matrix(PlanSource(plan), tmp_path)
    pad = runs["on"].oversample_factor
    cut = 113 * pad
    on_values, on_mask = dense(runs["on"])
    assert not on_mask[..., :cut].any()
    assert np.all(on_values[..., :cut] == 0.0)
    m = 8
    bin_on, bin_off = _peak_bin(runs["on"], m), _peak_bin(runs["off"], m)
    assert bin_on == bin_off
    assert abs(round(100.0 / C / runs["on"].bin_width_s) - bin_on) <= 1
    p_on = 10.0 * np.log10(on_values[m, 0, bin_on])
    p_off = 10.0 * np.log10(dense(runs["off"])[0][m, 0, bin_off])
    assert abs(p_on - p_off) < 0.01


# --- 9: reflection geometry --------------------------------------------------

def test_criterion_09_geometry_oracles():
    """Image-method lengths match facade-point minimization and Snell's law.

    Worked example: AP (0,0,13), UE (5,20,1), facade plane x=10. The
    mirrored AP is (20,0,13) and the bent length is sqrt(769) m. The
    traced first-order reflection must match an independent scipy
    minimization of |AP-p| + |p-UE| over facade points p to 1e-9 m.
    Then 1000 random facade planes check the specular law to 1e-9 rad.
    """
    apos = np.array([0.0, 0.0, 13.0])
    ue = np.array([5.0, 20.0, 1.0])
    want = np.sqrt(769.0)

    def mirror(p, plane_point, unit_normal):
        return p - 2.0 * np.dot(p - plane_point, unit_normal) * unit_normal

    image = mirror(apos, np.array([10.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(image, [20.0, 0.0, 13.0], atol=1e-12)
    assert abs(np.linalg.norm(image - ue) - want) <= 1e-12

    def bent(p):
        q = np.array([10.0, p[0], p[1]])
        return np.linalg.norm(apos - q) + np.linalg.norm(q - ue)

    def bent_grad(p):
        q = np.array([10.0, p[0], p[1]])
        g = (q - apos) / np.linalg.norm(q - apos) + (q - ue) / np.linalg.norm(q - ue)
        return g[1:]

    res = minimize(bent, x0=[10.0, 6.0], jac=bent_grad, method="L-BFGS-B",
                   options={"gtol": 1e-14, "ftol": 1e-16})
    assert abs(res.fun - want) <= 1e-9

    scene = sc.Scene(
        extent_m=np.array([40.0, 40.0]),
        buildings=[sc.Building(building_id="wall", height_m=20.0,
                               footprint=np.array([[10.0, -5.0], [30.0, -5.0],
                                                   [30.0, 30.0], [10.0, 30.0]]))],
        foliage=[], ue_sites=[],
        trajectory=sc.Trajectory(waypoints=[sc.Waypoint("start", x=0.0, y=0.0,
                                                        height=13.0)]),
    )
    bundle = rp.trace_paths_batch(scene, apos[None, :], np.zeros(1), ue)
    refl = bundle.length_m[bundle.kind == rp.KIND_REFLECT1]
    assert len(refl) == 1
    assert abs(refl[0] - want) <= 1e-9
    assert abs(refl[0] - res.fun) <= 1e-9

    rng = np.random.default_rng(501)
    for _ in range(1000):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        normal = np.array([np.cos(phi), np.sin(phi), 0.0])
        p0 = np.append(rng.uniform(-20.0, 20.0, 2), 0.0)
        tang = np.array([-normal[1], normal[0], 0.0])
        up = np.array([0.0, 0.0, 1.0])
        mk = lambda s, t, z: p0 + s * normal + t * tang + z * up
        a = mk(rng.uniform(0.5, 40.0), rng.uniform(-30.0, 30.0), rng.uniform(1.0, 25.0))
        u = mk(rng.uniform(0.5, 40.0), rng.uniform(-30.0, 30.0), rng.uniform(1.0, 25.0))
        img = mirror(a, p0, normal)
        s_img = np.dot(img - p0, normal)
        s_u = np.dot(u - p0, normal)
        t = -s_img / (s_u - s_img)
        assert 0.0 < t < 1.0
        r = img + t * (u - img)
        d1 = (r - a) / np.linalg.norm(r - a)
        d2 = (u - r) / np.linalg.norm(u - r)
        theta_i = np.arccos(np.clip(-np.dot(d1, normal), -1.0, 1.0))
        theta_r = np.arccos(np.clip(np.dot(d2, normal), -1.0, 1.0))
        assert abs(theta_i - theta_r) <= 1e-9


# --- 10: street-canyon campaign ----------------------------------------------

def _run_cli(args: list) -> None:
    rc = cli.main(args)
    assert rc == 0, f"cli {args[0]} exited {rc}"


def _theta_table(summary_path: Path, m: int, u: int) -> np.ndarray:
    theta = np.full((m, u), np.nan)
    with open(summary_path) as fh:
        for row in csv.DictReader(fh):
            theta[int(row["capture_index"]), int(row["ue"])] = float(row["threshold_db"])
    return theta


def _rooftop_oracle_s(scene: sc.Scene, apos: np.ndarray, ue: np.ndarray) -> float:
    """Shortest over-the-roof bent length across all roof boundary edges."""
    best = np.inf
    for b in scene.buildings:
        fp = b.footprint
        for i in range(fp.shape[0]):
            v0 = np.append(fp[i], b.height_m)
            v1 = np.append(fp[(i + 1) % fp.shape[0]], b.height_m)

            def bent(t):
                p = v0 + t * (v1 - v0)
                return np.linalg.norm(apos - p) + np.linalg.norm(p - ue)

            r = minimize_scalar(bent, bounds=(0.0, 1.0), method="bounded",
                                options={"xatol": 1e-12})
            best = min(best, float(r.fun))
    return best / C


def test_criterion_10_canyon_figure_properties():
    """Canyon campaign reproduces the expected location-delay structure.

    Runs the CLI end to end on the bundled canyon scene, then checks per
    row against geometric oracles (all in oversampled delay bins, +/-1):
    (a) deep-NLOS first arrivals equal the over-the-roof bent path,
    (b) LOS-leg first arrivals equal direct distance over c wherever the
        nearest wall image is at least 4 native bins later,
    (c) both wall-reflection ridges peak at the image-source delays,
    (d) the final AGC attenuation step raises the detection threshold
        and extinguishes a contiguous block of far-delay bins while the
        first-arrival track itself survives.
    Also verifies the exported heatmap and annotation sidecars.
    """
    tmp = Path(tempfile.mkdtemp(prefix="accept10_"))
    try:
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon",
                                   "output_dir": str(tmp / "out")}))
        _run_cli(["simulate", "--config", str(cfg)])
        _run_cli(["process", "--config", str(cfg)])
        _run_cli(["export", "--config", str(cfg)])
        out = tmp / "out"

        matrix = fm.read_matrix(out / "matrix.cfmm")
        source = fm.open_captures(out / "captures.cfmc")
        scene = sc.load_scene(resolve_scene_path("bundled:canyon"))
        m_total, n_ue = matrix.n_captures, matrix.n_ues
        assert (m_total, n_ue) == (3841, 8)
        bw = matrix.bin_width_s
        native = bw * matrix.oversample_factor
        theta = _theta_table(out / "summary.csv", m_total, n_ue)

        pgm = (out / "apld_ue0.pgm").read_bytes()
        assert pgm.startswith(b"P5\n4000 3841\n255\n")
        assert len(pgm) == len(b"P5\n4000 3841\n255\n") + 4000 * 3841
        with open(out / "annotations_ue0.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == m_total
        assert set(rows[0]) == {"capture_index", "timestamp_s", "pos_x_m",
                                "pos_y_m", "pos_z_m", "link_class",
                                "attenuation_db", "threshold_db"}

        tracks = {}
        apld = {}
        for j in range(n_ue):
            apld[j] = ap.assemble_apld(matrix, source, j)
            tracks[j] = ap.first_peak_track(apld[j])[0]

        pos = source.positions
        ues = source.ue_positions
        ue_y = float(ues[0, 1])
        south = max(b.footprint[:, 1].max() for b in scene.buildings
                    if b.footprint[:, 1].max() <= ue_y)
        north = min(b.footprint[:, 1].min() for b in scene.buildings
                    if b.footprint[:, 1].min() >= ue_y)

        # (a) rooftop-dominated NLOS leg
        leg1 = np.arange(1, 1500, 25)
        assert np.all(pos[leg1, 1] == 20.0)
        for j in range(n_ue):
            assert np.all(apld[j].link_class[leg1] == sc.LinkClass.NLOS)
            for m in leg1:
                want = round(_rooftop_oracle_s(scene, pos[m], ues[j]) / bw)
                got = tracks[j][m]
                assert np.isfinite(got), f"row {m} ue {j}: empty track"
                assert abs(round(got / bw) - want) <= 1, \
                    f"row {m} ue {j}: bin {round(got / bw)} vs rooftop {want}"

        # (b) LOS ridge on the return leg
        leg3 = np.flatnonzero(pos[:, 1] == 72.0)
        assert leg3.size == 1301
        # (c) and (d) read only the return leg, a contiguous capture range:
        # decode just that, row m of the campaign at m - m0.
        m0 = int(leg3[0])
        assert (leg3 == np.arange(m0, m0 + leg3.size)).all()
        values, mask = dense(matrix, m0, m0 + leg3.size)
        checked = 0
        for j in range(n_ue):
            mirror_a = ues[j] * [1, 0, 1] + [0, 2 * south - ue_y, 0]
            los = np.linalg.norm(pos[leg3] - ues[j], axis=1)
            img_a = np.linalg.norm(pos[leg3] - mirror_a, axis=1)
            ok = (img_a - los) / C >= 4.0 * native
            sel = leg3[ok]
            got = tracks[j][sel]
            assert np.isfinite(got).all()
            off = np.abs(np.round(got / bw) - np.round(los[ok] / C / bw))
            assert off.max() <= 1, f"ue {j}: worst LOS offset {off.max()}"
            checked += sel.size
        assert checked >= 3000

        # (c) image-source reflection ridges off both walls
        for j in range(n_ue):
            mirror_a = ues[j] * [1, 0, 1] + [0, 2 * south - ue_y, 0]
            mirror_b = ues[j] * [1, 0, 1] + [0, 2 * north - ue_y, 0]
            los = np.linalg.norm(pos[leg3] - ues[j], axis=1)
            img_a = np.linalg.norm(pos[leg3] - mirror_a, axis=1)
            img_b = np.linalg.norm(pos[leg3] - mirror_b, axis=1)
            ok = ((img_a - los) / C >= 4.0 * native) \
                & ((img_b - img_a) / C >= 4.0 * native)
            for wall, lengths in (("south", img_a), ("north", img_b)):
                for m, length in zip(leg3[ok], lengths[ok]):
                    want = round(length / C / bw)
                    vals = np.where(mask[m - m0, j], values[m - m0, j], 0.0)
                    window = vals[want - 15:want + 16]
                    assert window.any(), f"row {m} ue {j}: {wall} ridge missing"
                    got = want - 15 + int(np.argmax(window))
                    assert abs(got - want) <= 1, \
                        f"row {m} ue {j}: {wall} ridge at {got} vs {want}"

        # (d) cluster disappearance at the last attenuation step
        att = source.attenuation_db
        amax = att.max()
        post_start = int(np.flatnonzero(att < amax).max()) + 1
        assert 40 <= post_start <= m_total - 40
        pre = np.arange(post_start - 35, post_start - 5)
        post = np.arange(post_start + 5, post_start + 35)
        pre_val = att[post_start - 1]
        assert (att[pre] == pre_val).all() and (att[post] == amax).all()
        assert amax - pre_val >= 10.0
        assert np.all(pos[np.concatenate([pre, post]), 1] == 72.0)
        groups_wide = 0
        for j in range(n_ue):
            jump = float(np.mean(theta[post, j]) - np.mean(theta[pre, j]))
            assert jump >= 5.0, f"ue {j}: threshold jump {jump:.2f} dB"
            fp = tracks[j][np.concatenate([pre, post])]
            assert np.isfinite(fp).all()
            start = int(np.max(np.round(fp / bw))) + 40
            alive_pre = mask[pre - m0, j, start:].mean(axis=0)
            alive_post = mask[post - m0, j, start:].mean(axis=0)
            dying = np.flatnonzero((alive_pre >= 0.9) & (alive_post <= 0.3))
            assert dying.size >= 12, f"ue {j}: only {dying.size} dying bins"
            splits = np.flatnonzero(np.diff(dying) > 5)
            widths = [g[-1] - g[0] + 1 for g in np.split(dying, splits + 1)]
            assert max(widths) >= 5, f"ue {j}: widest dying group {max(widths)}"
            if max(widths) >= 9:
                groups_wide += 1
            mirror_a = ues[j] * [1, 0, 1] + [0, 2 * south - ue_y, 0]
            for m in np.concatenate([pre, post]):
                los = np.linalg.norm(pos[m] - ues[j])
                img_a = np.linalg.norm(pos[m] - mirror_a)
                if (img_a - los) / C >= 4.0 * native:
                    assert abs(round(tracks[j][m] / bw) - round(los / C / bw)) <= 1
        assert groups_wide >= 4
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --- 11: full-scale campaign -------------------------------------------------

def test_criterion_11_scale_smoke():
    """20k-pose, 8-UE campaign completes in budget with partition-stable output.

    Simulate and process must finish within 30 minutes of wall time.
    Worker-count independence is checked where it could actually break:
    each output row is produced by process_chunk from (source, params,
    span) alone, so reprocessing a 1536-capture prefix under two other
    chunk partitions must reproduce the stored rows byte for byte
    (values and packed mask alike).
    """
    tmp = Path(tempfile.mkdtemp(prefix="accept11_"))
    try:
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps({"scene": "bundled:full",
                                   "output_dir": str(tmp / "out"),
                                   "workers": 2}))
        t0 = time.monotonic()
        _run_cli(["simulate", "--config", str(cfg)])
        _run_cli(["process", "--config", str(cfg)])
        elapsed = time.monotonic() - t0
        assert elapsed < 1800.0, f"end-to-end took {elapsed:.0f} s"

        out = tmp / "out"
        source = fm.open_captures(out / "captures.cfmc")
        m_total, n_ue = source.n_captures, source.n_ues
        assert m_total >= 20_000 and n_ue == 8

        prefix = 1536
        params = pl.PipelineParams()
        b_bins = params.gate_native_bins * params.pad_factor
        stored_vals, stored_mask = dense(fm.read_matrix(out / "matrix.cfmm"), 0, prefix)
        stored_vals = stored_vals.tobytes()
        stored_mask = np.packbits(stored_mask.reshape(-1), bitorder="little").tobytes()

        for chunk in (64, 100):
            vals = np.empty((prefix, n_ue, b_bins), dtype=np.float32)
            mask = np.empty((prefix, n_ue, b_bins), dtype=bool)
            for a in range(0, prefix, chunk):
                b = min(a + chunk, prefix)
                vals[a:b], mask[a:b] = dense_rows(pl.process_chunk(source, params, a, b)[2],
                                                  n_ue)
            assert vals.tobytes() == stored_vals, f"chunk={chunk}: values differ"
            packed = np.packbits(mask.reshape(-1), bitorder="little").tobytes()
            assert packed == stored_mask, f"chunk={chunk}: mask differs"
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
