import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from cfmm import channel as chan
from cfmm import raypaths as rp
from cfmm import scene as sc
from cfmm import sounder as sd
from cfmm import waveform as wf
from conftest import make_scene, noiseless

SPEC = wf.WaveformSpec()


def short_drive_scene(x0=10.0, x1=11.0, y=10.0, height=4.5):
    return make_scene(waypoints=[
        sc.Waypoint("start", x=x0, y=y, height=height),
        sc.Waypoint("drive", x=x1, y=y),
    ])


class TestAGC:
    CFG = sd.AGCConfig()

    def up(self, att, p):
        """Attenuation after a capture at p dBm, from a settled att dB."""
        # att - 42.5 dBm sits mid-window at att dB, so capture 0 settles on
        # att and capture 1 holds it; capture 2 reacts to capture 1's p.
        seq = sd.agc_attenuation_sequence(np.array([att - 42.5, p, p]), self.CFG)
        np.testing.assert_array_equal(seq[:2], [att, att])
        return seq[2]

    def test_selects_smallest_step_landing_in_window(self):
        assert self.up(0.0, -30.0) == 10.0  # -40 hits the window top
        assert self.up(0.0, -25.0) == 20.0  # -45 hits the window bottom
        assert self.up(0.0, -12.0) == 30.0
        assert self.up(0.0, -41.0) == 0.0

    def test_holds_inside_window(self):
        assert self.up(10.0, -31.0) == 10.0  # -41 dBm output, no change

    def test_weak_signal_returns_to_zero(self):
        assert self.up(30.0, -80.0) == 0.0

    def test_overload_clamps_to_max(self):
        assert self.up(0.0, -5.0) == 30.0

    def test_gap_prefers_protection(self):
        # -37 dBm: no step lands inside [-45, -40]; smallest protecting
        # step is 10 dB (output -47 <= -40).
        assert self.up(0.0, -37.0) == 10.0

    def test_sequence_one_capture_lag(self):
        powers = np.array([-30.0, -30.0, -80.0, -80.0, -80.0])
        att = sd.agc_attenuation_sequence(powers, self.CFG)
        # Capture 0 converges on its own power; changes land one late.
        np.testing.assert_allclose(att, [10.0, 10.0, 10.0, 0.0, 0.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sd.AGCConfig(attenuation_steps_db=(10.0, 0.0)).validate()
        with pytest.raises(ValueError):
            sd.AGCConfig(target_output_window_dbm=(-40.0, -45.0)).validate()


class TestImpairments:
    def test_noise_figure_penalty(self):
        imp = sd.ImpairmentConfig()
        nf = lambda att: imp.base_noise_figure_db + min(
            imp.nf_penalty_per_att_db * att, imp.nf_penalty_cap_db)
        assert nf(0.0) == 5.0
        assert nf(15.0) == pytest.approx(15.0)
        assert nf(30.0) == pytest.approx(25.0)  # capped at +20
        assert nf(60.0) == pytest.approx(25.0)
        # noise_sigma2_mw carries the same penalty.
        att = np.array([0.0, 15.0, 30.0, 60.0])
        rise_db = 10 * np.log10(imp.noise_sigma2_mw(att, 125e3) / imp.noise_sigma2_mw(0.0, 125e3))
        np.testing.assert_allclose(rise_db, [nf(a) - nf(0.0) for a in att], atol=1e-9)

    def test_noise_sigma_reference_level(self):
        imp = sd.ImpairmentConfig()
        # -174 + 10log10(125 kHz) + 5 dB NF = -118.03 dBm per tone.
        sigma2 = imp.noise_sigma2_mw(0.0, 125e3)
        assert 10 * np.log10(sigma2) == pytest.approx(-118.03, abs=0.01)
        # The capped penalty is exactly +20 dB at 30 dB attenuation.
        assert imp.noise_sigma2_mw(30.0, 125e3) / sigma2 == pytest.approx(100.0)

    def test_chain_response_bounded_and_deterministic(self):
        cfg = sd.ChainRippleConfig()
        r1 = sd.make_chain_response(2801, cfg)
        r2 = sd.make_chain_response(2801, cfg)
        np.testing.assert_array_equal(r1, r2)
        mag_db = 20 * np.log10(np.abs(r1))
        assert np.abs(mag_db).max() == pytest.approx(3.0, abs=1e-9)
        assert np.abs(np.angle(r1)).max() <= np.pi / 4 + 1e-9
        assert np.abs(r1).min() > 0.5
        r3 = sd.make_chain_response(2801, sd.ChainRippleConfig(seed=8))
        assert not np.allclose(r1, r3)


def test_timing_constants():
    assert sd.REPETITIONS_PER_UE == 10
    assert sd.UE_SLOT_S == pytest.approx(640e-6)
    assert sd.CAPTURE_SPAN_S == pytest.approx(5.12e-3)
    # In-capture AP motion at 0.5 m/s stays under half a centimetre.
    assert 0.5 * sd.CAPTURE_SPAN_S == pytest.approx(0.00256)


def test_campaign_structure_and_determinism():
    scene = short_drive_scene()
    imp = sd.ImpairmentConfig()
    plan = sd.plan_campaign(scene, SPEC, imp, seed=42)
    assert plan.n_captures == 21
    np.testing.assert_allclose(plan.timestamps, 0.1 * np.arange(21))
    spectra = sd.synthesize_chunk(plan, 0, plan.n_captures)
    assert spectra.shape == (21, 8, 2801)
    assert spectra.dtype == np.complex64

    plan2 = sd.plan_campaign(scene, SPEC, imp, seed=42)
    np.testing.assert_array_equal(plan.cal_response, plan2.cal_response)
    np.testing.assert_array_equal(spectra[7], sd.synthesize_chunk(plan2, 7, 8)[0])

    plan3 = sd.plan_campaign(scene, SPEC, imp, seed=43)
    assert not np.array_equal(spectra[7], sd.synthesize_chunk(plan3, 7, 8)[0])


def drop_links(plan, empty):
    """plan without any path of the (capture, UE) links where the (M, U)
    mask empty is set; those links record crosstalk and noise only."""
    gains, delays, splits = [], [], []
    for j, rs in enumerate(plan.row_splits):
        counts = np.diff(rs)
        keep = np.repeat(~empty[:, j], counts)
        gains.append(plan.path_gains[j][keep])
        delays.append(plan.path_delays[j][keep])
        splits.append(np.concatenate([[0], np.cumsum(np.where(empty[:, j], 0, counts))]))
    return replace(plan, path_gains=gains, path_delays=delays, row_splits=splits)


def with_empty_links(plan):
    """plan with empty links in three kinds of chunk: captures 3-8 mix links
    with and without paths, and UE 2 has none in any of them; captures
    12-14 have no path at all. Every link of plan has a path."""
    assert all(np.all(np.diff(rs) > 0) for rs in plan.row_splits)
    empty = np.zeros((plan.n_captures, plan.n_ues), dtype=bool)
    empty[[3, 4, 5, 8], [7, 0, 0, 5]] = True
    empty[3:9, 2] = True
    empty[12:15] = True
    return drop_links(plan, empty)


def test_chunk_boundaries_do_not_change_bytes():
    plan = sd.plan_campaign(short_drive_scene(), SPEC, sd.ImpairmentConfig(), seed=9)
    # 5 and 6 fall inside UE 2's run of empty links, 13 inside the run of
    # captures without paths.
    edges = [0, 5, 6, 13, plan.n_captures]
    for p in (plan, with_empty_links(plan)):
        whole = sd.synthesize_chunk(p, 0, p.n_captures)
        parts = np.concatenate([sd.synthesize_chunk(p, a, b)
                                for a, b in zip(edges[:-1], edges[1:])])
        assert np.array_equal(whole.view(np.float32), parts.view(np.float32))


def chunk_peak_ratio(plan):
    """tracemalloc peak of synthesizing every capture of plan as one chunk,
    over the bytes of the result."""
    tracemalloc.start()
    try:
        out_bytes = sd.synthesize_chunk(plan, 0, plan.n_captures).nbytes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / out_bytes


def test_synthesize_chunk_peak_memory_is_bounded_by_its_output():
    # One UE's complex128 rows and one capture's noise draw are held beside
    # the complex64 result, never an (m, U, N) complex128 signal, which
    # alone is twice the result.
    plan = sd.plan_campaign(short_drive_scene(), SPEC, sd.ImpairmentConfig(), seed=6)
    assert plan.n_captures >= 16
    assert chunk_peak_ratio(plan) <= 2.0
    # A chunk without paths holds no channel rows: beside its result there
    # is only one capture's noise draw, small next to 81 captures.
    plan = sd.plan_campaign(short_drive_scene(x1=14.0), SPEC, sd.ImpairmentConfig(), seed=6)
    assert plan.n_captures == 81
    empty = drop_links(plan, np.ones((plan.n_captures, plan.n_ues), dtype=bool))
    assert chunk_peak_ratio(empty) <= 1.1


@pytest.mark.parametrize("noisy, crosstalk_db", [(True, -60.0), (False, -60.0), (True, None)],
                         ids=["True", "False", "no-crosstalk"])
def test_synthesize_chunk_bytes_match_complex_formulation(noisy, crosstalk_db):
    # The in-place real arithmetic reproduces, bit for bit, the complex
    # expression g * (signal + (z0 + 1j z1) sqrt(sigma2 / 2)) cast to complex64,
    # with sigma2 the variance of the mean of the 10 repetitions of a UE slot,
    # and g * signal without receiver noise. (z0, z1) is the documented
    # float32 Box-Muller transform of the capture's (U, 2, N) uniforms.
    # Links without paths take the same expression with a zero channel.
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=crosstalk_db)
    plan = sd.plan_campaign(short_drive_scene(), SPEC, imp, seed=4)
    plan = plan if noisy else noiseless(plan)
    assert_chunk_matches_complex_formulation(plan, 3, 9, noisy)
    plan = with_empty_links(plan)
    assert_chunk_matches_complex_formulation(plan, 3, 9, noisy)
    assert_chunk_matches_complex_formulation(plan, 12, 15, noisy)


def assert_chunk_matches_complex_formulation(plan, m0, m1, noisy):
    imp = plan.impairments
    n = SPEC.n_subcarriers
    got = sd.synthesize_chunk(plan, m0, m1)
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    g_lin = 10.0 ** (-plan.attenuation_db[m0:m1] / 20.0)
    sigma2 = imp.noise_sigma2_mw(plan.attenuation_db[m0:m1], SPEC.subcarrier_spacing_hz) / 10
    for i, m in enumerate(range(m0, m1)):
        signal = np.empty((plan.n_ues, n), dtype=np.complex128)
        for j in range(plan.n_ues):
            lo, hi = plan.row_splits[j][m], plan.row_splits[j][m + 1]
            h = chan.synthesize_rows(
                plan.path_gains[j][lo:hi], plan.path_delays[j][lo:hi],
                np.array([0, hi - lo]), SPEC, np.empty((1, n), dtype=np.complex128),
            )[0]
            if imp.crosstalk_coupling_db is not None:
                h = h + 10.0 ** (imp.crosstalk_coupling_db / 20.0)
            signal[j] = h * front
        if noisy:
            u = sd._capture_rng(plan.seed, m).random((plan.n_ues, 2, n))
            radius = np.sqrt(np.float32(-2.0) * np.log((1.0 - u[:, 0]).astype(np.float32)))
            theta = (2.0 * np.pi * u[:, 1]).astype(np.float32)
            z0, z1 = radius * np.cos(theta), radius * np.sin(theta)
            assert z0.dtype == z1.dtype == np.float32
            noise = (z0.astype(np.float64) + 1j * z1.astype(np.float64)) * np.sqrt(sigma2[i] / 2.0)
        else:
            assert sigma2[i] == 0.0
            noise = 0.0
        expected = (g_lin[i] * (signal + noise)).astype(np.complex64)
        assert got[i].tobytes() == expected.tobytes()


def test_noise_is_unit_complex_gaussian():
    # Without paths or crosstalk a capture is g * sqrt(sigma2 / 2) * z: the
    # unit noise z, rounded to complex64. Its components must be standard
    # normal, independent of each other and of the next capture's.
    plan = sd.plan_campaign(short_drive_scene(x1=16.4), SPEC,
                            sd.ImpairmentConfig(crosstalk_coupling_db=None), seed=21)
    plan = replace(plan, path_gains=[g[:0] for g in plan.path_gains],
                   path_delays=[d[:0] for d in plan.path_delays],
                   row_splits=[np.zeros_like(rs) for rs in plan.row_splits])
    m = plan.n_captures
    assert m >= 128
    sigma2 = plan.impairments.noise_sigma2_mw(plan.attenuation_db,
                                              SPEC.subcarrier_spacing_hz) / 10
    scale = 10.0 ** (-plan.attenuation_db / 20.0) * np.sqrt(sigma2 / 2.0)
    z = sd.synthesize_chunk(plan, 0, m).astype(np.complex128) / scale[:, None, None]
    n = z.size  # 129 x 8 x 2801 complex samples
    tol = 5.0 / np.sqrt(n)
    for part in (z.real.ravel(), z.imag.ravel()):
        assert abs(part.mean()) < tol
        assert abs(part.var() - 1.0) < 5.0 * np.sqrt(2.0 / n)
        assert stats.kstest(part, "norm").pvalue > 1e-3
    assert abs(np.corrcoef(z.real.ravel(), z.imag.ravel())[0, 1]) < tol
    # |z|^2 / 2 = -ln(1 - u) is exponential: its tail follows e^-t up to
    # t = 12, where the 2.9 million samples still expect about 18.
    half_power = np.abs(z.ravel()) ** 2 / 2.0
    for t in range(1, 13):
        lo, hi = stats.binom.interval(1 - 1e-6, n, np.exp(-t))
        assert lo <= np.count_nonzero(half_power > t) <= hi, t
    # Capture m and capture m + 1, same UE and tone, are uncorrelated.
    for part in (z.real, z.imag):
        assert abs(np.corrcoef(part[:-1].ravel(), part[1:].ravel())[0, 1]) < tol
    assert abs(np.corrcoef(z.real[:-1].ravel(), z.imag[1:].ravel())[0, 1]) < tol


def test_noiseless_capture_reproduces_channel():
    scene = short_drive_scene()
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    plan = sd.plan_campaign(scene, SPEC, imp, seed=5)
    m = 4
    raw = sd.synthesize_chunk(noiseless(plan), m, m + 1)[0]
    g = 10 ** (-plan.attenuation_db[m] / 20.0)
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    for j in range(8):
        lo, hi = plan.row_splits[j][m], plan.row_splits[j][m + 1]
        h = chan.synthesize_rows(
            plan.path_gains[j][lo:hi], plan.path_delays[j][lo:hi],
            np.array([0, hi - lo]), SPEC,
            np.empty((1, SPEC.n_subcarriers), dtype=np.complex128),
        )[0]
        expected = (g * front * h).astype(np.complex64)
        np.testing.assert_allclose(raw[j], expected, rtol=0, atol=np.abs(expected).max() * 2e-6)


def test_crosstalk_appears_pre_attenuator():
    scene = short_drive_scene()
    base = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    with_xt = sd.ImpairmentConfig(crosstalk_coupling_db=-60.0)
    p0 = sd.plan_campaign(scene, SPEC, base, seed=2)
    p1 = sd.plan_campaign(scene, SPEC, with_xt, seed=2)
    np.testing.assert_array_equal(p0.attenuation_db, p1.attenuation_db)
    m = 3
    a = sd.synthesize_chunk(noiseless(p0), m, m + 1)[0].astype(np.complex128)
    b = sd.synthesize_chunk(noiseless(p1), m, m + 1)[0].astype(np.complex128)
    g = 10 ** (-p0.attenuation_db[m] / 20.0)
    leak = 1e-3 * g * p0.tx_tone_amplitude * p0.reference_tones * p0.chain
    for j in range(8):
        np.testing.assert_allclose(b[j] - a[j], leak, rtol=0, atol=np.abs(leak).max() * 1e-5)


def test_agc_reacts_to_approach_with_noise_penalty():
    # Drive toward the UE line so input power crosses the AGC window.
    scene = make_scene(
        buildings=[],
        waypoints=[
            sc.Waypoint("start", x=20.0, y=10.0, height=4.5),
            sc.Waypoint("drive", x=20.0, y=50.0),
        ],
    )
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    plan = sd.plan_campaign(scene, SPEC, imp, seed=11)
    att = plan.attenuation_db
    assert att[-1] > att[0]
    assert np.all(np.diff(att) >= 0)  # monotone approach here
    # Attenuation steps coincide with noise variance steps, capped at 20 dB.
    s2 = imp.noise_sigma2_mw(att, SPEC.subcarrier_spacing_hz)
    penalty_db = 10 * np.log10(s2 / imp.noise_sigma2_mw(0.0, SPEC.subcarrier_spacing_hz))
    assert penalty_db.max() <= 20.0 + 1e-9
    np.testing.assert_allclose(penalty_db, np.minimum(att * 2 / 3, 20.0), atol=1e-9)


def test_measured_power_matches_synthesized_channel():
    scene = short_drive_scene()
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    plan = sd.plan_campaign(scene, SPEC, imp, seed=3)
    m = 7
    for j in range(8):
        lo, hi = plan.row_splits[j][m], plan.row_splits[j][m + 1]
        h = chan.synthesize_rows(
            plan.path_gains[j][lo:hi], plan.path_delays[j][lo:hi],
            np.array([0, hi - lo]), SPEC,
            np.empty((1, SPEC.n_subcarriers), dtype=np.complex128),
        )[0]
        expect = plan.impairments.tx_power_dbm + 10 * np.log10((np.abs(h) ** 2).mean())
        assert plan.measured_power_dbm[m, j] == pytest.approx(expect, abs=1e-9)
