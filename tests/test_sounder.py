import numpy as np
import pytest

from cfmm import channel as chan
from cfmm import raypaths as rp
from cfmm import scene as sc
from cfmm import sounder as sd
from cfmm import waveform as wf
from conftest import make_scene

SPEC = wf.WaveformSpec()


def short_drive_scene(x0=10.0, x1=11.0, y=10.0, height=4.5):
    return make_scene(waypoints=[
        sc.Waypoint("start", x=x0, y=y, height=height),
        sc.Waypoint("drive", x=x1, y=y),
    ])


class TestAGC:
    CFG = sd.AGCConfig()

    def up(self, att, p):
        state = sd.AGCState(config=self.CFG, current_attenuation_db=att)
        return sd.agc_update(state, p).current_attenuation_db

    def test_selects_smallest_step_landing_in_window(self):
        assert self.up(0.0, -30.0) == 10.0  # -40 hits the window top
        assert self.up(0.0, -25.0) == 20.0  # -45 hits the window bottom
        assert self.up(0.0, -12.0) == 30.0
        assert self.up(0.0, -41.0) == 0.0

    def test_holds_inside_window(self):
        state = sd.AGCState(config=self.CFG, current_attenuation_db=10.0)
        out = sd.agc_update(state, -31.0)
        assert out is state  # -41 dBm output, no change

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


def test_inject_crosstalk_identity_and_level():
    spectrum = np.zeros(16, dtype=complex)
    ref = np.exp(1j * np.linspace(0, 2, 16))
    assert sd.inject_crosstalk(spectrum, None, ref) is spectrum
    out = sd.inject_crosstalk(spectrum, -60.0, ref)
    np.testing.assert_allclose(np.abs(out), 1e-3, rtol=1e-12)


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
    assert spectra.shape == (21, 8, 1, 2801)
    assert spectra.dtype == np.complex64
    assert plan.impairments.n_repetitions == 10

    plan2 = sd.plan_campaign(scene, SPEC, imp, seed=42)
    np.testing.assert_array_equal(plan.cal_response, plan2.cal_response)
    np.testing.assert_array_equal(spectra[7], sd.synthesize_chunk(plan2, 7, 8)[0])

    plan3 = sd.plan_campaign(scene, SPEC, imp, seed=43)
    assert not np.array_equal(spectra[7], sd.synthesize_chunk(plan3, 7, 8)[0])


def test_store_repetitions_shape_and_noise_scaling():
    scene = short_drive_scene()
    stored = sd.ImpairmentConfig(store_repetitions=True, crosstalk_coupling_db=None)
    averaged = sd.ImpairmentConfig(store_repetitions=False, crosstalk_coupling_db=None)
    p_stored = sd.plan_campaign(scene, SPEC, stored, seed=1)
    p_avg = sd.plan_campaign(scene, SPEC, averaged, seed=1)

    full = sd.synthesize_chunk(p_stored, 0, 2)
    assert full.shape == (2, 8, 10, 2801)
    assert not np.array_equal(full[0, 0, 0], full[0, 0, 1])  # independent reps

    # Averaged storage carries the variance of the repetition mean: 10x less.
    def noise_var(plan):
        noisy = sd.synthesize_chunk(plan, 0, 1).astype(np.complex128)
        clean = sd.synthesize_chunk(plan, 0, 1, include_noise=False).astype(np.complex128)
        return (np.abs(noisy - clean) ** 2).mean()

    ratio = noise_var(p_stored) / noise_var(p_avg)
    assert ratio == pytest.approx(10.0, rel=0.1)


def test_chunk_boundaries_do_not_change_bytes():
    scene = short_drive_scene()
    plan = sd.plan_campaign(scene, SPEC, sd.ImpairmentConfig(), seed=9)
    whole = sd.synthesize_chunk(plan, 0, plan.n_captures)
    parts = np.concatenate([
        sd.synthesize_chunk(plan, 0, 5),
        sd.synthesize_chunk(plan, 5, 6),
        sd.synthesize_chunk(plan, 6, plan.n_captures),
    ])
    assert np.array_equal(whole.view(np.float32), parts.view(np.float32))


@pytest.mark.parametrize("store_repetitions, include_noise",
                         [(True, True), (False, True), (False, False)])
def test_synthesize_chunk_bytes_match_complex_formulation(store_repetitions, include_noise):
    # The in-place real arithmetic reproduces, bit for bit, the complex
    # expression g * (signal + (z0 + 1j z1) sqrt(sigma2 / 2)) cast to complex64.
    plan = sd.plan_campaign(short_drive_scene(), SPEC,
                            sd.ImpairmentConfig(store_repetitions=store_repetitions), seed=4)
    imp = plan.impairments
    n = SPEC.n_subcarriers
    m0, m1 = 3, 9
    got = sd.synthesize_chunk(plan, m0, m1, include_noise=include_noise)
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    g_lin = 10.0 ** (-plan.attenuation_db[m0:m1] / 20.0)
    sigma2 = imp.noise_sigma2_mw(plan.attenuation_db[m0:m1], SPEC.subcarrier_spacing_hz)
    if not store_repetitions:
        sigma2 = sigma2 / imp.n_repetitions
    for i, m in enumerate(range(m0, m1)):
        signal = np.empty((plan.n_ues, n), dtype=np.complex128)
        for j in range(plan.n_ues):
            lo, hi = plan.row_splits[j][m], plan.row_splits[j][m + 1]
            h = chan.synthesize_rows(
                plan.path_gains[j][lo:hi], plan.path_delays[j][lo:hi],
                np.array([0, hi - lo]), SPEC.tone_offsets_hz(),
            )[0]
            signal[j] = sd.inject_crosstalk(h, imp.crosstalk_coupling_db, np.ones(n)) * front
        if include_noise:
            z = sd._capture_rng(plan.seed, m).standard_normal(
                (plan.n_ues, plan.n_reps_stored(), n, 2))
            noise = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(sigma2[i] / 2.0)
        else:
            noise = 0.0
        expected = (g_lin[i] * (signal[:, None, :] + noise)).astype(np.complex64)
        assert got[i].tobytes() == expected.tobytes()


def test_noiseless_capture_reproduces_channel():
    scene = short_drive_scene()
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=None, store_repetitions=True)
    plan = sd.plan_campaign(scene, SPEC, imp, seed=5)
    m = 4
    raw = sd.synthesize_chunk(plan, m, m + 1, include_noise=False)[0]
    g = 10 ** (-plan.attenuation_db[m] / 20.0)
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    for j in range(8):
        lo, hi = plan.row_splits[j][m], plan.row_splits[j][m + 1]
        h = chan.synthesize_rows(
            plan.path_gains[j][lo:hi], plan.path_delays[j][lo:hi],
            np.array([0, hi - lo]), SPEC.tone_offsets_hz(),
        )[0]
        expected = (g * front * h).astype(np.complex64)
        np.testing.assert_allclose(raw[j, 0], expected, rtol=0, atol=np.abs(expected).max() * 2e-6)
        # All repetitions identical without noise.
        assert np.array_equal(raw[j, 0], raw[j, 9])


def test_crosstalk_appears_pre_attenuator():
    scene = short_drive_scene()
    base = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    with_xt = sd.ImpairmentConfig(crosstalk_coupling_db=-60.0)
    p0 = sd.plan_campaign(scene, SPEC, base, seed=2)
    p1 = sd.plan_campaign(scene, SPEC, with_xt, seed=2)
    np.testing.assert_array_equal(p0.attenuation_db, p1.attenuation_db)
    m = 3
    a = sd.synthesize_chunk(p0, m, m + 1, include_noise=False)[0].astype(np.complex128)
    b = sd.synthesize_chunk(p1, m, m + 1, include_noise=False)[0].astype(np.complex128)
    g = 10 ** (-p0.attenuation_db[m] / 20.0)
    leak = 1e-3 * g * p0.tx_tone_amplitude * p0.reference_tones * p0.chain
    for j in range(8):
        np.testing.assert_allclose(b[j, 0] - a[j, 0], leak, rtol=0, atol=np.abs(leak).max() * 1e-5)


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
            np.array([0, hi - lo]), SPEC.tone_offsets_hz(),
        )[0]
        expect = plan.impairments.tx_power_dbm + 10 * np.log10((np.abs(h) ** 2).mean())
        assert plan.measured_power_dbm[m, j] == pytest.approx(expect, abs=1e-9)
