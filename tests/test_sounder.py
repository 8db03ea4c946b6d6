import tracemalloc
from dataclasses import fields, replace

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
    def up(self, att, p):
        """Attenuation after a capture at p dBm, from a settled att dB."""
        # att - 42.5 dBm sits mid-window at att dB, so capture 0 settles on
        # att and capture 1 holds it; capture 2 reacts to capture 1's p.
        seq = sd.agc_attenuation_sequence(np.array([att - 42.5, p, p]))
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
        att = sd.agc_attenuation_sequence(powers)
        # Capture 0 converges on its own power; changes land one late.
        np.testing.assert_allclose(att, [10.0, 10.0, 10.0, 0.0, 0.0])


class TestImpairments:
    def test_noise_figure_penalty(self):
        imp = sd.ImpairmentConfig()
        nf = lambda att: sd.BASE_NOISE_FIGURE_DB + min(
            sd.NF_PENALTY_PER_ATT_DB * att, sd.NF_PENALTY_CAP_DB)
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
        r1 = sd.make_chain_response(2801)
        r2 = sd.make_chain_response(2801)
        np.testing.assert_array_equal(r1, r2)
        mag_db = 20 * np.log10(np.abs(r1))
        assert np.abs(mag_db).max() == pytest.approx(3.0, abs=1e-9)
        assert np.abs(np.angle(r1)).max() <= np.pi / 4 + 1e-9
        assert np.abs(r1).min() > 0.5


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


def test_plan_does_not_depend_on_trace_span(monkeypatch):
    # 23 poses in tracer spans of 7 poses, the last one short, give the
    # plan of one span, bit for bit.
    plan = sd.plan_campaign(short_drive_scene(x1=11.1), SPEC, sd.ImpairmentConfig(), seed=8)
    assert plan.n_captures == 23 < sd.TRACE_SPAN_POSES
    monkeypatch.setattr(sd, "TRACE_SPAN_POSES", 7)
    spans = sd.plan_campaign(short_drive_scene(x1=11.1), SPEC, sd.ImpairmentConfig(), seed=8)
    for f in fields(sd.CampaignPlan):
        a, b = getattr(plan, f.name), getattr(spans, f.name)
        if isinstance(a, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
    assert plan.row_splits.shape == (23 * 8 + 1,)


def link_paths(plan, m, j):
    """(gains, delays) of the paths of link (capture m, UE j) of plan."""
    lo, hi = plan.row_splits[m * plan.n_ues + j:m * plan.n_ues + j + 2]
    return plan.path_gains[lo:hi], plan.path_delays[lo:hi]


def drop_links(plan, empty):
    """plan without any path of the (capture, UE) links where the (M, U)
    mask empty is set; those links record crosstalk and noise only."""
    counts = np.diff(plan.row_splits)
    keep = np.repeat(~empty.ravel(), counts)
    return replace(plan, path_gains=plan.path_gains[keep], path_delays=plan.path_delays[keep],
                   row_splits=np.concatenate([[0], np.cumsum(np.where(empty.ravel(), 0, counts))]))


def with_empty_links(plan):
    """plan with empty links in three kinds of chunk: captures 3-8 mix links
    with and without paths, and UE 2 has none in any of them; captures
    12-14 have no path at all. Every link of plan has a path."""
    assert np.all(np.diff(plan.row_splits) > 0)
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
    # At most m links' complex128 rows and one capture's noise draw are
    # held beside the complex64 result, never an (m, U, N) complex128
    # signal, which alone is twice the result.
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
    # The in-place float32 arithmetic reproduces, bit for bit, the documented
    # expression g * (signal + s z) with every operand and every result
    # rounded to float32: complex64(signal), s = float32(sqrt(sigma2 / 2)),
    # sigma2 the variance of the mean of the 10 repetitions of a UE slot,
    # and g = float32 of the attenuator gain; g * signal without receiver
    # noise. z is the documented float32 Box-Muller transform of the
    # capture's U x N PCG64 words, computed here from the words with shifts
    # and masks instead of 32-bit views. Links without paths take the same
    # expression with a zero channel.
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=crosstalk_db)
    plan = sd.plan_campaign(short_drive_scene(), SPEC, imp, seed=4)
    plan = plan if noisy else noiseless(plan)
    assert_chunk_matches_complex_formulation(plan, 3, 9, noisy)
    plan = with_empty_links(plan)
    assert_chunk_matches_complex_formulation(plan, 3, 9, noisy)
    assert_chunk_matches_complex_formulation(plan, 12, 15, noisy)


def unit_noise_from_words(seed, m, n_ues, n):
    """Capture m's unit noise components (z0, z1), each (U, N) float32."""
    stream = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))
    words = stream.random_raw(n_ues * n).reshape(n_ues, n)
    # The low and high 32 bits as signed integers.
    a, b = ((words >> shift & 0xFFFFFFFF).astype(np.uint32).view(np.int32).astype(np.float32)
            for shift in (0, 32))
    u1 = (a + np.float32(0.5)) * np.float32(2.0 ** -31)
    radius = np.sqrt(-np.log(u1 * u1))
    theta = b * np.float32(np.pi / 2 ** 31) + np.float32(np.pi)
    z0, z1 = radius * np.cos(theta), radius * np.sin(theta)
    assert z0.dtype == z1.dtype == np.float32
    return z0, z1


def capture_signal(plan, m):
    """Capture m's received signal (U, N) without noise or gain, computed
    link by link in complex128 and rounded to complex64."""
    n = SPEC.n_subcarriers
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    signal = np.empty((plan.n_ues, n), dtype=np.complex128)
    for j in range(plan.n_ues):
        gains, delays = link_paths(plan, m, j)
        h = chan.synthesize_rows(
            gains, delays, np.array([0, gains.size]), SPEC,
            np.empty((1, n), dtype=np.complex128),
        )[0]
        if plan.impairments.crosstalk_coupling_db is not None:
            h = h + 10.0 ** (plan.impairments.crosstalk_coupling_db / 20.0)
        signal[j] = h * front
    return signal.astype(np.complex64)


def assert_chunk_matches_complex_formulation(plan, m0, m1, noisy):
    imp = plan.impairments
    n = SPEC.n_subcarriers
    got = sd.synthesize_chunk(plan, m0, m1)
    g_lin = (10.0 ** (-plan.attenuation_db[m0:m1] / 20.0)).astype(np.float32)
    sigma2 = imp.noise_sigma2_mw(plan.attenuation_db[m0:m1], SPEC.subcarrier_spacing_hz) / 10
    scale = np.sqrt(sigma2 / 2.0).astype(np.float32)
    assert np.all(scale > 0) if noisy else np.all(scale == 0)
    for i, m in enumerate(range(m0, m1)):
        signal = capture_signal(plan, m)
        z0, z1 = unit_noise_from_words(plan.seed, m, plan.n_ues, n)
        expected = np.empty((plan.n_ues, n, 2), dtype=np.float32)
        expected[..., 0] = g_lin[i] * (signal.real + scale[i] * z0)
        expected[..., 1] = g_lin[i] * (signal.imag + scale[i] * z1)
        assert got[i].tobytes() == expected.tobytes()


def test_capture_without_receiver_noise_stores_gain_times_signal():
    # Zero noise scale times the finite unit noise adds nothing, so a
    # capture without receiver noise stores float32(g) * complex64(signal)
    # exactly, on links with and without paths, and never a NaN.
    plan = sd.plan_campaign(short_drive_scene(), SPEC, sd.ImpairmentConfig(), seed=4)
    plan = noiseless(with_empty_links(replace(plan, attenuation_db=np.full(plan.n_captures, 30.0))))
    m = 3  # UEs 2 and 7 have no path here
    got = sd.synthesize_chunk(plan, m, m + 1)[0]
    assert np.isfinite(got.view(np.float32)).all()
    g = np.float32(10.0 ** (-30.0 / 20.0))
    assert g != 1
    assert got.tobytes() == (g * capture_signal(plan, m).view(np.float32)).tobytes()


def word(a, b):
    """The uint64 word whose low and high 32-bit halves read as the signed
    integers a and b."""
    return (b % 2 ** 32) << 32 | a % 2 ** 32


def test_box_muller_on_chosen_words():
    # Both a = 0 (all-zero bits) and a = -1 (all-one bits) give the smallest
    # u1, 2^-32, and so the largest radius, sqrt(64 ln 2); a = -2^31 and
    # a = 2^31 - 1 (which rounds to 2^31) give u1 = 1 and radius 0; b = -2^31
    # and b = 2^31 - 1 give the ends of the angle's range.
    words = np.array([word(0, 0), word(-1, -1), word(-2 ** 31, -2 ** 31),
                      word(2 ** 31 - 1, 2 ** 31 - 1)], dtype=np.uint64)
    assert words[0] == 0 and words[1] == 2 ** 64 - 1
    r, theta = sd._box_muller(words)
    assert r.dtype == theta.dtype == np.float32
    assert np.isfinite(r).all() and np.isfinite(theta).all()
    largest = np.sqrt(64 * np.log(2.0))
    np.testing.assert_allclose(r[:2], largest, rtol=1e-6)
    assert np.all(r <= largest * (1 + 1e-6))
    np.testing.assert_array_equal(r[2:], 0.0)
    assert np.all((theta >= 0) & (theta <= np.float32(2 * np.pi)))
    np.testing.assert_array_equal(theta[2:], [0.0, np.float32(2 * np.pi)])


def test_noise_is_unit_complex_gaussian():
    # Without paths or crosstalk a capture is g * sqrt(sigma2 / 2) * z: the
    # unit noise z, rounded to complex64. Its components must be standard
    # normal, independent of each other and of the next capture's.
    plan = sd.plan_campaign(short_drive_scene(x1=16.4), SPEC,
                            sd.ImpairmentConfig(crosstalk_coupling_db=None), seed=21)
    plan = drop_links(plan, np.ones((plan.n_captures, plan.n_ues), dtype=bool))
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
    # |z|^2 / 2 = -ln u1 is exponential: its tail follows e^-t up to
    # t = 12, where the 2.9 million samples still expect about 18.
    half_power = np.abs(z.ravel()) ** 2 / 2.0
    for t in range(1, 13):
        lo, hi = stats.binom.interval(1 - 1e-6, n, np.exp(-t))
        assert lo <= np.count_nonzero(half_power > t) <= hi, t
    # Capture m and capture m + 1, same UE and tone, are uncorrelated.
    for part in (z.real, z.imag):
        assert abs(np.corrcoef(part[:-1].ravel(), part[1:].ravel())[0, 1]) < tol
    assert abs(np.corrcoef(z.real[:-1].ravel(), z.imag[1:].ravel())[0, 1]) < tol
    # UE j and UE j + 1 of one capture, same tone, are uncorrelated.
    for part in (z.real, z.imag):
        assert abs(np.corrcoef(part[:, :-1].ravel(), part[:, 1:].ravel())[0, 1]) < tol
    # |z|^2 and the angle come from the two halves of one word: they are
    # independent, so |z|^2 is uncorrelated with the angle's distance from 0
    # (the angle is uniform, so that distance is too).
    assert abs(np.corrcoef(half_power, np.abs(np.angle(z.ravel())))[0, 1]) < tol


def test_noiseless_capture_reproduces_channel():
    scene = short_drive_scene()
    imp = sd.ImpairmentConfig(crosstalk_coupling_db=None)
    plan = sd.plan_campaign(scene, SPEC, imp, seed=5)
    m = 4
    raw = sd.synthesize_chunk(noiseless(plan), m, m + 1)[0]
    g = 10 ** (-plan.attenuation_db[m] / 20.0)
    front = plan.tx_tone_amplitude * plan.reference_tones * plan.chain
    for j in range(8):
        gains, delays = link_paths(plan, m, j)
        h = chan.synthesize_rows(
            gains, delays, np.array([0, gains.size]), SPEC,
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
        gains, delays = link_paths(plan, m, j)
        h = chan.synthesize_rows(
            gains, delays, np.array([0, gains.size]), SPEC,
            np.empty((1, SPEC.n_subcarriers), dtype=np.complex128),
        )[0]
        expect = sd.TX_POWER_DBM + 10 * np.log10((np.abs(h) ** 2).mean())
        assert plan.measured_power_dbm[m, j] == pytest.approx(expect, abs=1e-9)
