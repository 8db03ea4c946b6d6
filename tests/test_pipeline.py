import builtins
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from cfmm import pipeline as pl
from cfmm import sounder as sd
from cfmm import waveform as wf
from conftest import (PlanSource, dense, dense_rows, first_poses, make_scene, noiseless,
                      process_matrix)


def brute_pdp(h, beta, pad):
    # Direct-sum definition: P(q) = |sum_k w_k H_k exp(+2j pi k q / (F N))|^2
    n = h.shape[-1]
    fn = pad * n
    w = pl.kaiser_taps(n, beta)
    e = np.exp(2j * np.pi * np.outer(np.arange(fn), np.arange(n)) / fn)
    return np.abs(e @ (w * h)) ** 2


def brute_at(h, beta, pad, q):
    # The same sum at signed bins q; q < 0 aliases bin F N + q.
    n = h.shape[-1]
    w = pl.kaiser_taps(n, beta)
    e = np.exp(2j * np.pi * np.outer(q, np.arange(n)) / (pad * n))
    return np.abs(e @ (w * h)) ** 2


def scipy_pdp(h, beta, pad, bins=None):
    # The same Bluestein span transform on scipy.fft, whose pocketfft and
    # next_fast_len are an independent implementation of the FFT and of
    # the length choice: compute_pdp must match it bit for bit.
    import scipy.fft as sfft
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[-1]
    big_l = pad * n
    start, stop = (0, big_l) if bins is None else bins
    span = stop - start
    nfft = sfft.next_fast_len(n + span - 1)
    k = np.arange(max(n, span), dtype=np.int64)
    chirp = np.exp(1j * np.pi * ((k * k) % (2 * big_l)) / big_l)
    rotate = np.exp(2j * np.pi * ((k[:n] * start) % big_l) / big_l)
    kernel = np.zeros(nfft, dtype=np.complex128)
    kernel[:span] = chirp[:span].conj()
    kernel[nfft - n + 1:] = chirp[n - 1:0:-1].conj()
    x = sfft.fft(h * (pl.kaiser_taps(n, beta) * rotate * chirp[:n]), n=nfft, axis=-1)
    x *= sfft.fft(kernel)
    x = sfft.ifft(x, axis=-1)[..., :span]
    return x.real ** 2 + x.imag ** 2


def on_grid_channel(n, native_bin, amplitude=1.0):
    k = np.arange(n)
    return amplitude * np.exp(-2j * np.pi * k * native_bin / n)


class TestTaps:
    def test_unit_coherent_gain(self):
        for beta in (0.0, 1.0, 3.0):
            assert pl.kaiser_taps(512, beta).sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_beta_is_rectangular(self):
        np.testing.assert_allclose(pl.kaiser_taps(64, 0.0), np.full(64, 1 / 64))


def calibrated(raw, cal, ref, attenuation_db=0.0):
    tone_gain, row_gain = pl.calibrate(cal, ref, attenuation_db)
    return raw * tone_gain * np.asarray(row_gain)[..., None]


class TestCalibrate:
    def test_identity(self):
        raw = np.arange(1, 9, dtype=complex)
        out = calibrated(raw, np.ones(8), np.ones(8))
        np.testing.assert_allclose(out, raw)

    def test_divides_out_chain(self):
        rng = np.random.default_rng(0)
        chain = sd.make_chain_response(256, sd.ChainRippleConfig())
        h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        ref = np.exp(1j * rng.uniform(0, 2 * np.pi, 256))
        raw = chain * ref * h
        out = calibrated(raw, chain, ref)
        np.testing.assert_allclose(out, h, rtol=1e-12)

    def test_undoes_attenuator(self):
        raw = 10 ** (-30 / 20.0) * np.ones((3, 8), dtype=complex)
        out = calibrated(raw, np.ones(8), np.ones(8), attenuation_db=30.0)
        np.testing.assert_allclose(out, 1.0, rtol=1e-12)
        per_row = calibrated(raw, np.ones(8), np.ones(8),
                             attenuation_db=np.array([30.0, 30.0, 30.0]))
        np.testing.assert_allclose(per_row, 1.0, rtol=1e-12)

    def test_commutes_with_repetition_average(self):
        rng = np.random.default_rng(1)
        chain = np.exp(1j * rng.uniform(0, 1, 64)) * rng.uniform(0.7, 1.3, 64)
        reps = rng.standard_normal((10, 64)) + 1j * rng.standard_normal((10, 64))
        a = calibrated(reps.mean(axis=0), chain, np.ones(64))
        b = calibrated(reps, chain, np.ones(64)).mean(axis=0)
        np.testing.assert_allclose(a, b, rtol=1e-12)


class TestComputePDP:
    def test_flat_spectrum_is_impulse(self):
        p = pl.compute_pdp(np.ones(64), pl.kaiser_taps(64, 0.0), 1, (0, 64), 1.0,
                           np.empty(()))
        assert p[0] == pytest.approx(1.0, rel=1e-12)
        assert p[1:].max() <= 1e-20 * p[0]

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(16, 65))
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = pl.compute_pdp(h, pl.kaiser_taps(n, 3.0), 3, (0, 3 * n), 1.0,
                                 np.empty(()))
            want = brute_pdp(h, 3.0, 3)
            np.testing.assert_allclose(got, want, rtol=1e-9,
                                       atol=want.max() * 1e-13)

    def test_on_grid_path_peak_and_sidelobes(self):
        n, f = 2801, 10
        p = pl.compute_pdp(on_grid_channel(n, 117, amplitude=0.5), pl.kaiser_taps(n, 3.0), f,
                           (0, f * n), 1.0, np.empty(()))
        assert int(np.argmax(p)) == 117 * f
        rel_db = 10 * np.log10(p / p[117 * f] + 1e-300)
        # First sidelobe of the unit-gain window sits near -69.8 dB, just
        # past the mainlobe null at +-3.2 native bins.
        near = rel_db[117 * f + 33:117 * f + 400].max()
        assert near == pytest.approx(-69.8, abs=1.0)
        # Far rejection leaves >100 dB of in-gate dynamic range.
        far = rel_db[(117 + 300) * f:(117 + 360) * f].max()
        assert far <= -110.0

    def test_peak_power_window_invariant(self):
        n, f = 1401, 4
        h = on_grid_channel(n, 200, amplitude=0.3)
        for beta in (0.0, 3.0):
            p = pl.compute_pdp(h, pl.kaiser_taps(n, beta), f, (0, f * n), 1.0, np.empty(()))
            assert p[200 * f] == pytest.approx(0.09, rel=1e-12)

    def test_parseval_unwindowed(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        p = pl.compute_pdp(h, pl.kaiser_taps(256, 0.0), 1, (0, 256), 1.0, np.empty(()))
        assert p.sum() == pytest.approx((np.abs(h) ** 2).sum() / 256, rel=1e-12)
        # Row gains scale each row's profile, and energy is its whole sum.
        energy = np.empty(2)
        p = pl.compute_pdp(np.stack([h, 2 * h]), pl.kaiser_taps(256, 0.0), 1, (0, 256),
                           np.array([3.0, 0.5]), energy)
        want = (np.abs(h) ** 2).sum() / 256 * np.array([9.0, 1.0])
        np.testing.assert_allclose(p.sum(axis=-1), want, rtol=1e-12)
        np.testing.assert_allclose(energy, want, rtol=1e-12)

    def test_span_matches_direct_sum(self):
        # Spans through delay 0 from negative delays, and past bin L - 1.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(16, 65))
            f = int(rng.integers(2, 11))
            big_l = n * f
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lo = -int(rng.integers(1, big_l // 2))
            for start, stop in ((lo, int(rng.integers(1, big_l // 2))),
                                (big_l + lo, big_l + int(rng.integers(1, big_l // 2))),
                                (lo - big_l // 3, lo)):
                got = pl.compute_pdp(h, pl.kaiser_taps(n, 3.0), f, (start, stop), 1.0,
                                     np.empty(()))
                want = brute_at(h, 3.0, f, np.arange(start, stop))
                np.testing.assert_allclose(got, want, rtol=1e-9,
                                           atol=want.max() * 1e-13)

    def test_campaign_span_matches_direct_sum(self):
        # The span process_chunk evaluates at the default parameters:
        # signed bins -510..4499 of the 28010-bin profile.
        n, f = 2801, 10
        rng = np.random.default_rng(4)
        h = on_grid_channel(n, 117) + 1e-3 * (rng.standard_normal(n)
                                              + 1j * rng.standard_normal(n))
        start, stop = 2750 * f - n * f, 450 * f
        got = pl.compute_pdp(h, pl.kaiser_taps(n, 3.0), f, (start, stop), 1.0, np.empty(()))
        assert got.shape == (5010,)
        pick = np.concatenate([np.arange(start, start + 40), np.arange(-20, 20),
                               np.arange(1160, 1180), np.arange(stop - 40, stop),
                               rng.integers(start, stop, 100)])
        want = brute_at(h, 3.0, f, pick)
        np.testing.assert_allclose(got[pick - start], want, rtol=1e-9,
                                   atol=want.max() * 1e-13)

    @pytest.mark.parametrize("bins", [(27500 - 28010, 4500), None])
    def test_bit_identical_to_scipy_reference(self, bins):
        # The campaign span (signed bins -510..4499) and the full profile.
        rng = np.random.default_rng(5)
        h = on_grid_channel(2801, 117) + 1e-3 * (rng.standard_normal((6, 2801))
                                                 + 1j * rng.standard_normal((6, 2801)))
        got = pl.compute_pdp(h, pl.kaiser_taps(2801, 3.0), 10, bins or (0, 28010), 1.0,
                             np.empty(6))
        want = scipy_pdp(h, 3.0, 10, bins)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_row_blocks_match_one_row_calls(self):
        # compute_pdp runs TRANSFORM_BLOCK_ROWS rows at a time through one
        # reused buffer. Row counts on both sides of the block boundaries,
        # and a (captures, UEs) input, give every row's span and energy bit
        # for bit as a call on that row alone.
        block = pl.TRANSFORM_BLOCK_ROWS
        n, f = 2801, 10
        span = (2750 * f - n * f, 450 * f)
        rng = np.random.default_rng(9)
        weights = pl.kaiser_taps(n, 3.0) * np.exp(2j * np.pi * rng.random(n))
        for shape in [(1,), (block - 1,), (block,), (block + 1,), (2 * block + 3,), (5, 8)]:
            h = (rng.standard_normal(shape + (n,))
                 + 1j * rng.standard_normal(shape + (n,))).astype(np.complex64)
            gain = rng.uniform(0.5, 2.0, shape)
            energy = np.empty(shape)
            got = pl.compute_pdp(h, weights, f, span, gain, energy)
            assert got.shape == shape + (5010,)
            for i in np.ndindex(shape):
                one = np.empty(1)
                want = pl.compute_pdp(h[i][None], weights, f, span, gain[i][None], one)
                assert got[i].tobytes() == want[0].tobytes(), (shape, i)
                assert energy[i].tobytes() == one.tobytes(), (shape, i)

    def test_working_memory_does_not_grow_with_rows(self):
        # Beyond its output, compute_pdp holds one row block's buffers, so
        # its extra memory is the same at 4 blocks of rows as at one. An
        # FFT buffer sized by the rows would make it grow about 4 x.
        block = pl.TRANSFORM_BLOCK_ROWS
        n, f = 2801, 10
        span = (2750 * f - n * f, 450 * f)
        weights = pl.kaiser_taps(n, 3.0)

        def extra(rows):
            h = np.ones((rows, n), dtype=np.complex64)
            gain, energy = np.ones(rows), np.empty(rows)
            pl.compute_pdp(h, weights, f, span, gain, energy)  # fills the chirp cache
            tracemalloc.start()
            try:
                p = pl.compute_pdp(h, weights, f, span, gain, energy)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - p.nbytes

        one, four = extra(block), extra(4 * block)
        assert four < 1.1 * one, (one, four)

    def test_fast_len_matches_scipy(self):
        from scipy.fft import next_fast_len
        for target in [*range(1, 20001), 28010, 100003]:
            assert pl._fast_len(target) == next_fast_len(target), target
        assert pl._fast_len(2801 + 5010 - 1) == 7840

    def test_bad_span_rejected(self):
        h = np.ones(16)
        for bins in ((5, 5), (0, 16 * 3 + 1)):
            with pytest.raises(ValueError, match="span"):
                pl.compute_pdp(h, pl.kaiser_taps(16, 3.0), 3, bins, 1.0, np.empty(()))


class TestSmallScaleAverage:
    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).random((6, 4))
        np.testing.assert_array_equal(pl.small_scale_average(x, 1), x)

    def test_mean_of_equals(self):
        x = np.tile([2.0, 5.0], (20, 1))
        np.testing.assert_allclose(pl.small_scale_average(x, 9), x)

    def test_spike_spreads_as_mean(self):
        x = np.zeros((17, 1))
        x[8, 0] = 9.0
        out = pl.small_scale_average(x, 9)
        assert out[8, 0] == pytest.approx(1.0)
        assert out[4, 0] == pytest.approx(1.0)  # window 4..12 still holds it
        assert out[3, 0] == pytest.approx(0.0)

    def test_truncated_edges(self):
        x = np.arange(12, dtype=float).reshape(12, 1)
        out = pl.small_scale_average(x, 9)
        assert out[0, 0] == pytest.approx(np.mean(x[0:5]))
        assert out[1, 0] == pytest.approx(np.mean(x[0:6]))
        assert out[11, 0] == pytest.approx(np.mean(x[7:12]))


def region_mean(ssa, region):
    return ssa[..., region].mean(axis=-1)


class TestThreshold:
    def test_level_and_mask(self):
        ssa = np.ones((1, 100))
        ssa[0, 10] = 10 ** 0.71  # just above mean + 7 dB
        ssa[0, 20] = 10 ** 0.69  # just below
        mask, noise_db = pl.threshold_noise(ssa, region_mean(ssa, slice(50, 100)), 7.0)
        assert noise_db[0] == pytest.approx(0.0, abs=0.01)
        assert bool(mask[0, 10]) is True
        assert bool(mask[0, 20]) is False

    def test_all_noise_gives_sparse_mask(self):
        rng = np.random.default_rng(12)
        ssa = rng.exponential(1.0, size=(500, 4000))
        mask, _ = pl.threshold_noise(ssa, region_mean(ssa, slice(2000, 4000)), 7.0)
        frac = mask[:, :2000].mean()
        assert frac == pytest.approx(np.exp(-10 ** 0.7), abs=8e-4)

    def test_strong_path_always_survives(self):
        rng = np.random.default_rng(5)
        ssa = rng.exponential(1.0, size=(50, 3000))
        ssa[:, 100] = 1000.0  # 30 dB above the floor
        mask, _ = pl.threshold_noise(ssa, region_mean(ssa, slice(1500, 3000)), 7.0)
        assert mask[:, 100].all()


class TestGateAndCrosstalk:
    def test_gate_unmasks_precursor(self):
        m = np.ones((2, 3, 20), dtype=bool)
        m[..., 15] = False  # dropped by the threshold
        cuts = np.array([[6, 6, 6], [0, 6, 20]])
        pl.delay_gate(m, cuts)
        keep = np.arange(20) >= cuts[..., None]
        keep[..., 15] = False
        np.testing.assert_array_equal(m, keep)

    def test_cut_bin_arithmetic(self):
        native = 1.0 / 350.125e6
        cut = pl.crosstalk_cut_bins(np.array(100.0), native, 4, 400, 10)
        assert int(cut) == 113 * 10  # round(116.79) - 4
        assert int(pl.crosstalk_cut_bins(np.array(3.0), native, 4, 400, 10)) == 0
        # Beyond the gate: the whole gated region is pre-cursor.
        assert int(pl.crosstalk_cut_bins(np.array(400.0), native, 4, 400, 10)) == 4000

    def test_remove_crosstalk_in_place(self):
        native = 1.0 / 350.125e6
        m = np.ones(4000, dtype=bool)
        pl.delay_gate(m, pl.crosstalk_cut_bins(np.array(100.0), native, 4, 400, 10))
        assert not m[:1130].any()
        assert m[1130:].all()  # untouched at and beyond the cut

    def test_short_distance_is_noop(self):
        native = 1.0 / 350.125e6
        m = np.ones(4000, dtype=bool)
        pl.delay_gate(m, pl.crosstalk_cut_bins(np.array(3.0), native, 4, 400, 10))
        assert m.all()


def test_ssa_before_threshold_rescues_weak_path():
    # A path ~9 dB above the noise mean fluctuates below theta in single
    # captures but its 9-capture average never does; thresholding first and
    # averaging second loses it in some captures. This pins the stage order.
    rng = np.random.default_rng(23)
    n_caps, n_bins = 45, 2000
    z = (rng.standard_normal((n_caps, n_bins))
         + 1j * rng.standard_normal((n_caps, n_bins))) / np.sqrt(2)
    amp = np.zeros(n_bins)
    amp[50] = 10 ** (9.5 / 20)  # 9.5 dB above the unit noise mean
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (n_caps, 1)))
    pdps = np.abs(amp[None, :] * phases + z) ** 2

    region = slice(1000, 2000)
    ssa = pl.small_scale_average(pdps, 9)
    mask_correct, _ = pl.threshold_noise(ssa, region_mean(ssa, region), 7.0)
    assert mask_correct[:, 50].all()

    mask_per_capture, _ = pl.threshold_noise(pdps, region_mean(pdps, region), 7.0)
    assert not mask_per_capture[:, 50].all()


@pytest.fixture(scope="module")
def plan():
    from cfmm import scene as sc
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=10.0, y=10.0, height=4.5),
        sc.Waypoint("drive", x=12.0, y=10.0),
    ])
    imp = sd.ImpairmentConfig()
    return sd.plan_campaign(scene, wf.WaveformSpec(), imp, seed=77)


class TestProcessCampaign:
    def test_matrix_shape_and_validity(self, plan, tmp_path):
        params = pl.PipelineParams()
        mat = process_matrix(PlanSource(plan), tmp_path, params)
        values, _ = dense(mat)
        assert values.shape == (41, 8, 4000)
        assert values.dtype == np.float32
        mat.validate()
        assert np.isfinite(mat.noise_level_db).all()
        np.testing.assert_allclose(mat.threshold_db, mat.noise_level_db + 7.0)
        assert mat.bin_width_s == pytest.approx(2.856122813e-9 / 10, rel=1e-9)

    def test_chunk_size_does_not_change_output(self, plan, tmp_path):
        params = pl.PipelineParams()
        a = process_matrix(PlanSource(plan), tmp_path, params, chunk_size=7)
        b = process_matrix(PlanSource(plan), tmp_path, params, chunk_size=64)
        (a_values, a_mask), (b_values, b_mask) = dense(a), dense(b)
        np.testing.assert_array_equal(a_values, b_values)
        np.testing.assert_array_equal(a_mask, b_mask)
        np.testing.assert_array_equal(a.noise_level_db, b.noise_level_db)

    def test_strongest_ue_peak_matches_geometry(self, plan, tmp_path):
        mat = process_matrix(PlanSource(plan), tmp_path, pl.PipelineParams())
        values, mask = dense(mat)
        m = 0
        j = int(plan.measured_power_dbm[m].argmax())
        d = np.linalg.norm(plan.positions[m] - plan.ue_positions[j])
        peak = int(values[m, j].argmax())
        expect = d / 299792458.0 / mat.bin_width_s
        assert abs(peak - expect) <= 1.0
        assert mask[m, j, peak]

    def test_pipeline_params_validation(self):
        with pytest.raises(ValueError):
            pl.PipelineParams(ssa_window=4).validate()
        with pytest.raises(ValueError):
            pl.PipelineParams(pad_factor=0).validate()
        with pytest.raises(ValueError):
            pl.PipelineParams(noise_region_native=(300, None)).validate()
        with pytest.raises(ValueError):
            pl.PipelineParams(kaiser_beta=-0.5).validate()

    def test_noise_region_must_fit_profile(self, plan):
        for region in ((450, 2802), (2801, None)):
            params = pl.PipelineParams(noise_region_native=region)
            params.validate()
            with pytest.raises(ValueError, match=r"noise_region_native.*2801"):
                pl.process_chunk(PlanSource(plan), params, 0, 4)
        assert pl.PipelineParams().noise_bins(2801) == (4500, 27500)
        assert pl.PipelineParams(noise_region_native=(450, None)).noise_bins(2801) \
            == (4500, 28010)


def full_profile_noise_db(source, params, a, b):
    """Noise level from whole 28010-bin profiles, by a direct inverse FFT."""
    n, f = source.n_subcarriers, params.pad_factor
    lo_n, hi_n = params.noise_region_native
    halo = params.ssa_window // 2
    lo, hi = max(0, a - halo), min(source.n_captures, b + halo)
    h = np.stack([source.spectra(lo, hi, j) for j in range(source.n_ues)],
                 axis=1).astype(np.complex128)
    h = calibrated(h, source.cal_response, source.reference_tones,
                   source.attenuation_db[lo:hi, None])
    w = pl.kaiser_taps(n, params.kaiser_beta)
    full = np.abs(np.fft.ifft(h * w, n=n * f, axis=-1) * (n * f)) ** 2
    ssa = pl.small_scale_average(full, params.ssa_window)[a - lo:b - lo]
    return 10 * np.log10(ssa[..., lo_n * f:hi_n * f].mean(axis=-1))


class TestSpanNoiseFloor:
    def test_noise_db_matches_full_profile(self, plan):
        params = pl.PipelineParams()
        source = PlanSource(plan)
        for a, b in ((0, 12), (30, 41)):
            got = pl.process_chunk(source, params, a, b)[2].noise_db.reshape(b - a, -1)
            np.testing.assert_allclose(got, full_profile_noise_db(source, params, a, b),
                                       rtol=0, atol=1e-6)

    def test_noiseless_plan_gives_finite_floor(self, plan):
        # Without receiver noise the noise region holds only leakage and
        # rounding, so total minus span energy sits near cancellation; the
        # clamp keeps every noise mean non-negative and every level finite.
        params = pl.PipelineParams()
        rows = pl.process_chunk(PlanSource(noiseless(plan)), params, 0, 20)[2]
        assert np.isfinite(rows.noise_db).all() and np.isfinite(rows.threshold_db).all()
        assert rows.noise_db.max() < -150.0
        assert np.isfinite(rows.values).all() and (rows.values >= 0).all()
        # Leakage and crosstalk still give a level, so no row is at the floor.
        assert pl.degenerate_row_counts(rows.kept(), rows.noise_db)["rows_noise_at_floor"] == 0

    def test_empty_noise_region_clamps_to_floor(self):
        # On-grid path, rectangular window, no padding: the profile is an
        # impulse up to complex64 rounding, so the noise region holds less
        # energy than float64 rounding of the total. The Parseval difference
        # is then rounding of either sign, which the clamp floors at zero.
        # Span energy off by more than rounding (as with chirp phases not
        # reduced mod 2L before scaling) would lift the level off the floor.
        n, m = 2801, 12
        h = on_grid_channel(n, 117).astype(np.complex64)
        source = SimpleNamespace(
            n_captures=m, n_ues=1, n_subcarriers=n, subcarrier_spacing_hz=125e3,
            attenuation_db=np.zeros(m), cal_response=np.ones(n, dtype=complex),
            reference_tones=np.ones(n, dtype=complex), positions=np.zeros((m, 3)),
            ue_positions=np.zeros((1, 3)),
            spectra=lambda m0, m1, ue: np.broadcast_to(h, (m1 - m0, n)).copy())
        params = pl.PipelineParams(kaiser_beta=0.0, pad_factor=1)
        rows = pl.process_chunk(source, params, 0, m)[2]
        values, mask = dense_rows(rows, 1)
        noise_db = rows.noise_db.reshape(m, 1)
        assert np.isfinite(noise_db).all()
        assert noise_db.max() < -250.0
        assert mask[:, 0, 117].all() and values[:, 0, 117].min() > 0.99
        # The level is the clamp, not a measurement: every row is counted.
        assert (noise_db == pl.NOISE_FLOOR_DB).all()
        assert pl.degenerate_row_counts(mask.sum(axis=-1), noise_db) == {
            "rows_no_surviving_bins": 0, "rows_noise_at_floor": m}
        assert pl.degenerate_row_counts(np.zeros(mask.shape[:-1]), noise_db) == {
            "rows_no_surviving_bins": m, "rows_noise_at_floor": m}


def _slow_first_span(a, b):
    import time
    start = time.monotonic()
    time.sleep(1.0 if a == 0 else 0.01)
    return start, time.monotonic()


def test_pool_lookahead_bounds_out_of_order_results():
    # Span 0 runs long; while it runs, the pool may start only the spans
    # within 2 x workers of it, so results that finish ahead of it wait in
    # the parent for at most 3 chunks here, not all 19 others.
    times = []
    pl.run_chunks(_slow_first_span, (), 40, 2, lambda a, t: times.append(t), workers=2)
    assert len(times) == 20
    first_end = times[0][1]
    assert {i for i, (start, _) in enumerate(times) if start < first_end} <= {0, 1, 2, 3}


def test_pool_takes_results_in_span_order():
    taken = []
    pl.run_chunks(_slow_first_span, (), 40, 2, lambda a, t: taken.append(a), workers=2)
    assert taken == list(range(0, 40, 2))


def test_peak_rss_mb_reads_vmhwm(tmp_path, monkeypatch):
    status = tmp_path / "status"
    monkeypatch.setattr(pl, "open", lambda path, mode: builtins.open(status, mode),
                        raising=False)
    status.write_text("Name:\tpython\nVmPeak:\t  9999 kB\nVmHWM:\t    2048 kB\n")
    assert pl.peak_rss_mb() == 2048 * 1024 / 1e6
    status.write_text("Name:\tpython\n")
    assert pl.peak_rss_mb() is None


class TestSparseRows:
    def test_encode_dense_round_trip_and_peaks(self):
        rng = np.random.default_rng(8)
        values = rng.random((4, 3, 30)).astype(np.float32)
        mask = rng.random((4, 3, 30)) < 0.3
        mask[1, 2] = False  # keeps nothing
        mask[2, 0, :] = True  # one run over the whole row, and the next
        mask[2, 1, 0] = True  # row's first run starts where it ends
        mask[3, 1, [0, 29]] = True
        values[3, 1] = 0.0  # keeps only zeros: argmax says bin 0
        values[~mask] = 0.0
        rows = pl.SparseRows.encode(mask, values[mask], np.zeros((4, 3)), np.ones((4, 3)))
        assert rows.shape == (12, 30) and rows.values.size == mask.sum()
        assert (rows.lengths >= 1).all()
        got_v, got_m = rows.dense()
        np.testing.assert_array_equal(got_v, values.reshape(12, 30))
        np.testing.assert_array_equal(got_m, mask.reshape(12, 30))
        np.testing.assert_array_equal(rows.kept(), mask.reshape(12, 30).sum(axis=1))
        bins, top = rows.peaks()
        np.testing.assert_array_equal(bins, values.reshape(12, 30).argmax(axis=1))
        np.testing.assert_array_equal(top, values.reshape(12, 30).max(axis=1))
        row, col = rows.positions()
        np.testing.assert_array_equal(values.reshape(12, 30)[row, col], rows.values)
        np.testing.assert_array_equal(np.argwhere(mask.reshape(12, 30)),
                                      np.column_stack([row, col]))

    def test_encode_keeps_runs_within_rows(self):
        # Row 0 ends in a run at the last bin and row 1 starts with one at
        # bin 0; row 1 is all true and row 2 all false. Runs are cut at row
        # ends, never merged across them.
        mask = np.zeros((4, 6), dtype=bool)
        mask[0, [1, 4, 5]] = True
        mask[1] = True
        mask[3, [0, 2, 3]] = True
        values = np.where(mask, np.arange(24, dtype=np.float32).reshape(4, 6) + 1, 0)
        rows = pl.SparseRows.encode(mask, values[mask], np.zeros(4), np.ones(4))
        np.testing.assert_array_equal(rows.n_runs, [2, 1, 0, 2])
        np.testing.assert_array_equal(rows.starts, [1, 4, 0, 0, 2])
        np.testing.assert_array_equal(rows.lengths, [1, 2, 6, 1, 2])
        np.testing.assert_array_equal(rows.values, values[mask])
        got_v, got_m = rows.dense()
        np.testing.assert_array_equal(got_m, mask)
        np.testing.assert_array_equal(got_v, values)


def cached_source(source, m0, m1):
    """source's metadata with its spectra of captures [m0, m1) read once;
    spectra(a, b, ue) then returns a fresh copy of one UE's rows, as a
    capture file read does."""
    spectra = np.stack([source.spectra(m0, m1, j) for j in range(source.n_ues)], axis=1)
    keys = ("n_captures", "n_ues", "n_subcarriers", "subcarrier_spacing_hz",
            "attenuation_db", "cal_response", "reference_tones", "positions",
            "ue_positions")
    return SimpleNamespace(**{k: getattr(source, k) for k in keys},
                           spectra=lambda a, b, ue: spectra[a - m0:b - m0, ue].copy())


def test_chunk_rows_match_dense_per_ue_reference(plan):
    """process_chunk's rows equal, run for run and value for value, the
    encoding of a dense chunk built UE by UE: threshold, delay gate and
    pre-cursor cut on each UE's small-scale average, then the float32 cast
    of the surviving bins. The UEs keep different bin counts on every
    capture, and capture a + 5, moved beyond the gate for the cut, keeps
    none, so values placed in any order but capture-major rows differ."""
    params = pl.PipelineParams()
    source = cached_source(PlanSource(plan), 0, plan.n_captures)
    a, b = 4, 20
    source.positions = source.positions.copy()
    source.positions[a + 5] += [1000.0, 0.0, 0.0]
    got = pl.process_chunk(source, params, a, b)[2]

    n, f, u = source.n_subcarriers, params.pad_factor, source.n_ues
    big_l, gate = n * f, params.gated_bins
    noise_lo, noise_hi = params.noise_bins(n)
    lo, hi = max(0, a - 4), min(source.n_captures, b + 4)
    own = slice(a - lo, b - lo)
    tone_gain, row_gain = pl.calibrate(source.cal_response, source.reference_tones,
                                       source.attenuation_db[lo:hi])
    weights = pl.kaiser_taps(n, params.kaiser_beta) * tone_gain
    cuts = pl.crosstalk_cut_bins(
        np.linalg.norm(source.positions[a:b, None] - source.ue_positions[None], axis=-1),
        pl.native_bin_width_s(source), params.guard_native_bins,
        params.gate_native_bins, f)
    values = np.zeros((b - a, u, gate), dtype=np.float32)
    mask = np.zeros((b - a, u, gate), dtype=bool)
    noise_db = np.empty((b - a, u))
    total = np.empty(hi - lo)
    for j in range(u):
        pdp = pl.compute_pdp(source.spectra(lo, hi, j), weights, f,
                             (noise_hi - big_l, noise_lo), row_gain, total)
        region = np.maximum(total - pdp.sum(axis=-1), 0.0) / (noise_hi - noise_lo)
        ssa = pl.small_scale_average(pdp[:, big_l - noise_hi:][:, :gate],
                                     params.ssa_window)[own]
        noise_mean = pl.small_scale_average(region, params.ssa_window)[own]
        keep, noise_db[:, j] = pl.threshold_noise(ssa, noise_mean, params.delta_n_db)
        keep &= np.arange(gate) >= cuts[:, j, None]
        mask[:, j] = keep
        values[:, j][keep] = ssa[keep]
    want = pl.SparseRows.encode(mask, values[mask], noise_db, noise_db + params.delta_n_db)

    kept = want.kept().reshape(b - a, u)
    assert (kept[5] == 0).all() and (np.delete(kept, 5, axis=0) > 0).all()
    assert (np.delete(np.ptp(kept, axis=1), 5) > 0).all()
    assert got.shape == want.shape == ((b - a) * u, gate)
    for field in ("n_runs", "starts", "lengths", "noise_db", "threshold_db"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
    assert got.values.dtype == np.float32
    assert got.values.tobytes() == want.values.tobytes()


def test_chunk_memory_bounded_by_spectra_bytes(plan):
    # process_chunk reads one UE's spectra (complex64) at a time and holds
    # that UE's transform buffers, besides the chunk's bool mask and the
    # surviving values: 0.91 x the bytes of this 41-capture chunk's
    # spectra, all UEs; the bound is that plus 15%. A dense float32 values
    # array and mask of the chunk beside them took 1.64 x; holding every
    # UE's spectra as read 2.7 x; copying the whole chunk to complex128
    # (and calibrating it, and holding float64 outputs) 7.5 x.
    params = pl.PipelineParams()
    source = cached_source(PlanSource(plan), 0, plan.n_captures)
    a, b = 4, 37
    pl.process_chunk(source, params, a, b)  # first call fills the chirp cache
    spectra_bytes = (b - a + 8) * source.n_ues * source.n_subcarriers * 8
    tracemalloc.start()
    try:
        pl.process_chunk(source, params, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.04 * spectra_bytes, peak / spectra_bytes


def test_campaign_chunk_memory_below_0_75_spectra(tmp_path):
    # One 128-capture chunk of the canyon's eight UEs, read from a capture
    # file as process reads it, with its halo: the chunk's bool mask and
    # surviving values, and one UE at a time of the spectra as read, the
    # span profile and one row block's FFT buffer: 0.65 x the chunk's
    # spectra bytes, all UEs; the bound is that plus 15%. A dense float32
    # values array and mask of the chunk, with the last UE's small-scale
    # average held into the next UE's transform, took 1.49 x; holding every
    # UE's spectra as read 2.59 x.
    from cfmm import config as cfgmod, formats as fm, scene as sc
    scene = sc.load_scene(cfgmod.resolve_scene_path("bundled:canyon"))
    plan = sd.plan_campaign(first_poses(scene, 136), wf.WaveformSpec(),
                            sd.ImpairmentConfig(), seed=7)
    path = tmp_path / "captures.cfmc"
    fm.CaptureWriter(path, plan).write_chunk(0, sd.synthesize_chunk(plan, 0, 136))
    source = fm.open_captures(path)
    params = pl.PipelineParams()
    a, b = 4, 132
    pl.process_chunk(source, params, a, b)  # first call fills the chirp cache
    spectra_bytes = (b - a + 8) * source.n_ues * source.n_subcarriers * 8
    tracemalloc.start()
    try:
        pl.process_chunk(source, params, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * spectra_bytes, peak / spectra_bytes


@pytest.fixture(scope="module")
def reps_plan():
    from cfmm import scene as sc
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=10.0, y=10.0, height=4.5),
        sc.Waypoint("drive", x=10.8, y=10.0),
    ])
    return sd.plan_campaign(scene, wf.WaveformSpec(), sd.ImpairmentConfig(), seed=78)


def test_stored_repetitions_match_inline_reference(reps_plan):
    """process_chunk equals an inline reference: the stored repetition
    mean in complex128, the two calibration divisions, and the whole
    28010-bin profile by a direct inverse FFT.

    Tolerances: both sides square the same complex64 data's transform,
    and differ only by float64 rounding in the multiplies and the FFTs.
    An FFT output's rounding error is at most about c eps log2(N) ||y||
    with ||y||^2 = E, the row's whole-profile energy; then |dP| <=
    2 sqrt(P) |dy| <= 2 c eps log2(N) E at every bin, and by Cauchy-
    Schwarz the same bound holds for the span and the Parseval totals.
    With c log2(N) < 500 for N <= 32768, a bin may move by 1e3 eps E
    (after the small-scale average, E is averaged too), plus the float32
    rounding of a stored value; the noise mean by 1e3 eps E over the
    region's bin count, so noise_db by 10 / ln 10 times that over the
    noise mean. Bins closer to the threshold than these bounds may flip.
    """
    params = pl.PipelineParams()
    source = PlanSource(reps_plan)
    n, f = source.n_subcarriers, params.pad_factor
    big_l, gate = n * f, params.gate_native_bins * f
    noise_lo, noise_hi = params.noise_bins(n)
    a, b = 3, 9
    lo, hi = max(0, a - 4), min(source.n_captures, b + 4)
    rows = pl.process_chunk(source, params, a, b)[2]
    values, mask = dense_rows(rows, source.n_ues)
    noise_db = rows.noise_db.reshape(b - a, -1)

    w = pl.kaiser_taps(n, params.kaiser_beta)
    g = 10.0 ** (-source.attenuation_db[lo:hi] / 20.0)
    cuts = pl.crosstalk_cut_bins(
        np.linalg.norm(source.positions[a:b, None] - source.ue_positions[None], axis=-1),
        pl.native_bin_width_s(source), params.guard_native_bins,
        params.gate_native_bins, f)
    eps = np.finfo(np.float64).eps
    survivors = 0
    for j in range(source.n_ues):
        h = source.spectra(lo, hi, j).astype(np.complex128)
        h = h / (source.cal_response * source.reference_tones) / g[:, None]
        full = np.abs(np.fft.ifft(h * w, n=big_l, axis=-1) * big_l) ** 2
        ssa = pl.small_scale_average(full, params.ssa_window)[a - lo:b - lo]
        energy = ssa.sum(axis=-1)
        noise_mean = ssa[:, noise_lo:noise_hi].mean(axis=-1)
        want = ssa[:, :gate]
        bin_tol = 1e3 * eps * energy[:, None]
        noise_tol = 1e3 * eps * energy / (noise_hi - noise_lo)
        theta = noise_mean * 10 ** (params.delta_n_db / 10)
        keep = np.arange(gate) >= cuts[:, j, None]
        want_mask = (want >= theta[:, None]) & keep
        clear = np.abs(want - theta[:, None]) > bin_tol + 10 ** 0.7 * noise_tol[:, None]
        np.testing.assert_array_equal(mask[:, j][clear], want_mask[clear])
        got = values[:, j][mask[:, j]].astype(np.float64)
        ref = want[mask[:, j]]
        assert (np.abs(got - ref) <= 2.0 ** -24 * ref
                + np.broadcast_to(bin_tol, want.shape)[mask[:, j]]).all()
        assert (values[:, j][~mask[:, j]] == 0).all()
        db_tol = 10 / np.log(10) * noise_tol / noise_mean
        assert (np.abs(noise_db[:, j] - 10 * np.log10(noise_mean)) <= db_tol).all()
        survivors += int(mask[:, j].sum())
    assert survivors > 0
