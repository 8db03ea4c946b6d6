import numpy as np
import pytest

from cfmm import pipeline as pl
from cfmm import waveform as wf


def papr_db(x):
    power = np.abs(x) ** 2
    return 10.0 * np.log10(power.max() / power.mean())


def time_samples(spec, oversampling=1):
    """One period of the comb in time, oversampled: the reference tones on
    their FFT bins centred on DC, the other bins zero, inverted."""
    n = spec.n_subcarriers
    m = n * oversampling
    full = np.zeros(m, dtype=complex)
    full[(np.arange(n) - (n - 1) // 2) % m] = wf.reference_tones(spec)
    return np.fft.ifft(full)


def test_defaults_match_campaign_numbers():
    spec = wf.WaveformSpec()
    assert spec.n_subcarriers == 2801
    assert spec.subcarrier_spacing_hz == 125e3
    assert spec.n_subcarriers * spec.subcarrier_spacing_hz == pytest.approx(350.125e6)
    # One period of a 125 kHz comb is exactly 8 us in binary float.
    assert 1.0 / spec.subcarrier_spacing_hz == 8e-6


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        wf.WaveformSpec(n_subcarriers=0).validate()
    with pytest.raises(ValueError):
        wf.WaveformSpec(subcarrier_spacing_hz=-1.0).validate()
    with pytest.raises(ValueError, match="n_subcarriers = 2800: must be odd"):
        wf.WaveformSpec(n_subcarriers=2800).validate()


def test_reference_spectrum_is_flat():
    tones = wf.reference_tones(wf.WaveformSpec())
    assert tones.shape == (2801,)
    np.testing.assert_allclose(np.abs(tones), 1.0, atol=1e-14)


# Frozen outputs of the deterministic generator, by oversampling; recompute
# only when the quadratic Zadoff-Chu phases themselves change.
FROZEN_PAPR_DB = {1: 0.000000, 10: 2.569789}


@pytest.mark.parametrize("oversampling", sorted(FROZEN_PAPR_DB),
                         ids=lambda o: f"quadratic-zc-{o}")
def test_papr_frozen_values(oversampling):
    x = time_samples(wf.WaveformSpec(), oversampling)
    assert papr_db(x) == pytest.approx(FROZEN_PAPR_DB[oversampling], abs=1e-4)


def test_quadratic_zc_beats_6db_when_oversampled():
    x = time_samples(wf.WaveformSpec(), 10)
    assert papr_db(x) < 6.0


def test_delay_grid_campaign_numbers():
    spec = wf.WaveformSpec()
    assert pl.native_bin_width_s(spec) == pytest.approx(2.856122813e-9, rel=1e-9)
    assert 1.0 / spec.subcarrier_spacing_hz == 8e-6


def test_delay_grid_reciprocal_identities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(3, 4001)) | 1
        df = float(rng.uniform(1e3, 1e6))
        spec = wf.WaveformSpec(n_subcarriers=n, subcarrier_spacing_hz=df)
        native = pl.native_bin_width_s(spec)
        assert native * n * df == pytest.approx(1.0, rel=1e-12)
        assert 1.0 / df == pytest.approx(native * n, rel=1e-12)


def test_tone_offsets_centred():
    spec = wf.WaveformSpec(n_subcarriers=5, subcarrier_spacing_hz=100.0)
    np.testing.assert_allclose(
        spec.tone_offsets_hz(), [-200.0, -100.0, 0.0, 100.0, 200.0]
    )
    offs = wf.WaveformSpec().tone_offsets_hz()
    assert offs.sum() == pytest.approx(0.0, abs=1e-6)
    assert offs[1400] == 0.0
