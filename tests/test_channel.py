import numpy as np
import pytest

from cfmm import channel as ch
from cfmm import waveform as wf
from cfmm.constants import SPEED_OF_LIGHT

SPEC = wf.WaveformSpec()
EPS = np.finfo(float).eps


def rounding_bound(gains, delays, offs):
    """Largest error float64 rounding can put on one synthesized row.

    A phase 2 pi f tau is rounded to eps relative, so a path's phasor is
    off by up to eps 2 pi tau_max f_max times |g|; the + 1 covers the
    product and the sum over paths. The factor 4 covers the three rounded
    phases (coarse table, fine table, the direct sum's own) and the
    product; measured errors reach 1.6 of the bound without it.
    """
    phase = 2 * np.pi * np.max(delays, initial=0.0) * np.abs(offs).max()
    return 4 * EPS * (phase + 1) * np.abs(gains).sum()


def gain(gain_db=0.0, phase=0.0):
    return 10 ** (gain_db / 20) * np.exp(1j * phase)


def synth(delays_s, gains=None):
    """One channel over the default comb from path delays and complex gains."""
    delays = np.asarray(delays_s, dtype=float)
    gains = np.ones(delays.size, dtype=complex) if gains is None else np.asarray(gains, dtype=complex)
    out = np.empty((1, SPEC.n_subcarriers), dtype=np.complex128)
    return ch.synthesize_rows(gains, delays, np.array([0, delays.size]), SPEC, out)[0]


def random_rows(seed, n_rows, max_paths):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_paths + 1, n_rows)
    splits = np.concatenate([[0], np.cumsum(counts)])
    k = int(splits[-1])
    gains = rng.normal(size=k) + 1j * rng.normal(size=k)
    delays = rng.uniform(0, 7e-6, k)
    return gains, delays, splits


def test_single_path_flat_magnitude_and_phase_slope():
    tau = 500e-9
    h = synth([tau], [gain(-80.0)])
    assert h.shape == (2801,)
    np.testing.assert_allclose(np.abs(h), 1e-4, rtol=1e-12)
    # Phase advances by -2 pi df tau per subcarrier.
    dphi = np.angle(h[1:] / h[:-1])
    np.testing.assert_allclose(dphi, -2 * np.pi * 125e3 * tau, rtol=0, atol=1e-9)
    # Centre tone carries the path's own phase (referenced to band centre).
    centre = h[1400]
    assert np.angle(centre) == pytest.approx(0.0, abs=1e-9)


def test_two_path_ripple_closed_form():
    # Equal-gain two-path channel: |H(f)| = 2 |cos(pi f dt)| up to a common
    # delay factor that has unit magnitude.
    tau1, tau2 = 100e-9, 300e-9
    h = synth([tau1, tau2])
    f = SPEC.tone_offsets_hz()
    dt = tau2 - tau1
    np.testing.assert_allclose(np.abs(h), 2 * np.abs(np.cos(np.pi * f * dt)), rtol=0, atol=1e-9)


def test_zero_paths_zero_channel():
    h = synth([])
    assert h.shape == (2801,)
    assert np.all(h == 0)


def test_linearity():
    tau = np.array([30.0, 90.0]) / SPEED_OF_LIGHT
    g = np.array([gain(-60.0), gain(-70.0, 1.0)])
    h1 = synth(tau[:1], g[:1])
    h2 = synth(tau[1:], g[1:])
    h12 = synth(tau, g)
    # Both sides round the same phases; only the sum over paths differs.
    np.testing.assert_allclose(h12, h1 + h2, rtol=0, atol=4 * EPS * np.abs(g).sum())


def test_energy_orthogonality_on_grid():
    # Paths spaced by whole native bins are orthogonal over the comb:
    # total energy is the sum of per-path energies.
    native = 1.0 / (SPEC.n_subcarriers * SPEC.subcarrier_spacing_hz)
    taus = np.array([100, 200, 350]) * native
    h = synth(taus, np.full(3, gain(-80.0)))
    energy = np.sum(np.abs(h) ** 2)
    assert energy == pytest.approx(3 * 2801 * 1e-8, rel=1e-9)


def test_synthesize_rows_matches_single_calls():
    gains, delays, splits = random_rows(1, 30, 6)
    offs = SPEC.tone_offsets_hz()
    rows = ch.synthesize_rows(gains, delays, splits, SPEC, np.empty((30, 2801), complex))
    for r in range(30):
        sl = slice(splits[r], splits[r + 1])
        ref = np.exp(-2j * np.pi * np.outer(offs, delays[sl])) @ gains[sl]
        np.testing.assert_allclose(rows[r], ref, rtol=0,
                                   atol=rounding_bound(gains[sl], delays[sl], offs))


@pytest.mark.parametrize("n_tones", [1, 63, 64, 65, 2801])
def test_synthesize_rows_tone_counts_match_direct_sum(n_tones):
    # Tone counts below, at and just past one fine table, and the default comb.
    gains, delays, splits = random_rows(n_tones, 20, 6)
    spec = wf.WaveformSpec(n_subcarriers=n_tones)
    offs = (np.arange(n_tones) - (n_tones - 1) // 2) * 125e3
    np.testing.assert_array_equal(spec.tone_offsets_hz(), offs)
    out = np.empty((20, n_tones), dtype=np.complex128)
    rows = ch.synthesize_rows(gains, delays, splits, spec, out)
    assert rows is out
    for r in range(20):
        sl = slice(splits[r], splits[r + 1])
        ref = np.exp(-2j * np.pi * np.outer(offs, delays[sl])) @ gains[sl]
        np.testing.assert_allclose(rows[r], ref, rtol=0,
                                   atol=rounding_bound(gains[sl], delays[sl], offs))


def test_mean_tone_power_matches_synthesis():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 9, 40)
    splits = np.concatenate([[0], np.cumsum(counts)])
    k = int(splits[-1])
    gains = (rng.normal(size=k) + 1j * rng.normal(size=k)) * 10 ** rng.uniform(-6, -3, k)
    delays = rng.uniform(0, 7e-6, k)
    rows = ch.synthesize_rows(gains, delays, splits, SPEC, np.empty((40, 2801), complex))
    p_syn = (np.abs(rows) ** 2).mean(axis=1)
    p_ana = ch.mean_tone_power(gains, delays, splits, SPEC)
    np.testing.assert_allclose(p_ana, p_syn, rtol=1e-12, atol=1e-300)


def test_row_splits_for_links():
    link_index = np.array([0, 0, 2, 2, 2, 5])
    splits = ch.row_splits_for_links(link_index, 6)
    np.testing.assert_array_equal(splits, [0, 2, 2, 5, 5, 5, 6])
