"""Multi-tone sounding waveform: spectrum design and time samples.

The sounder excites a comb of equally spaced subcarriers with deterministic
phases chosen for low crest factor. All delay-domain arithmetic downstream
(bin width, unambiguous range) derives from the two numbers fixed here:
subcarrier count and spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHASE_RULES = ("quadratic-zc", "newman", "zero")


@dataclass(frozen=True)
class WaveformSpec:
    """Sounding-comb definition.

    Attributes
    ----------
    n_subcarriers : int
        Number of excited tones. Must be odd for the "quadratic-zc" rule.
    subcarrier_spacing_hz : float
        Tone spacing in Hz. Sequence duration is its reciprocal.
    phase_rule : str
        One of "quadratic-zc", "newman", "zero".
    oversampling_factor : int
        Time-domain oversampling used when generating samples; the occupied
        band is unchanged.
    """

    n_subcarriers: int = 2801
    subcarrier_spacing_hz: float = 125e3
    phase_rule: str = "quadratic-zc"
    oversampling_factor: int = 1

    @property
    def bandwidth_hz(self) -> float:
        """Occupied bandwidth, n_subcarriers * spacing."""
        return self.n_subcarriers * self.subcarrier_spacing_hz

    @property
    def duration_s(self) -> float:
        """Sequence duration, one period of the comb."""
        return 1.0 / self.subcarrier_spacing_hz

    def validate(self) -> None:
        if self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be >= 1")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError(f"subcarrier_spacing_hz = {self.subcarrier_spacing_hz}: must be > 0")
        if self.phase_rule not in PHASE_RULES:
            raise ValueError(f"phase_rule = {self.phase_rule!r}: must be one of {PHASE_RULES}")
        if self.phase_rule == "quadratic-zc" and self.n_subcarriers % 2 == 0:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be odd for quadratic-zc")
        if self.oversampling_factor < 1:
            raise ValueError(f"oversampling_factor = {self.oversampling_factor}: must be >= 1")

    def tone_offsets_hz(self) -> np.ndarray:
        """Tone frequencies relative to the band centre, shape (N,)."""
        n = self.n_subcarriers
        return (np.arange(n) - (n - 1) // 2) * self.subcarrier_spacing_hz


@dataclass
class ReferenceSpectrum:
    """Unit-magnitude transmit comb used as the back-to-back reference."""

    tones: np.ndarray  # complex, shape (n_subcarriers,)
    spec: WaveformSpec

    def validate(self) -> None:
        if self.tones.shape != (self.spec.n_subcarriers,):
            raise ValueError("tone count does not match spec")
        if not np.allclose(np.abs(self.tones), 1.0, atol=1e-12):
            raise ValueError("reference tones must have unit magnitude")


def tone_phases(spec: WaveformSpec) -> np.ndarray:
    """Deterministic per-tone phases for the configured rule."""
    spec.validate()
    n = spec.n_subcarriers
    k = np.arange(n)
    if spec.phase_rule == "quadratic-zc":
        # Zadoff-Chu style quadratic ramp; constant-modulus in both domains
        # when n is odd.
        return np.pi * k * (k + 1) / n
    if spec.phase_rule == "newman":
        return np.pi * k * k / n
    return np.zeros(n)


def generate_waveform(spec: WaveformSpec) -> tuple[np.ndarray, ReferenceSpectrum]:
    """Generate one period of time samples and the reference spectrum.

    Returns
    -------
    samples : ndarray, complex, shape (n_subcarriers * oversampling_factor,)
        Time-domain samples; their FFT restricted to the occupied tone bins
        reproduces the reference tones exactly.
    reference : ReferenceSpectrum
    """
    spec.validate()
    tones = np.exp(1j * tone_phases(spec))
    reference = ReferenceSpectrum(tones=tones, spec=spec)

    n = spec.n_subcarriers
    m = n * spec.oversampling_factor
    full = np.zeros(m, dtype=complex)
    full[occupied_bins(spec)] = tones
    samples = np.fft.ifft(full)
    return samples, reference


def occupied_bins(spec: WaveformSpec) -> np.ndarray:
    """FFT bin indices of the tones in the oversampled grid, centred on DC."""
    n = spec.n_subcarriers
    m = n * spec.oversampling_factor
    return (np.arange(n) - (n - 1) // 2) % m
