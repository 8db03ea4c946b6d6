"""Multi-tone sounding comb: the one definition of its tones.

The sounder excites a comb of equally spaced subcarriers with quadratic
Zadoff-Chu phases, which keep a low crest factor: constant modulus in both
domains for an odd tone count. The simulator uses the comb only in the
frequency domain: channel synthesis evaluates paths on its tone offsets,
and the capture file records its unit reference tones. All delay-domain
arithmetic downstream (bin width, unambiguous range) derives from the two
numbers fixed here: subcarrier count and spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WaveformSpec:
    """Sounding-comb definition.

    Attributes
    ----------
    n_subcarriers : int
        Number of excited tones. Must be odd, as the quadratic phases need.
    subcarrier_spacing_hz : float
        Tone spacing in Hz. Sequence duration is its reciprocal.
    """

    n_subcarriers: int = 2801
    subcarrier_spacing_hz: float = 125e3

    def validate(self) -> None:
        if self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be >= 1")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError(f"subcarrier_spacing_hz = {self.subcarrier_spacing_hz}: must be > 0")
        if self.n_subcarriers % 2 == 0:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be odd")

    def tone_offsets_hz(self) -> np.ndarray:
        """Tone frequencies relative to the band centre, shape (N,)."""
        n = self.n_subcarriers
        return (np.arange(n) - (n - 1) // 2) * self.subcarrier_spacing_hz


def reference_tones(spec: WaveformSpec) -> np.ndarray:
    """Unit-magnitude transmit comb exp(j pi k (k + 1) / N), complex (N,)."""
    n = spec.n_subcarriers
    k = np.arange(n)
    return np.exp(1j * (np.pi * k * (k + 1) / n))
