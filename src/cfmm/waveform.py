"""Multi-tone sounding comb: the one definition of its tones.

The sounder excites a comb of equally spaced subcarriers with deterministic
phases chosen for low crest factor. The simulator uses the comb only in
the frequency domain: channel synthesis evaluates paths on its tone
offsets, and the capture file records its unit reference tones. All
delay-domain arithmetic downstream (bin width, unambiguous range) derives
from the two numbers fixed here: subcarrier count and spacing.
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
    """

    n_subcarriers: int = 2801
    subcarrier_spacing_hz: float = 125e3
    phase_rule: str = "quadratic-zc"

    def validate(self) -> None:
        if self.n_subcarriers < 1:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be >= 1")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError(f"subcarrier_spacing_hz = {self.subcarrier_spacing_hz}: must be > 0")
        if self.phase_rule not in PHASE_RULES:
            raise ValueError(f"phase_rule = {self.phase_rule!r}: must be one of {PHASE_RULES}")
        if self.phase_rule == "quadratic-zc" and self.n_subcarriers % 2 == 0:
            raise ValueError(f"n_subcarriers = {self.n_subcarriers}: must be odd for quadratic-zc")

    def tone_offsets_hz(self) -> np.ndarray:
        """Tone frequencies relative to the band centre, shape (N,)."""
        n = self.n_subcarriers
        return (np.arange(n) - (n - 1) // 2) * self.subcarrier_spacing_hz


def reference_tones(spec: WaveformSpec) -> np.ndarray:
    """Unit-magnitude transmit comb exp(j phi_k), complex (N,), with the
    deterministic per-tone phases of the configured rule."""
    n = spec.n_subcarriers
    k = np.arange(n)
    if spec.phase_rule == "quadratic-zc":
        # Zadoff-Chu style quadratic ramp; constant-modulus in both domains
        # when n is odd.
        phases = np.pi * k * (k + 1) / n
    elif spec.phase_rule == "newman":
        phases = np.pi * k * k / n
    else:
        phases = np.zeros(n)
    return np.exp(1j * phases)
