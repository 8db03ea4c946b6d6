"""Frequency-domain channel synthesis from enumerated ray paths.

A channel is the coherent sum of its paths across the sounding comb:
H(f_k) = sum_p a_p exp(-j 2 pi (f_k - f_c) tau_p), with a_p the complex
path gain referenced to the band centre f_c. Delays are not quantised to
the grid; the PDP stage sees the same spectral leakage a real capture
would.

The comb is a uniform grid, f_k - f_c = f_0 + k df, so each path's phasor
row factors exactly. Writing k = a B + b with B = FINE_TONES,

    exp(-j 2 pi tau (f_0 + k df))
        = exp(-j 2 pi tau (f_0 + a B df)) * exp(-j 2 pi tau b df),

a coarse table of ceil(N / B) tones times a fine table of B tones. A path
then costs ceil(N / B) + B complex exponentials (109 at N = 2801) instead
of N. Synthesis takes the comb as its WaveformSpec, whose tone offsets
are such a grid by construction.
"""

from __future__ import annotations

import numpy as np

from .waveform import WaveformSpec

FINE_TONES = 64  # B: tones per fine table


def _path_count_groups(row_splits: np.ndarray):
    """Rows grouped by path count: yields (rows, pid) per count, pid the
    (rows, count) indices of each row's paths, in stable row order."""
    counts = np.diff(row_splits)
    if counts.size == 0:
        return
    order = np.argsort(counts, kind="stable")
    boundaries = np.nonzero(np.diff(counts[order]))[0] + 1
    for grp in np.split(order, boundaries):
        c = int(counts[grp[0]])
        yield grp, row_splits[grp][:, None] + np.arange(c)[None, :]


def synthesize_rows(
    gains: np.ndarray,
    delays: np.ndarray,
    row_splits: np.ndarray,
    spec: WaveformSpec,
    out: np.ndarray,
) -> np.ndarray:
    """Synthesize many channels at once from flat path arrays.

    Row r sums paths gains[row_splits[r]:row_splits[r+1]] over the tones
    f_0 + k df of spec.tone_offsets_hz() into out, an (n_rows, n_tones)
    complex128 array, and returns it.

    Each path contributes the outer product of its coarse table
    g exp(-j 2 pi tau (f_0 + a B df)), a < A = ceil(N / B), which carries
    the gain, and its fine table exp(-j 2 pi tau b df), b < B = FINE_TONES;
    flattened, the (A, B) product is the path's row over k = a B + b.
    Rows with the same path count form one group, whose (rows, A, B) sum
    over paths is one batched matrix product (rows, A, paths) @ (rows,
    paths, B), written to out once and trimmed to N tones. Rows without
    paths read exact zero, the product over an empty path axis.
    """
    n_tones = spec.n_subcarriers
    df = spec.subcarrier_spacing_hz
    n_coarse = -(-n_tones // FINE_TONES)
    coarse_hz = spec.tone_offsets_hz()[0] + df * np.arange(0, n_coarse * FINE_TONES, FINE_TONES)
    fine_hz = df * np.arange(FINE_TONES)
    for grp, pid in _path_count_groups(row_splits):
        tau = delays[pid][..., None]
        coarse = gains[pid][..., None] * np.exp((-2j * np.pi) * tau * coarse_hz)
        fine = np.exp((-2j * np.pi) * tau * fine_hz)
        block = np.matmul(coarse.transpose(0, 2, 1), fine)  # (rows, A, B)
        out[grp] = block.reshape(grp.size, -1)[:, :n_tones]
    return out


def mean_tone_power(gains: np.ndarray, delays: np.ndarray, row_splits: np.ndarray,
                    spec: WaveformSpec) -> np.ndarray:
    """Mean of |H_k|^2 over the comb for each row, computed analytically.

    Cross terms use the Dirichlet kernel D(dt) = mean_k exp(-j2pi f_k dt),
    which for the centred comb is sin(N pi df dt) / (N sin(pi df dt)). This
    matches synthesizing H and averaging |H|^2 to machine precision and is
    what the AGC pass uses, so attenuation decisions never require the full
    synthesis."""
    n = spec.n_subcarriers
    df = spec.subcarrier_spacing_hz
    n_rows = row_splits.size - 1
    power = np.zeros(n_rows)
    for grp, pid in _path_count_groups(row_splits):
        g = gains[pid]
        tau = delays[pid]
        dt = tau[:, :, None] - tau[:, None, :]
        x = np.pi * df * dt
        with np.errstate(divide="ignore", invalid="ignore"):
            dirich = np.sin(n * x) / (n * np.sin(x))
        dirich = np.where(np.abs(x) < 1e-30, 1.0, dirich)
        cross = np.einsum("rp,rq,rpq->r", g, g.conj(), dirich)
        power[grp] = cross.real
    return power


def row_splits_for_links(link_index: np.ndarray, n_links: int) -> np.ndarray:
    """CSR-style row offsets for a link-sorted path array."""
    return np.searchsorted(link_index, np.arange(n_links + 1))
