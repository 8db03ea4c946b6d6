"""Location-ordered PDP ensembles for single UEs.

An APLDPDP stacks every capture's gated profile for one UE into a
time-by-delay matrix, row order equal to pose order, with per-row
annotations (pose, link class, AGC attenuation, detection threshold)
joined from the campaign metadata. Exports are a grayscale heatmap
(binary PGM, fixed 30 dB dynamic range) and a CSV annotation sidecar,
both byte-deterministic for fixed input.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .pipeline import PDPMatrix
from .scene import LinkClass


@dataclass
class APLDPDP:
    """Delay profiles of one UE across all AP poses, with annotations."""

    ue_id: int
    values: np.ndarray  # (M, B) float32, masked bins zero
    mask: np.ndarray  # (M, B) bool
    bin_width_s: float
    oversample_factor: int
    timestamps: np.ndarray  # (M,)
    positions: np.ndarray  # (M, 3) AP pose per row
    link_class: np.ndarray  # (M,) uint8, LinkClass values
    attenuation_db: np.ndarray  # (M,)
    threshold_db: np.ndarray  # (M,) detection threshold, NaN if unknown

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_bins(self) -> int:
        return int(self.values.shape[1])

    def delays_s(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_width_s


def assemble_apld(matrix: PDPMatrix, meta, ue_id: int) -> APLDPDP:
    """Join one UE's processed profiles with campaign annotations.

    meta must expose timestamps, positions, attenuation_db and the
    per-capture link_class table (M, U), as CaptureFile and CampaignPlan
    do. Row order follows capture index, which follows the pose
    timestamps by construction.
    """
    if matrix.n_captures == 0:
        raise ValueError("empty campaign: no captures to assemble")
    if not 0 <= ue_id < matrix.n_ues:
        raise ValueError(f"ue_id {ue_id} out of range for {matrix.n_ues} UEs")
    timestamps = np.asarray(meta.timestamps, dtype=float)
    if timestamps.shape[0] != matrix.n_captures:
        lo, hi = sorted((timestamps.shape[0], matrix.n_captures))
        gaps = ", ".join(str(i) for i in range(lo, min(hi, lo + 20)))
        more = "" if hi - lo <= 20 else f" and {hi - lo - 20} more"
        raise ValueError(
            f"capture count mismatch: matrix has {matrix.n_captures} rows, "
            f"metadata has {timestamps.shape[0]}; missing captures {gaps}{more}"
        )
    if matrix.threshold_db is not None:
        theta = np.asarray(matrix.threshold_db, dtype=float)[:, ue_id]
    else:
        theta = np.full(matrix.n_captures, np.nan)
    return APLDPDP(
        ue_id=ue_id,
        values=matrix.values[:, ue_id],
        mask=matrix.mask[:, ue_id],
        bin_width_s=matrix.bin_width_s,
        oversample_factor=matrix.oversample_factor,
        timestamps=timestamps,
        positions=np.asarray(meta.positions, dtype=float),
        link_class=np.asarray(meta.link_class, dtype=np.uint8)[:, ue_id],
        attenuation_db=np.asarray(meta.attenuation_db, dtype=float),
        threshold_db=theta,
    )


def first_peak_track(
    apld: APLDPDP,
    dynamic_range_db: float | None = 30.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row delay and power of the earliest surviving local maximum.

    A bin qualifies when its mask survives and its value is at least both
    neighbors' (masked bins hold zero, and profile edges count as zero).
    Candidates more than dynamic_range_db below the row's strongest
    surviving bin are ignored: tracking uses the same dynamic range the
    heatmap displays, which keeps window-sidelobe residue of a strong
    component (the zero-delay coupling spike above all) from posing as an
    earlier arrival. Pass None to track every surviving local maximum.
    Rows with nothing surviving yield NaN in both outputs.
    """
    v = apld.values.astype(np.float64)
    padded = np.pad(v, ((0, 0), (1, 1)))
    is_max = (padded[:, 1:-1] >= padded[:, :-2]) & (padded[:, 1:-1] >= padded[:, 2:])
    cand = apld.mask & is_max
    if dynamic_range_db is not None:
        row_top = np.where(apld.mask, v, 0.0).max(axis=1, keepdims=True)
        cand &= v * 10.0 ** (dynamic_range_db / 10.0) >= row_top
    delays = np.full(apld.n_rows, np.nan)
    powers = np.full(apld.n_rows, np.nan)
    rows = np.flatnonzero(cand.any(axis=1))
    first = cand[rows].argmax(axis=1)
    delays[rows] = first * apld.bin_width_s
    powers[rows] = v[rows, first]
    return delays, powers


def export_heatmap(apld: APLDPDP, path, dynamic_range_db: float = 30.0) -> None:
    """Write the profile matrix as a binary PGM (P5) image.

    Rows are capture order, columns delay bins. Power maps linearly in dB
    onto 1..255 over [max - dynamic_range_db, max]; everything below the
    range, and every masked bin, is black. Output bytes depend only on
    the input matrix.
    """
    v = apld.values.astype(np.float64)
    img = np.zeros(v.shape, dtype=np.uint8)
    if apld.mask.any():
        top_db = 10.0 * np.log10(v[apld.mask].max())
        with np.errstate(divide="ignore"):
            db = 10.0 * np.log10(np.where(apld.mask, v, 1e-300))
        rel = (db - (top_db - dynamic_range_db)) / dynamic_range_db
        level = np.rint(1.0 + 254.0 * np.clip(rel, 0.0, 1.0)).astype(np.uint8)
        img[apld.mask & (rel >= 0)] = level[apld.mask & (rel >= 0)]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{apld.n_bins} {apld.n_rows}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def write_annotations(apld: APLDPDP, path) -> None:
    """CSV sidecar: one row per capture with pose and processing context."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "capture_index", "timestamp_s", "pos_x_m", "pos_y_m", "pos_z_m",
            "link_class", "attenuation_db", "threshold_db",
        ])
        for i in range(apld.n_rows):
            x, y, z = apld.positions[i]
            writer.writerow([
                i, f"{apld.timestamps[i]:.6f}", f"{x:.6f}", f"{y:.6f}", f"{z:.6f}",
                LinkClass(int(apld.link_class[i])).name,
                f"{apld.attenuation_db[i]:g}", f"{apld.threshold_db[i]:.4f}",
            ])
