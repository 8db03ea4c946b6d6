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
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from .pipeline import PDPMatrix, SparseRows
from .scene import LinkClass


@dataclass
class APLDPDP:
    """Delay profiles of one UE across all AP poses, with annotations.

    The profiles are dense (values, mask) arrays, or, as assemble_apld
    joins them from an open matrix file, None with `stored` set to that
    file: export_heatmap then reads them in blocks of captures.
    """

    ue_id: int
    values: np.ndarray | None  # (M, B) float32, masked bins zero
    mask: np.ndarray | None  # (M, B) bool
    bin_width_s: float
    oversample_factor: int
    timestamps: np.ndarray  # (M,)
    positions: np.ndarray  # (M, 3) AP pose per row
    link_class: np.ndarray  # (M,) uint8, LinkClass values
    attenuation_db: np.ndarray  # (M,)
    threshold_db: np.ndarray  # (M,) detection threshold, NaN if unknown
    stored: object = None  # formats.MatrixFile holding the profiles

    @property
    def n_rows(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_bins(self) -> int:
        return int(self.values.shape[1] if self.stored is None else self.stored.n_bins)

    def delays_s(self) -> np.ndarray:
        return np.arange(self.n_bins) * self.bin_width_s

    def peak_value(self) -> float | None:
        """Largest surviving value; None when nothing survives."""
        if self.stored is None:
            return float(self.values[self.mask].max()) if self.mask.any() else None
        top = self.stored.ue_peaks[self.ue_id]
        return None if np.isnan(top) else float(top)


def assemble_apld(matrix, meta, ue_id: int) -> APLDPDP:
    """Join one UE's processed profiles with campaign annotations.

    matrix is a PDPMatrix, whose profiles the result holds as arrays, or
    an open formats.MatrixFile, whose profiles stay in the file.
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
    dense = isinstance(matrix, PDPMatrix)
    return APLDPDP(
        ue_id=ue_id,
        values=matrix.values[:, ue_id] if dense else None,
        mask=matrix.mask[:, ue_id] if dense else None,
        bin_width_s=matrix.bin_width_s,
        oversample_factor=matrix.oversample_factor,
        timestamps=timestamps,
        positions=np.asarray(meta.positions, dtype=float),
        link_class=np.asarray(meta.link_class, dtype=np.uint8)[:, ue_id],
        attenuation_db=np.asarray(meta.attenuation_db, dtype=float),
        threshold_db=theta,
        stored=None if dense else matrix,
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


def _levels(rows: SparseRows, n_ues: int, n_bins: int, top_db: np.ndarray,
            dynamic_range_db: float) -> np.ndarray:
    """Image rows, (n_ues, captures, n_bins) uint8, of a block of profiles
    stored capture-major with n_ues per capture. top_db holds each UE's
    peak in dB; a UE whose entry is +inf stays black."""
    row, col = rows.positions()
    ue = row % n_ues
    captures = rows.n_rows // n_ues
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(rows.values.astype(np.float64))
    rel = (db - (top_db - dynamic_range_db)[ue]) / dynamic_range_db
    level = np.rint(1.0 + 254.0 * np.clip(rel, 0.0, 1.0)).astype(np.uint8)
    img = np.zeros((n_ues, captures, n_bins), dtype=np.uint8)
    img[ue, row // n_ues, col] = np.where(rel >= 0, level, 0)
    return img


def export_heatmap(aplds: list[APLDPDP], paths: list, dynamic_range_db: float = 30.0) -> None:
    """Write each profile matrix as a binary PGM (P5) image, aplds[i] to paths[i].

    Rows are capture order, columns delay bins. Power maps linearly in dB
    onto 1..255 over [max - dynamic_range_db, max], max being the
    strongest surviving bin of that matrix; everything below the range,
    and every masked bin, is black. Output bytes depend only on the input
    matrix. Levels are mapped from the surviving bins straight into the
    image rows. Profiles held in a matrix file are read one block of
    captures at a time, and each block once for all the UEs it holds.
    """
    with ExitStack() as stack:
        out = []
        for apld, path in zip(aplds, paths, strict=True):
            fh = stack.enter_context(open(path, "wb"))
            fh.write(f"P5\n{apld.n_bins} {apld.n_rows}\n255\n".encode("ascii"))
            out.append(fh)
        groups: dict[int, list[int]] = {}  # matrix file -> indices of its UEs
        for i, apld in enumerate(aplds):
            if apld.stored is not None:
                groups.setdefault(id(apld.stored), []).append(i)
                continue
            top_db = np.array([_peak_db(apld)])
            rows = SparseRows.encode(apld.values, apld.mask, np.zeros(apld.n_rows),
                                     np.zeros(apld.n_rows))
            out[i].write(_levels(rows, 1, apld.n_bins, top_db, dynamic_range_db).tobytes())
        for members in groups.values():
            matrix = aplds[members[0]].stored
            top_db = np.full(matrix.n_ues, np.inf)
            for i in members:
                top_db[aplds[i].ue_id] = _peak_db(aplds[i])
            for rows in matrix.blocks():
                img = _levels(rows, matrix.n_ues, matrix.n_bins, top_db, dynamic_range_db)
                for i in members:
                    out[i].write(img[aplds[i].ue_id].tobytes())


def _peak_db(apld: APLDPDP) -> float:
    """Strongest surviving bin in dB; +inf, which renders black, when
    nothing survives."""
    peak = apld.peak_value()
    return np.inf if peak is None else 10.0 * np.log10(peak)


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
