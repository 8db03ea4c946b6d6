"""Location-ordered PDP ensembles for single UEs.

An APLDPDP is one UE's view of a processed matrix: the time-by-delay
matrix of its gated profiles, row order equal to pose order, with per-row
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

from .formats import MatrixFile
from .pipeline import SparseRows
from .scene import LinkClass

# Power range, dB below the strongest surviving bin, that the heatmap shows
# and the first-peak track searches.
DYNAMIC_RANGE_DB = 30.0


@dataclass
class APLDPDP:
    """Delay profiles of one UE across all AP poses, with annotations.

    The profiles stay in the matrix file and are read from its blocks of
    captures.
    """

    matrix: MatrixFile  # holds the profiles of every UE
    ue_id: int
    timestamps: np.ndarray  # (M,)
    positions: np.ndarray  # (M, 3) AP pose per row
    link_class: np.ndarray  # (M,) uint8, LinkClass values
    attenuation_db: np.ndarray  # (M,)
    threshold_db: np.ndarray  # (M,) detection threshold

    @property
    def n_rows(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_bins(self) -> int:
        return self.matrix.n_bins

    @property
    def bin_width_s(self) -> float:
        return self.matrix.bin_width_s


def assemble_apld(matrix: MatrixFile, meta, ue_id: int) -> APLDPDP:
    """Join one UE's processed profiles with campaign annotations.

    The result reads the UE's profiles from matrix. meta must expose
    timestamps, positions, attenuation_db and the per-capture link_class
    table (M, U), as CaptureFile and CampaignPlan do; M and U must be
    the matrix's capture and UE counts. Row order follows
    capture index, which follows the pose timestamps by construction.
    """
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
    link_class = np.asarray(meta.link_class, dtype=np.uint8)
    if link_class.shape[1] != matrix.n_ues:
        raise ValueError(f"UE count mismatch: matrix has {matrix.n_ues} UEs, "
                         f"metadata has {link_class.shape[1]}")
    return APLDPDP(
        matrix=matrix,
        ue_id=ue_id,
        timestamps=timestamps,
        positions=np.asarray(meta.positions, dtype=float),
        link_class=link_class[:, ue_id],
        attenuation_db=np.asarray(meta.attenuation_db, dtype=float),
        threshold_db=np.asarray(matrix.threshold_db, dtype=float)[:, ue_id],
    )


def first_peak_track(apld: APLDPDP) -> tuple[np.ndarray, np.ndarray]:
    """Per-row delay and power of the earliest surviving local maximum.

    A bin qualifies when its mask survives and its value is at least both
    neighbors' (masked bins hold zero, and profile edges count as zero).
    Candidates more than DYNAMIC_RANGE_DB below the row's strongest
    surviving bin are ignored: tracking uses the same dynamic range the
    heatmap displays, which keeps window-sidelobe residue of a strong
    component (the zero-delay coupling spike above all) from posing as an
    earlier arrival. Rows with nothing surviving yield NaN in both outputs.

    The UE's rows are read one block of captures at a time, straight from
    the runs: a neighbor is the adjacent surviving value when it sits in
    the adjacent bin of the same row (in the same run or a touching one),
    and zero otherwise.
    """
    n_ues = apld.matrix.n_ues
    delays = np.full(apld.n_rows, np.nan)
    powers = np.full(apld.n_rows, np.nan)
    m0 = 0
    for rows in apld.matrix.blocks():
        row, col = rows.positions()
        ours = row % n_ues == apld.ue_id
        row, col = row[ours], col[ours]
        v = rows.values[ours].astype(np.float64)
        adjacent = (row[1:] == row[:-1]) & (col[1:] == col[:-1] + 1)
        left = np.concatenate([[0.0], np.where(adjacent, v[:-1], 0.0)])
        right = np.concatenate([np.where(adjacent, v[1:], 0.0), [0.0]])
        cand = (v >= left) & (v >= right)
        row_top = rows.row_max().astype(np.float64)[row]
        cand &= v * 10.0 ** (DYNAMIC_RANGE_DB / 10.0) >= row_top
        first = np.flatnonzero(cand)
        first = first[np.diff(row[first], prepend=-1) != 0]
        captures = m0 + row[first] // n_ues
        delays[captures] = col[first] * apld.bin_width_s
        powers[captures] = v[first]
        m0 += rows.n_rows // n_ues
    return delays, powers


def _levels(rows: SparseRows, n_ues: int, top_db: np.ndarray) -> np.ndarray:
    """Image rows, (n_ues, captures, n_bins) uint8, of a block of profiles
    stored capture-major with n_ues per capture. top_db holds each UE's
    peak in dB; a UE whose entry is +inf stays black."""
    row, col = rows.positions()
    ue = row % n_ues
    captures = rows.n_rows // n_ues
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(rows.values.astype(np.float64))
    rel = (db - (top_db - DYNAMIC_RANGE_DB)[ue]) / DYNAMIC_RANGE_DB
    level = np.rint(1.0 + 254.0 * np.clip(rel, 0.0, 1.0)).astype(np.uint8)
    img = np.zeros((n_ues, captures, rows.n_bins), dtype=np.uint8)
    img[ue, row // n_ues, col] = np.where(rel >= 0, level, 0)
    return img


def _pgm_header(n_bins: int, n_rows: int) -> bytes:
    return f"P5\n{n_bins} {n_rows}\n255\n".encode("ascii")


def heatmap_bytes(n_bins: int, n_rows: int) -> int:
    """Size of the heatmap of one UE with n_rows captures of n_bins bins."""
    return len(_pgm_header(n_bins, n_rows)) + n_rows * n_bins


def export_heatmap(aplds: list[APLDPDP], paths: list) -> None:
    """Write the profiles of UEs of one matrix as binary PGM (P5) images,
    aplds[i] to paths[i]. Raises ValueError when aplds hold more than one
    matrix.

    Rows are capture order, columns delay bins. Power maps linearly in dB
    onto 1..255 over [max - DYNAMIC_RANGE_DB, max], max being the
    strongest surviving bin of that UE; everything below the range, and
    every masked bin, is black. Output bytes depend only on the input
    matrix. Levels are mapped from the surviving bins straight into the
    image rows. The matrix is read one block of captures at a time, and
    each block once for all the UEs it holds.
    """
    matrix = aplds[0].matrix
    if any(apld.matrix is not matrix for apld in aplds):
        raise ValueError("export_heatmap: the profiles come from more than one matrix")
    peaks = _ue_peaks(matrix)
    # A UE with nothing surviving, or not exported, gets +inf: black.
    top_db = np.full(matrix.n_ues, np.inf)
    for apld in aplds:
        peak = peaks[apld.ue_id]
        if not np.isnan(peak):
            top_db[apld.ue_id] = 10.0 * np.log10(peak)
    with ExitStack() as stack:
        out = []
        for apld, path in zip(aplds, paths, strict=True):
            fh = stack.enter_context(open(path, "wb"))
            fh.write(_pgm_header(apld.n_bins, apld.n_rows))
            out.append(fh)
        for rows in matrix.blocks():
            img = _levels(rows, matrix.n_ues, top_db)
            for apld, fh in zip(aplds, out):
                fh.write(img[apld.ue_id].tobytes())


def _ue_peaks(matrix: MatrixFile) -> np.ndarray:
    """Largest surviving value per UE, NaN where none survives; one pass
    over the matrix's blocks."""
    top = np.zeros(matrix.n_ues)
    found = np.zeros(matrix.n_ues, dtype=bool)
    for rows in matrix.blocks():
        top = np.maximum(top, rows.row_max().reshape(-1, matrix.n_ues).max(axis=0))
        found |= rows.kept().reshape(-1, matrix.n_ues).any(axis=0)
    return np.where(found, top, np.nan)


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
