"""Binary interchange files.

Two little-endian containers, both designed for bit-exact round trips on
any platform:

Matrix file (magic ``CFMM``): header of magic, version u32, dims u32 x 3
(captures, UEs, bins), bin width f64 seconds, oversample u32; payload of
float32 values in row-major (capture, UE, bin) order followed by the
survival mask as a parallel bit array, least significant bit first.

Capture file (magic ``CFMC``): acquisition metadata (poses, timestamps,
attenuation, link classes, calibration, reference tones) followed by the
recorded spectra as complex64 in (capture, UE, repetition, tone) order.
Spectra are memory-mapped on read, so campaign-scale files never load
whole.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .pipeline import PDPMatrix

MATRIX_MAGIC = b"CFMM"
CAPTURE_MAGIC = b"CFMC"
MATRIX_VERSION = 1
CAPTURE_VERSION = 1

_MATRIX_HEADER = struct.Struct("<4sIIIIdI")
_CAPTURE_FIXED = struct.Struct("<4sIIIIIddIQI")


class FormatError(RuntimeError):
    """Raised for unrecognized magic, version, or malformed headers."""


def _check_header(kind: str, path, magic: bytes, expected_magic: bytes,
                  version: int, expected_version: int) -> None:
    if magic != expected_magic:
        raise FormatError(
            f"{path}: not a {kind} file (magic {magic!r}, expected {expected_magic!r})"
        )
    if version != expected_version:
        raise FormatError(
            f"{path}: {kind} format version {version} unsupported (expected {expected_version})"
        )


# --- matrix file ---------------------------------------------------------------

def _mask_bytes(n_entries: int) -> int:
    return (n_entries + 7) // 8


def read_matrix(path) -> PDPMatrix:
    with open(path, "rb") as fh:
        raw = fh.read(_MATRIX_HEADER.size)
        if len(raw) < _MATRIX_HEADER.size:
            raise FormatError(f"{path}: truncated matrix header")
        magic, version, m, u, b, bin_width, oversample = _MATRIX_HEADER.unpack(raw)
        _check_header("matrix", path, magic, MATRIX_MAGIC, version, MATRIX_VERSION)
        values = np.fromfile(fh, dtype="<f4", count=m * u * b)
        if values.size != m * u * b:
            raise FormatError(f"{path}: truncated values payload")
        bits = np.fromfile(fh, dtype=np.uint8, count=_mask_bytes(m * u * b))
        if bits.size != _mask_bytes(m * u * b):
            raise FormatError(f"{path}: truncated mask payload")
    mask = np.unpackbits(bits, count=m * u * b, bitorder="little").astype(bool)
    return PDPMatrix(
        values=values.reshape(m, u, b), mask=mask.reshape(m, u, b),
        noise_level_db=None, threshold_db=None,
        bin_width_s=float(bin_width), oversample_factor=int(oversample),
    )


class MatrixWriter:
    """Writes a matrix file in capture-range chunks, in any order.

    The header is written up front and the file pre-sized; each chunk
    fills its captures' values and mask bytes. Requires the per-capture
    entry count to be a whole number of bytes in the mask bit array
    (n_ues * n_bins divisible by 8) so capture-aligned chunks land on byte
    boundaries.
    """

    def __init__(self, path, n_captures: int, n_ues: int, n_bins: int,
                 bin_width_s: float, oversample_factor: int):
        if (n_ues * n_bins) % 8:
            raise ValueError("n_ues * n_bins must be divisible by 8 for chunked writes")
        self.path = path
        self.shape = (n_captures, n_ues, n_bins)
        row = n_ues * n_bins
        header = _MATRIX_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, n_captures,
                                     n_ues, n_bins, bin_width_s, oversample_factor)
        self._values_off = len(header)
        self._mask_off = self._values_off + n_captures * row * 4
        total = self._mask_off + _mask_bytes(n_captures * row)
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(total)
        self._row = row

    def write_chunk(self, m0: int, values: np.ndarray, mask: np.ndarray) -> None:
        m = values.shape[0]
        out = np.memmap(self.path, dtype="<f4", mode="r+", offset=self._values_off,
                        shape=self.shape)
        out[m0:m0 + m] = values
        out.flush()
        del out
        bits = np.packbits(mask.reshape(-1), bitorder="little")
        mm = np.memmap(self.path, dtype=np.uint8, mode="r+",
                       offset=self._mask_off + m0 * self._row // 8,
                       shape=(bits.size,))
        mm[:] = bits
        mm.flush()
        del mm


# --- capture file --------------------------------------------------------------

@dataclass
class CaptureFile:
    """Read handle over a capture container; satisfies the pipeline source
    protocol (attenuation, calibration, poses, spectra-by-range)."""

    path: str
    n_captures: int
    n_ues: int
    n_reps_stored: int
    n_subcarriers: int
    subcarrier_spacing_hz: float
    capture_interval_s: float
    n_reps_averaged: int
    seed: int
    site_id: str
    timestamps: np.ndarray
    positions: np.ndarray
    headings: np.ndarray
    attenuation_db: np.ndarray
    measured_power_dbm: np.ndarray
    link_class: np.ndarray
    ue_positions: np.ndarray
    cal_response: np.ndarray
    reference_tones: np.ndarray
    spectra_offset: int

    def spectra(self, m0: int, m1: int) -> np.ndarray:
        """Spectra of captures [m0, m1), (m, U, R, N) complex64.

        Raises FormatError when a capture-UE row is all zero: recorded
        spectra always carry noise, so such a row was never written, as
        when simulate stops before filling the pre-sized file. Also raises
        it for a row holding a NaN or infinity, which the small-scale
        average would otherwise spread over its neighbours' noise levels.
        """
        mm = np.memmap(self.path, dtype="<c8", mode="r", offset=self.spectra_offset,
                       shape=(self.n_captures, self.n_ues, self.n_reps_stored,
                              self.n_subcarriers))
        out = np.array(mm[m0:m1])
        del mm
        empty = ~np.any(out, axis=(2, 3))  # (m, U)
        if empty.any():
            self._reject(empty, m0, m1, "spectra are all zero",
                         "the file was not completely written")
        bad = ~np.isfinite(out.view(np.float32)).all(axis=(2, 3))
        if bad.any():
            self._reject(bad, m0, m1, "spectra hold NaN or infinite values",
                         "the file is corrupt")
        return out

    def _reject(self, rows: np.ndarray, m0: int, m1: int, what: str, why: str):
        i, j = np.argwhere(rows)[0]
        raise FormatError(
            f"{self.path}: capture {m0 + i}, UE {j}: {what} "
            f"({int(rows.sum())} such rows in captures {m0}..{m1 - 1}); {why}")


def _capture_header_bytes(m: int, u: int, r: int, n: int, spacing: float,
                          interval: float, reps_avg: int, seed: int,
                          site_id: str) -> bytes:
    site = site_id.encode("utf-8")
    return _CAPTURE_FIXED.pack(CAPTURE_MAGIC, CAPTURE_VERSION, m, u, r, n,
                               spacing, interval, reps_avg, seed, len(site)) + site


def _meta_layout(m: int, u: int, n: int) -> list:
    return [
        ("timestamps", "<f8", (m,)),
        ("positions", "<f8", (m, 3)),
        ("headings", "<f8", (m,)),
        ("attenuation_db", "<f8", (m,)),
        ("measured_power_dbm", "<f8", (m, u)),
        ("link_class", "u1", (m, u)),
        ("ue_positions", "<f8", (u, 3)),
        ("cal_response", "<c16", (n,)),
        ("reference_tones", "<c16", (n,)),
    ]


class CaptureWriter:
    """Creates a capture container and fills spectra in capture-range chunks.

    Every metadata block comes from the plan.
    """

    def __init__(self, path, plan):
        m, u = plan.n_captures, plan.n_ues
        r = plan.n_reps_stored()
        n = plan.waveform.n_subcarriers
        self.path = path
        self.shape = (m, u, r, n)
        ts = np.asarray(plan.timestamps, dtype=np.float64)
        interval = float(ts[1] - ts[0]) if ts.size > 1 else 0.0
        header = _capture_header_bytes(
            m, u, r, n, plan.waveform.subcarrier_spacing_hz,
            interval, plan.impairments.n_repetitions, plan.seed, plan.site_id,
        )
        meta = {
            "timestamps": plan.timestamps, "positions": plan.positions,
            "headings": plan.headings, "attenuation_db": plan.attenuation_db,
            "measured_power_dbm": plan.measured_power_dbm,
            "link_class": plan.link_class,
            "ue_positions": plan.ue_positions,
            "cal_response": plan.cal.response,
            "reference_tones": plan.reference_tones,
        }
        with open(path, "wb") as fh:
            fh.write(header)
            for name, dtype, shape in _meta_layout(m, u, n):
                arr = np.ascontiguousarray(meta[name], dtype=dtype)
                if arr.shape != shape:
                    raise ValueError(f"{name}: shape {arr.shape}, expected {shape}")
                arr.tofile(fh)
            self.spectra_offset = fh.tell()
            fh.truncate(self.spectra_offset + int(np.prod(self.shape)) * 8)

    def write_chunk(self, m0: int, spectra: np.ndarray) -> None:
        mm = np.memmap(self.path, dtype="<c8", mode="r+",
                       offset=self.spectra_offset, shape=self.shape)
        mm[m0:m0 + spectra.shape[0]] = spectra
        mm.flush()
        del mm


def open_captures(path) -> CaptureFile:
    with open(path, "rb") as fh:
        raw = fh.read(_CAPTURE_FIXED.size)
        if len(raw) < _CAPTURE_FIXED.size:
            raise FormatError(f"{path}: truncated capture header")
        (magic, version, m, u, r, n, spacing, interval,
         reps_avg, seed, site_len) = _CAPTURE_FIXED.unpack(raw)
        _check_header("capture", path, magic, CAPTURE_MAGIC, version, CAPTURE_VERSION)
        site_id = fh.read(site_len).decode("utf-8")
        fields = {}
        for name, dtype, shape in _meta_layout(m, u, n):
            count = int(np.prod(shape))
            arr = np.fromfile(fh, dtype=dtype, count=count)
            if arr.size != count:
                raise FormatError(f"{path}: truncated {name} block")
            fields[name] = arr.reshape(shape)
        spectra_offset = fh.tell()
        expected = spectra_offset + m * u * r * n * 8
        size = os.fstat(fh.fileno()).st_size
        if size < expected:
            raise FormatError(
                f"{path}: truncated spectra payload ({size} bytes, expected {expected})")
    return CaptureFile(
        path=str(path), n_captures=m, n_ues=u, n_reps_stored=r, n_subcarriers=n,
        subcarrier_spacing_hz=spacing, capture_interval_s=interval,
        n_reps_averaged=reps_avg, seed=seed, site_id=site_id,
        spectra_offset=spectra_offset, **fields,
    )
