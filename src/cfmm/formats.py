"""Binary interchange files.

Two little-endian containers, both designed for bit-exact round trips on
any platform.

Matrix file (magic ``CFMM``, version 2) holds the gated profiles as runs
of surviving bins (compressed sparse rows). With M captures, U UEs, B
gated bins and R = M U rows in (capture, UE) order, capture-major:

====================  ============  =========================================
section               bytes         contents
====================  ============  =========================================
header                32            magic, version u32, M u32, U u32, B u32,
                                    bin width f64 seconds, oversample u32
noise_db              8 R           f64 noise level per row, dB
threshold_db          8 R           f64 detection threshold per row, dB
record_end            8 R           u64 file offset just past each row record
n_runs                4 R           u32 run count per row
row records           rest          per row, in row order: n_runs pairs of
                                    u32 (first bin, length), then the row's
                                    surviving values, f32, in bin order
====================  ============  =========================================

The first record starts at 32 + 28 R and the file ends at the last
record_end. Runs in a row are increasing and disjoint, each of length at
least 1, and end at or before B; a bin outside every run was masked and
reads zero. Version 1 (dense values plus a mask bit array) is not read:
re-run process to rewrite such a file.

Capture file (magic ``CFMC``): acquisition metadata (poses, timestamps,
attenuation, link classes, calibration, reference tones) followed by the
recorded spectra as complex64 in (capture, UE, tone) order, one repetition
mean per capture and UE; the header's n_reps_stored is therefore 1.
Spectra are read one UE of a capture range at a time, with one positioned
read per capture row straight into the returned array, so campaign-scale
files never load whole, a reader holds one UE's rows of a range rather
than every UE's, and no mapped copy of the rows sits beside them.
"""

from __future__ import annotations

import math
import os
import struct
import time
from dataclasses import dataclass

import numpy as np

from .pipeline import SparseRows
from .scene import LinkClass
from .sounder import REPETITIONS_PER_UE

MATRIX_MAGIC = b"CFMM"
CAPTURE_MAGIC = b"CFMC"
MATRIX_VERSION = 2
CAPTURE_VERSION = 1

_MATRIX_HEADER = struct.Struct("<4sIIIIdI")
_CAPTURE_FIXED = struct.Struct("<4sIIIIIddIQI")
# The matrix row tables, in file order: name and dtype.
_ROW_TABLES = (("noise_db", "<f8"), ("threshold_db", "<f8"),
               ("record_end", "<u8"), ("n_runs", "<u4"))
_ROW_TABLE_BYTES = sum(np.dtype(t).itemsize for _, t in _ROW_TABLES)
# Captures per block when export streams the profiles: each block is parsed
# once per pass, and its surviving bins are held a few times over.
BLOCK_CAPTURES = 32


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


def _check_field(path, name: str, value, ok: bool, want: str) -> None:
    """Raise FormatError naming the file and the header field unless ok."""
    if not ok:
        raise FormatError(f"{path}: header {name} is {value}, expected {want}")


def _check_counts(path, **counts: int) -> None:
    """A file holds at least one of each counted thing."""
    for name, value in counts.items():
        _check_field(path, name, value, value >= 1, "at least 1")


def _check_values(path, what: str, block: np.ndarray, ok: np.ndarray, want: str) -> None:
    """Raise FormatError naming the file and the block unless ok holds at
    every index of block; the message gives the first bad value."""
    if not ok.all():
        at = np.argwhere(~ok)[0]
        raise FormatError(f"{path}: {what} holds {block[tuple(at)]} at index "
                          f"{at.tolist()}, expected {want}")


def _read_block(fh, path, size: int, what: str, dtype, count: int) -> np.ndarray:
    """Read count items of dtype at the file position. The file size is
    checked first, so a header count that the file cannot hold fails
    before anything is allocated."""
    end = fh.tell() + np.dtype(dtype).itemsize * count
    if size < end:
        raise FormatError(
            f"{path}: truncated {what} ({size} bytes, the header's counts need {end})")
    return np.fromfile(fh, dtype=dtype, count=count)


# --- matrix file ---------------------------------------------------------------

def _run_words(n_runs: np.ndarray, record_words: np.ndarray) -> np.ndarray:
    """Which u32 words of consecutive row records are run words: the first
    2 n_runs words of each record; the rest are values."""
    counts = np.column_stack([2 * n_runs, record_words - 2 * n_runs]).ravel()
    return np.repeat(np.tile([True, False], len(n_runs)), counts)


@dataclass
class MatrixFile:
    """Read handle over a matrix file: the row tables in memory, the row
    records read on demand, one block of captures at a time. Each read
    checks the records it parses."""

    path: str
    n_captures: int
    n_ues: int
    n_bins: int
    bin_width_s: float
    oversample_factor: int
    noise_level_db: np.ndarray  # (M, U)
    threshold_db: np.ndarray  # (M, U)
    record_end: np.ndarray  # (M U,) int64
    n_runs: np.ndarray  # (M U,) int64
    records_offset: int

    def rows(self, m0: int, m1: int) -> SparseRows:
        """The rows of captures [m0, m1), all UEs.

        Raises FormatError when a run table is malformed or a stored value
        is negative or not finite: the pipeline stores only powers.
        """
        u = self.n_ues
        r0, r1 = m0 * u, m1 * u
        ends = self.record_end[r0:r1]
        begin = int(self.record_end[r0 - 1]) if r0 else self.records_offset
        record_words = np.diff(ends, prepend=begin) // 4
        with open(self.path, "rb") as fh:
            fh.seek(begin)
            words = np.fromfile(fh, dtype="<u4", count=int(record_words.sum()))
        if words.size != record_words.sum():
            raise FormatError(f"{self.path}: truncated row records")
        n_runs = self.n_runs[r0:r1]
        is_run = _run_words(n_runs, record_words)
        runs = words[is_run].reshape(-1, 2).astype(np.int64)
        rows = SparseRows(
            noise_db=self.noise_level_db.reshape(-1)[r0:r1],
            threshold_db=self.threshold_db.reshape(-1)[r0:r1],
            n_runs=n_runs, starts=runs[:, 0], lengths=runs[:, 1],
            values=words[~is_run].view("<f4"), n_bins=self.n_bins,
        )
        stops = rows.starts + rows.lengths
        same_row = np.repeat(np.arange(rows.n_rows), n_runs)
        same_row = same_row[1:] == same_row[:-1]
        if ((rows.lengths < 1).any() or (stops > self.n_bins).any()
                or (rows.starts[1:][same_row] < stops[:-1][same_row]).any()
                or (rows.kept() != record_words - 2 * n_runs).any()):
            raise FormatError(
                f"{self.path}: captures {m0}..{m1 - 1}: corrupt run table "
                f"(runs must be disjoint, increasing, within {self.n_bins} bins "
                "and cover the row's values)")
        if not (np.isfinite(rows.values).all() and (rows.values >= 0).all()):
            raise FormatError(
                f"{self.path}: captures {m0}..{m1 - 1}: stored values must be "
                "finite and non-negative")
        return rows

    def blocks(self):
        """The rows of consecutive blocks of BLOCK_CAPTURES captures, all UEs."""
        for m0 in range(0, self.n_captures, BLOCK_CAPTURES):
            yield self.rows(m0, min(m0 + BLOCK_CAPTURES, self.n_captures))

    def validate(self) -> None:
        """Read every block, so every run table and stored value is checked."""
        for _ in self.blocks():
            pass


def read_matrix(path) -> MatrixFile:
    """Open a matrix file: read its header and row tables and check them
    against the file size. The row records are read, and checked, block
    by block as they are used."""
    with open(path, "rb") as fh:
        raw = fh.read(_MATRIX_HEADER.size)
        if len(raw) < _MATRIX_HEADER.size:
            raise FormatError(f"{path}: truncated matrix header")
        magic, version, m, u, b, bin_width, oversample = _MATRIX_HEADER.unpack(raw)
        if magic == MATRIX_MAGIC and version < MATRIX_VERSION:
            raise FormatError(
                f"{path}: matrix format version {version} is no longer read "
                f"(expected {MATRIX_VERSION}); re-run process to rewrite it")
        _check_header("matrix", path, magic, MATRIX_MAGIC, version, MATRIX_VERSION)
        _check_field(path, "bin_width_s", bin_width,
                     math.isfinite(bin_width) and bin_width > 0, "a finite value > 0")
        _check_field(path, "oversample_factor", oversample, oversample >= 1, "at least 1")
        _check_counts(path, n_captures=m, n_ues=u, n_bins=b)
        size = os.fstat(fh.fileno()).st_size
        tables = {name: _read_block(fh, path, size, f"{name} table", dtype, m * u)
                  for name, dtype in _ROW_TABLES}
    for name in ("noise_db", "threshold_db"):
        levels = tables[name].reshape(m, u)
        _check_values(path, f"{name} table", levels, np.isfinite(levels), "a finite value")
    records_offset = _MATRIX_HEADER.size + _ROW_TABLE_BYTES * m * u
    ends = tables["record_end"].astype(np.int64)
    n_runs = tables["n_runs"].astype(np.int64)
    sizes = np.diff(ends, prepend=records_offset)
    if (sizes < 8 * n_runs).any() or (sizes % 4).any():
        raise FormatError(f"{path}: corrupt record_end table")
    end = int(ends[-1]) if ends.size else records_offset
    if size < end:
        raise FormatError(f"{path}: truncated row records ({size} bytes, expected {end})")
    if size > end:
        raise FormatError(f"{path}: {size - end} bytes after the last row record")
    return MatrixFile(
        path=str(path), n_captures=m, n_ues=u, n_bins=b, bin_width_s=float(bin_width),
        oversample_factor=int(oversample),
        noise_level_db=tables["noise_db"].reshape(m, u),
        threshold_db=tables["threshold_db"].reshape(m, u),
        record_end=ends, n_runs=n_runs, records_offset=records_offset,
    )


class MatrixWriter:
    """Writes a matrix file from capture-range chunks of SparseRows handed
    over in capture order.

    The header and the zero-filled row tables are written up front. Each
    chunk must start at the first capture not yet written; its table
    entries are filled and its records appended. The bytes therefore do
    not depend on the chunk size.
    """

    def __init__(self, path, n_captures: int, n_ues: int, n_bins: int,
                 bin_width_s: float, oversample_factor: int):
        self.path = path
        self.n_captures = n_captures
        self.n_ues = n_ues
        header = _MATRIX_HEADER.pack(MATRIX_MAGIC, MATRIX_VERSION, n_captures,
                                     n_ues, n_bins, bin_width_s, oversample_factor)
        self._end = len(header) + _ROW_TABLE_BYTES * n_captures * n_ues
        with open(path, "wb") as fh:
            fh.write(header)
            fh.truncate(self._end)
        self._next = 0  # first capture not yet written

    def write_chunk(self, m0: int, rows: SparseRows) -> None:
        """Append the chunk of captures that starts at capture m0, which
        must be the first capture not yet written."""
        if m0 != self._next:
            raise ValueError(f"{self.path}: chunk starts at capture {m0}, "
                             f"expected capture {self._next}")
        with open(self.path, "r+b") as fh:
            self._append(fh, m0 * self.n_ues, rows)
        self._next += rows.n_rows // self.n_ues

    def _append(self, fh, r0: int, rows: SparseRows) -> None:
        record_words = 2 * rows.n_runs + rows.kept()
        ends = self._end + 4 * np.cumsum(record_words)
        columns = {"noise_db": rows.noise_db, "threshold_db": rows.threshold_db,
                   "record_end": ends, "n_runs": rows.n_runs}
        offset = _MATRIX_HEADER.size
        for name, dtype in _ROW_TABLES:
            item = np.dtype(dtype).itemsize
            fh.seek(offset + r0 * item)
            fh.write(np.asarray(columns[name], dtype=dtype).tobytes())
            offset += item * self.n_captures * self.n_ues
        words = np.empty(int(record_words.sum()), dtype="<u4")
        is_run = _run_words(rows.n_runs, record_words)
        words[is_run] = np.column_stack([rows.starts, rows.lengths]).ravel()
        words[~is_run] = rows.values.astype("<f4").view("<u4")
        fh.seek(self._end)
        fh.write(words.tobytes())
        self._end += 4 * words.size

    def close(self) -> None:
        """Check that every capture was written."""
        if self._next != self.n_captures:
            raise ValueError(
                f"{self.path}: captures {self._next}..{self.n_captures - 1} not written")


# --- capture file --------------------------------------------------------------

@dataclass
class CaptureFile:
    """Read handle over a capture container; satisfies the pipeline source
    protocol (attenuation, calibration, poses, one UE's spectra by capture
    range)."""

    path: str
    n_captures: int
    n_ues: int
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

    def spectra(self, m0: int, m1: int, ue: int) -> np.ndarray:
        """Spectra of UE ue over captures [m0, m1), (m, N) complex64: one
        positioned read per capture row, straight into the returned array,
        from one open of the file.

        Raises ValueError when ue is not one of the file's UEs. Raises
        FormatError when the file ends before the UE's row of capture
        m1 - 1 does, as when it shrank after open_captures checked its
        size. Also raises it when a row is all zero: recorded spectra
        always carry noise, so such a row was never written, as when
        simulate stops before filling the pre-sized file. And for a row
        holding a NaN or infinity, which the small-scale average would
        otherwise spread over its neighbours' noise levels.
        """
        if not 0 <= ue < self.n_ues:
            raise ValueError(f"{self.path}: UE {ue} is not one of the file's "
                             f"{self.n_ues} UEs")
        out = np.empty((m1 - m0, self.n_subcarriers), dtype="<c8")
        row = self.n_subcarriers * 8
        offset = self.spectra_offset + (m0 * self.n_ues + ue) * row
        got = 0
        fd = os.open(self.path, os.O_RDONLY)
        try:
            for r in out:
                n = os.preadv(fd, [r], offset)
                got += n
                if n != row:
                    break
                offset += self.n_ues * row
        finally:
            os.close(fd)
        if got != out.nbytes:
            raise FormatError(
                f"{self.path}: captures {m0}..{m1 - 1}: truncated spectra (read "
                f"{got} of {out.nbytes} bytes of UE {ue}); the file shrank after "
                "it was opened")
        empty = ~np.any(out, axis=1)
        if empty.any():
            self._reject(empty, m0, m1, ue, "spectra are all zero",
                         "the file was not completely written")
        bad = ~np.isfinite(out.view(np.float32)).all(axis=1)
        if bad.any():
            self._reject(bad, m0, m1, ue, "spectra hold NaN or infinite values",
                         "the file is corrupt")
        return out

    def _reject(self, rows: np.ndarray, m0: int, m1: int, ue: int, what: str, why: str):
        i = int(np.flatnonzero(rows)[0])
        raise FormatError(
            f"{self.path}: capture {m0 + i}, UE {ue}: {what} "
            f"({int(rows.sum())} such rows of UE {ue} in captures {m0}..{m1 - 1}); {why}")


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


def capture_file_bytes(m: int, u: int, n: int, site_id: str) -> int:
    """Size of a capture file of m captures, u UEs and n tones recorded at
    site site_id: the fixed header, the site id, the metadata blocks, then
    the m u n complex64 spectra."""
    meta = sum(np.dtype(dtype).itemsize * math.prod(shape)
               for _, dtype, shape in _meta_layout(m, u, n))
    return _CAPTURE_FIXED.size + len(site_id.encode("utf-8")) + meta + m * u * n * 8


class CaptureWriter:
    """Creates a capture container and fills spectra in capture-range chunks.

    Every metadata block comes from the plan. The file is created at its
    full size, with the spectra zero and their blocks reserved on disk, so
    a disk without room fails here, not in a later chunk. Each chunk
    writes its own byte range, so chunks can be written in any order and
    by any process.

    Each chunk starts the writeback of its range where it is written
    (posix_fadvise DONTNEED, which on Linux queues the range's dirty pages
    and does not wait), so the file reaches the disk behind the run.
    Entering the writer as a context manager opens a descriptor; leaving
    the block normally runs one fdatasync on it (the barrier), so every
    spectrum byte is on disk before the caller publishes the file. A
    kernel that ignores the advice only makes the barrier longer. A
    barrier error is an OSError naming the file. sync_wait_s is the time
    the barrier took.
    """

    def __init__(self, path, plan):
        m, u = plan.n_captures, plan.n_ues
        n = plan.waveform.n_subcarriers
        self.path = path
        self.shape = (m, u, n)
        ts = np.asarray(plan.timestamps, dtype=np.float64)
        interval = float(ts[1] - ts[0]) if ts.size > 1 else 0.0
        site = plan.site_id.encode("utf-8")
        # One stored spectrum, the mean of REPETITIONS_PER_UE repetitions.
        header = _CAPTURE_FIXED.pack(
            CAPTURE_MAGIC, CAPTURE_VERSION, m, u, 1, n, plan.waveform.subcarrier_spacing_hz,
            interval, REPETITIONS_PER_UE, plan.seed, len(site))
        with open(path, "wb") as fh:
            fh.write(header + site)
            for name, dtype, shape in _meta_layout(m, u, n):
                arr = np.ascontiguousarray(getattr(plan, name), dtype=dtype)
                if arr.shape != shape:
                    raise ValueError(f"{name}: shape {arr.shape}, expected {shape}")
                arr.tofile(fh)
            self.spectra_offset = fh.tell()
            n_bytes = capture_file_bytes(m, u, n, plan.site_id) - self.spectra_offset
            try:
                os.posix_fallocate(fh.fileno(), self.spectra_offset, n_bytes)
            except OSError as e:
                raise OSError(e.errno, f"{path}: cannot reserve the {n_bytes} bytes "
                                       f"of spectra: {e.strerror}") from None

    def write_chunk(self, m0: int, spectra: np.ndarray) -> None:
        """Write the spectra of captures m0.. at their offset and start
        their writeback."""
        m, *row_shape = np.shape(spectra)
        if tuple(row_shape) != self.shape[1:] or not 0 <= m0 <= self.shape[0] - m:
            raise ValueError(f"{self.path}: spectra {np.shape(spectra)} at capture {m0} "
                             f"do not fit the file's {self.shape}")
        row = int(np.prod(self.shape[1:])) * 8
        offset = self.spectra_offset + m0 * row
        with open(self.path, "r+b") as fh:
            fh.seek(offset)
            fh.write(np.ascontiguousarray(spectra, dtype="<c8").data)
            fh.flush()
            os.posix_fadvise(fh.fileno(), offset, m * row, os.POSIX_FADV_DONTNEED)

    def __enter__(self) -> CaptureWriter:
        self._fd = os.open(self.path, os.O_WRONLY)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                t0 = time.perf_counter()
                try:
                    os.fdatasync(self._fd)
                except OSError as e:
                    raise OSError(e.errno, f"{self.path}: cannot sync the spectra "
                                           f"to disk: {e.strerror}") from None
                self.sync_wait_s = time.perf_counter() - t0
        finally:
            os.close(self._fd)


def open_captures(path) -> CaptureFile:
    with open(path, "rb") as fh:
        raw = fh.read(_CAPTURE_FIXED.size)
        if len(raw) < _CAPTURE_FIXED.size:
            raise FormatError(f"{path}: truncated capture header")
        (magic, version, m, u, reps_stored, n, spacing, interval,
         reps_avg, seed, site_len) = _CAPTURE_FIXED.unpack(raw)
        _check_header("capture", path, magic, CAPTURE_MAGIC, version, CAPTURE_VERSION)
        _check_counts(path, n_captures=m, n_ues=u, n_subcarriers=n)
        _check_field(path, "n_reps_stored", reps_stored, reps_stored == 1, "1")
        _check_field(path, "subcarrier_spacing_hz", spacing,
                     math.isfinite(spacing) and spacing > 0, "a finite value > 0")
        # 0 is the interval of a campaign of one capture.
        _check_field(path, "capture_interval_s", interval,
                     math.isfinite(interval) and interval >= 0, "a finite value >= 0")
        size = os.fstat(fh.fileno()).st_size
        site = _read_block(fh, path, size, "site id", "u1", site_len).tobytes()
        try:
            site_id = site.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: site id is not UTF-8 ({e})") from None
        fields = {name: _read_block(fh, path, size, f"{name} block", dtype,
                                    math.prod(shape)).reshape(shape)
                  for name, dtype, shape in _meta_layout(m, u, n)}
        spectra_offset = fh.tell()
        expected = capture_file_bytes(m, u, n, site_id)
        if size < expected:
            raise FormatError(
                f"{path}: truncated spectra payload ({size} bytes, expected {expected})")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} bytes after the spectra")
    # Only values an acquisition writes: process divides by the two tone
    # vectors, and export names each link class.
    for name, block in fields.items():
        if name == "link_class":
            ok, want = np.isin(block, list(LinkClass)), "a LinkClass value"
        elif name in ("cal_response", "reference_tones"):
            ok, want = np.isfinite(block) & (block != 0), "a finite, non-zero value"
        else:
            ok, want = np.isfinite(block), "a finite value"
        _check_values(path, f"{name} block", block, ok, want)
    return CaptureFile(
        path=str(path), n_captures=m, n_ues=u, n_subcarriers=n,
        subcarrier_spacing_hz=spacing, capture_interval_s=interval,
        n_reps_averaged=reps_avg, seed=seed, site_id=site_id,
        spectra_offset=spectra_offset, **fields,
    )
