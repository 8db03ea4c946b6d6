"""Compares the stage outputs of two cfmm output directories.

    PYTHONPATH=src python3 tools/compare_outputs.py DIR_A DIR_B

Prints one line per file that either directory holds: whether its sha256
is the same in both. When both hold a `captures.cfmc` that differs, it
also reads the two capture files through `open_captures`, a block of
captures at a time, and prints:

* each header field that differs, with both values;
* for every metadata block (timestamps, positions, ..., reference_tones),
  how many values differ and the largest absolute difference;
* how many complex64 spectrum values differ, and the largest relative
  difference, |a - b| / max(|a|, |b|), with the (capture, UE, tone) where
  it occurs.

When both hold a `matrix.cfmm` that differs, it reads the two matrices one
block of captures at a time and prints:

* each header field that differs (`bin_width_s`, `oversample_factor`,
  `delta_n_db`), with both values;
* how many float32 values and how many mask bins differ;
* the largest relative value difference, |a - b| / max(|a|, |b|), and
  the (capture, UE, bin) where it occurs;
* how many noise_db and how many threshold_db values differ, and the
  largest absolute difference of each.

When both hold a `manifest.json` that differs, it reads each as the stages
do (`cli._read_manifest`) and prints each dotted key
(`stages.process.captures`) whose value differs or that only one of them
holds, with both values. The run measurements (`wall_s`, `cpu_s`,
`capture_sync_wait_s`, `peak_rss_mb`, `worker_peak_rss_mb`), which differ
between any two runs, are named together on one "run timings differ"
line instead.

Both capture files and both matrices must be of the format version the
running tree writes: an older one cannot be read, and the tool names it.
To compare with an older release, decode each tree's files in its own
tree.

A differing file that cannot be read is named on stderr with the fault,
and the files after it are still compared. Exits 0 when every file but
`manifest.json` is byte-identical, 2 when an argument is missing or is
not a directory, 3 after the last file's line when a differing
`captures.cfmc`, `matrix.cfmm` or `manifest.json` could not be read (a
manifest is unreadable when it is not JSON or its `stages` is not an
object of objects), else 1.
"""

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from cfmm.cli import _read_manifest
from cfmm.formats import FormatError, open_captures, read_matrix

CAPTURES = "captures.cfmc"
MATRIX = "matrix.cfmm"
MANIFEST = "manifest.json"
CAPTURE_BLOCK = 32  # captures read from each file per step
# Manifest record keys whose values differ between any two runs
RUN_TIMINGS = ("wall_s", "cpu_s", "capture_sync_wait_s", "peak_rss_mb", "worker_peak_rss_mb")


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def compare_captures(path_a: Path, path_b: Path) -> list[str]:
    """Lines describing how two capture files differ, field by field,
    block by block and spectrum value by value."""
    a, b = open_captures(path_a), open_captures(path_b)
    shape_a = (a.n_captures, a.n_ues, a.n_subcarriers)
    shape_b = (b.n_captures, b.n_ues, b.n_subcarriers)
    if shape_a != shape_b:
        return [f"  shapes differ: {shape_a} vs {shape_b}"]
    lines = []
    for f in fields(a):
        name, va, vb = f.name, getattr(a, f.name), getattr(b, f.name)
        if not isinstance(va, np.ndarray):  # a header field
            if name != "path" and va != vb:
                lines.append(f"  {name}: {va!r} vs {vb!r}")
            continue
        differ = va != vb
        lines.append(f"  {name} values that differ: {int(differ.sum())} of {va.size}")
        if differ.any():
            gap = np.abs(va[differ].astype(np.complex128) - vb[differ])
            lines.append(f"  largest {name} difference: {gap.max():.3e}")
    m, u, n = shape_a
    values_differ = 0
    worst, worst_at = 0.0, None
    for m0 in range(0, m, CAPTURE_BLOCK):
        m1 = min(m0 + CAPTURE_BLOCK, m)
        sa, sb = (np.stack([f.spectra(m0, m1, j) for j in range(u)], axis=1)
                  for f in (a, b))
        differ = sa != sb
        values_differ += int(differ.sum())
        if differ.any():
            x, y = sa[differ].astype(np.complex128), sb[differ].astype(np.complex128)
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
            k = int(rel.argmax())
            if rel[k] > worst:
                c, j, q = np.argwhere(differ)[k]
                worst, worst_at = float(rel[k]), (m0 + c, j, q)
    lines.append(f"  complex64 spectrum values that differ: {values_differ} of {m * u * n}")
    if worst_at is not None:
        c, j, q = worst_at
        lines.append(f"  largest relative spectrum difference: {worst:.3e} "
                     f"at capture {c}, UE {j}, tone {q}")
    return lines


def compare_matrices(path_a: Path, path_b: Path) -> list[str]:
    """Lines describing how two matrix files differ, field by field and
    value by value."""
    a, b = read_matrix(path_a), read_matrix(path_b)
    shape_a = (a.n_captures, a.n_ues, a.n_bins)
    shape_b = (b.n_captures, b.n_ues, b.n_bins)
    if shape_a != shape_b:
        return [f"  shapes differ: {shape_a} vs {shape_b}"]
    m, u, n_bins = shape_a
    lines = [f"  {name}: {getattr(a, name)!r} vs {getattr(b, name)!r}"
             for name in ("bin_width_s", "oversample_factor", "delta_n_db")
             if getattr(a, name) != getattr(b, name)]
    values_differ = mask_differ = 0
    worst, worst_at = 0.0, None
    r0 = 0  # first (capture, UE) row of the block
    for rows_a, rows_b in zip(a.blocks(), b.blocks()):
        va, ma = rows_a.dense()
        vb, mb = rows_b.dense()
        mask_differ += int((ma != mb).sum())
        differ = va.view(np.uint32) != vb.view(np.uint32)
        values_differ += int(differ.sum())
        if differ.any():
            x, y = va[differ].astype(np.float64), vb[differ].astype(np.float64)
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
            k = int(rel.argmax())
            if rel[k] > worst:
                row, col = np.argwhere(differ)[k]
                worst, worst_at = float(rel[k]), ((r0 + row) // u, row % u, col)
        r0 += rows_a.n_rows
    lines += [
        f"  float32 values that differ: {values_differ} of {m * u * n_bins}",
        f"  mask bins that differ: {mask_differ}",
    ]
    if worst_at is not None:
        c, j, q = worst_at
        lines.append(f"  largest relative value difference: {worst:.3e} "
                     f"at capture {c}, UE {j}, bin {q}")
    for name, level_a, level_b in (("noise_db", a.noise_level_db, b.noise_level_db),
                                   ("threshold_db", a.threshold_db, b.threshold_db)):
        differ = level_a != level_b
        lines.append(f"  {name} values that differ: {int(differ.sum())} of {m * u}")
        if differ.any():
            lines.append(f"  largest {name} difference: "
                         f"{np.abs(level_a - level_b)[differ].max():.3e} dB")
    return lines


def _leaves(doc, prefix: str = "") -> dict:
    """Every non-object value of a JSON document by its dotted key."""
    if not isinstance(doc, dict) or not doc:
        return {prefix: doc}
    out = {}
    for k, v in doc.items():
        out.update(_leaves(v, f"{prefix}.{k}" if prefix else k))
    return out


def compare_manifests(path_a: Path, path_b: Path) -> list[str]:
    """Lines naming each dotted key whose value differs between two
    manifests, with both values; a key only one holds reads as absent.
    Differing run timings are named on one line, without their values."""
    a, b = (_leaves(_read_manifest(p.parent)) for p in (path_a, path_b))
    absent = object()
    lines, timings = [], []
    for key in sorted(a.keys() | b.keys()):
        va, vb = a.get(key, absent), b.get(key, absent)
        if va == vb:
            continue
        if key.rsplit(".", 1)[-1] in RUN_TIMINGS:
            timings.append(key)
            continue
        shown = ["absent" if v is absent else json.dumps(v) for v in (va, vb)]
        lines.append(f"  {key}: {shown[0]} vs {shown[1]}")
    if timings:
        lines.append(f"  run timings differ: {', '.join(timings)}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    for d in (dir_a, dir_b):
        if not d.is_dir():
            print(f"{d}: not a directory", file=sys.stderr)
            return 2
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    all_same = True
    unreadable = False
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: only in {dir_a if path_a.exists() else dir_b}")
            all_same &= name == MANIFEST
            continue
        same = sha256(path_a) == sha256(path_b)
        print(f"{name}: {'same' if same else 'differs'}")
        all_same &= same or name == MANIFEST
        explain = {CAPTURES: compare_captures, MATRIX: compare_matrices,
                   MANIFEST: compare_manifests}.get(name)
        if explain and not same:
            try:
                lines = explain(path_a, path_b)
            except FormatError as e:
                print(f"{name}: cannot read: {e}", file=sys.stderr)
                unreadable = True
                continue
            for line in lines:
                print(line)
    return 3 if unreadable else 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
