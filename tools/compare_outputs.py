"""Compares the stage outputs of two cfmm output directories.

    PYTHONPATH=src python3 tools/compare_outputs.py DIR_A DIR_B

Prints one line per file that either directory holds: whether its sha256
is the same in both. When both hold a `matrix.cfmm` that differs, it also
reads the two matrices one block of captures at a time and prints:

* how many float32 values and how many mask bins differ;
* the largest relative value difference, |a - b| / max(|a|, |b|), and
  the (capture, UE, bin) where it occurs;
* how many noise_db values differ, and the largest absolute difference.

Exits 0 when every file but `manifest.json` is byte-identical, else 1.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from cfmm.formats import BLOCK_CAPTURES, read_matrix

MATRIX = "matrix.cfmm"
MANIFEST = "manifest.json"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def compare_matrices(path_a: Path, path_b: Path) -> list[str]:
    """Lines describing how two matrix files differ, value by value."""
    a, b = read_matrix(path_a), read_matrix(path_b)
    shape_a = (a.n_captures, a.n_ues, a.n_bins)
    shape_b = (b.n_captures, b.n_ues, b.n_bins)
    if shape_a != shape_b:
        return [f"  shapes differ: {shape_a} vs {shape_b}"]
    m, u, n_bins = shape_a
    values_differ = mask_differ = 0
    worst, worst_at = 0.0, None
    for m0 in range(0, m, BLOCK_CAPTURES):
        m1 = min(m0 + BLOCK_CAPTURES, m)
        va, ma = a.rows(m0, m1).dense(n_bins)
        vb, mb = b.rows(m0, m1).dense(n_bins)
        mask_differ += int((ma != mb).sum())
        differ = va.view(np.uint32) != vb.view(np.uint32)
        values_differ += int(differ.sum())
        if differ.any():
            x, y = va[differ].astype(np.float64), vb[differ].astype(np.float64)
            rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
            k = int(rel.argmax())
            if rel[k] > worst:
                row, col = np.argwhere(differ)[k]
                worst, worst_at = float(rel[k]), (m0 + row // u, row % u, col)
    noise_a, noise_b = a.noise_level_db, b.noise_level_db
    noise_differ = noise_a != noise_b
    lines = [
        f"  float32 values that differ: {values_differ} of {m * u * n_bins}",
        f"  mask bins that differ: {mask_differ}",
    ]
    if worst_at is not None:
        c, j, q = worst_at
        lines.append(f"  largest relative value difference: {worst:.3e} "
                     f"at capture {c}, UE {j}, bin {q}")
    lines.append(f"  noise_db values that differ: {int(noise_differ.sum())} of {m * u}")
    if noise_differ.any():
        lines.append("  largest noise_db difference: "
                     f"{np.abs(noise_a - noise_b)[noise_differ].max():.3e} dB")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    dir_a, dir_b = (Path(d) for d in argv)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    all_same = True
    for name in names:
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            print(f"{name}: only in {dir_a if path_a.exists() else dir_b}")
            all_same &= name == MANIFEST
            continue
        same = sha256(path_a) == sha256(path_b)
        print(f"{name}: {'same' if same else 'differs'}")
        all_same &= same or name == MANIFEST
        if name == MATRIX and not same:
            print("\n".join(compare_matrices(path_a, path_b)))
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
