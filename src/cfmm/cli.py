"""Command-line front end: validate, simulate, process, export.

Stages communicate through files in the output directory (captures.cfmc,
matrix.cfmm, summary.csv, per-UE heatmaps and annotation CSVs) plus a
manifest recording the semantic config hash, the seed, the scene file's
sha256 and the numpy version, so any stage can be re-run or handed
captures produced elsewhere. Every stage writes the same
bytes for the same config regardless of worker count: workers compute
disjoint capture ranges whose content is seed-determined, and the parent
does all file writes.

Exit codes: 0 success, 1 validation error, 2 missing/unreadable files,
3 binary format mismatch or corrupt data, 4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import apld as ap
from . import formats as fm
from . import pipeline as pl
from . import sounder as sd
from .config import ConfigError, RunConfig, load_config, resolve_scene_path, semantic_hash
from .scene import SceneError, classify_link_matrix, load_scene, sample_ap_pose_arrays

CAPTURES_NAME = "captures.cfmc"
MATRIX_NAME = "matrix.cfmm"
SUMMARY_NAME = "summary.csv"
MANIFEST_NAME = "manifest.json"

# Per capture-UE wall-clock cost of simulate plus process with --workers 1;
# only used for the validate-stage runtime estimate. The bundled canyon
# campaign (3841 poses x 8 UEs) took 20.4 s and 23.8 s in two runs on a
# 2-vCPU Intel Xeon VM with Python 3.11 and numpy 2.4: 0.66-0.78 ms each.
_EST_SECONDS_PER_CAPTURE_UE = 7e-4


def _out_dir(cfg: RunConfig, flag_out: str | None) -> Path:
    if flag_out:
        return Path(flag_out)
    root = os.environ.get("CFMM_OUT_ROOT")
    if root:
        return Path(root) / cfg.output_dir
    return Path(cfg.output_dir)


def _n_workers(cfg: RunConfig, flag: int | None) -> int:
    w = flag if flag is not None else cfg.workers
    return os.cpu_count() or 1 if w == 0 else w


def _scene_sha256(cfg: RunConfig) -> str | None:
    """sha256 of the scene file's bytes; None when process or export runs
    on captures made elsewhere and the scene file is not there."""
    try:
        return hashlib.sha256(resolve_scene_path(cfg.scene).read_bytes()).hexdigest()
    except (ConfigError, OSError):
        return None


def _update_manifest(out: Path, cfg: RunConfig, stage: str, record: dict) -> None:
    """Record a finished stage, with what besides the config fixes its bytes:
    the scene file's content and the numpy version."""
    path = out / MANIFEST_NAME
    manifest = json.loads(path.read_text()) if path.exists() else {}
    manifest["config_hash"] = semantic_hash(cfg)
    manifest["seed"] = cfg.seed
    manifest["scene"] = cfg.scene
    manifest.setdefault("stages", {})[stage] = {
        **record, "scene_sha256": _scene_sha256(cfg), "numpy": np.__version__}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_validated_scene(cfg: RunConfig):
    path = resolve_scene_path(cfg.scene)
    if not path.exists():
        raise FileNotFoundError(f"scene file not found: {path}")
    return load_scene(path)


def cmd_validate(args) -> int:
    cfg = _effective_config(args)
    scene = _load_validated_scene(cfg)
    positions, _, _ = sample_ap_pose_arrays(scene.trajectory)
    n_poses = positions.shape[0]
    n_ues = scene.ue_sites[0].positions_m.shape[0]
    est_s = n_poses * n_ues * _EST_SECONDS_PER_CAPTURE_UE
    print(f"valid, {n_poses} poses")
    print(f"sites: {len(scene.ue_sites)}, UEs per site: {n_ues}")
    print(f"estimated single-core runtime: {est_s / 60:.1f} min")
    print(f"config hash: {semantic_hash(cfg)}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _effective_config(args)
    scene = _load_validated_scene(cfg)
    out = _out_dir(cfg, args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan = sd.plan_campaign(scene, cfg.waveform, cfg.impairments, cfg.seed,
                            site=cfg.site)
    link = classify_link_matrix(scene, plan.positions, plan.ue_positions)
    writer = fm.CaptureWriter(out / CAPTURES_NAME, plan, link)
    workers = _n_workers(cfg, args.workers)
    print(f"simulate: {plan.n_captures} captures x {plan.n_ues} UEs "
          f"(chunks of {args.chunk_size}, {workers} workers)")
    pl.run_chunks(sd.synthesize_chunk, (plan,), plan.n_captures, args.chunk_size,
                  writer.write_chunk, workers)
    _update_manifest(out, cfg, "simulate", {
        "captures": CAPTURES_NAME,
        "n_captures": plan.n_captures,
        "n_ues": plan.n_ues,
    })
    print(f"simulate: wrote {out / CAPTURES_NAME}")
    return 0


def _summary_rows(a: int, chunk: tuple, bin_width_s: float) -> list[list]:
    _, b, values, mask, noise_db, theta_db = chunk
    rows = []
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            surviving = int(mask[i, j].sum())
            if surviving:
                q = int(values[i, j].argmax())
                delay = f"{q * bin_width_s:.12e}"
                power = f"{10 * np.log10(values[i, j, q]):.4f}"
            else:
                delay, power = "nan", "nan"
            rows.append([a + i, j, f"{noise_db[i, j]:.4f}", f"{theta_db[i, j]:.4f}",
                         delay, power, surviving])
    return rows


def cmd_process(args) -> int:
    cfg = _effective_config(args)
    out = _out_dir(cfg, args.out)
    captures = Path(args.captures) if args.captures else out / CAPTURES_NAME
    if not captures.exists():
        raise FileNotFoundError(
            f"captures file not found: {captures} (run simulate first)")
    source = fm.open_captures(captures)
    params = cfg.pipeline
    params.noise_bins(source.n_subcarriers)  # fail before any output exists
    out.mkdir(parents=True, exist_ok=True)
    # Outputs appear only when the whole stage succeeded: a failed run
    # leaves neither its own partial files nor the previous run's, which
    # export would otherwise read as a matching pair.
    finals = (out / MATRIX_NAME, out / SUMMARY_NAME)
    partials = tuple(p.with_name(p.name + ".partial") for p in finals)
    for p in finals:
        p.unlink(missing_ok=True)
    try:
        counts = _process_into(source, params, args, cfg, *partials)
    except BaseException:
        for p in partials:
            p.unlink(missing_ok=True)
        raise
    for part, final in zip(partials, finals):
        os.replace(part, final)
    _update_manifest(out, cfg, "process", {
        "matrix": MATRIX_NAME,
        "summary": SUMMARY_NAME,
        "captures": str(captures),
        **counts,
    })
    print(f"process: wrote {out / MATRIX_NAME} and {out / SUMMARY_NAME}")
    return 0


def _process_into(source, params: pl.PipelineParams, args, cfg: RunConfig,
                  matrix_path: Path, summary_path: Path) -> Counter:
    """Process every capture into the two files; returns the degenerate-row counts."""
    f = params.pad_factor
    bin_width_s = pl.native_bin_width_s(source) / f
    writer = fm.MatrixWriter(matrix_path, source.n_captures, source.n_ues,
                             params.gate_native_bins * f, bin_width_s, f)
    workers = _n_workers(cfg, args.workers)
    print(f"process: {source.n_captures} captures x {source.n_ues} UEs "
          f"(chunks of {args.chunk_size}, {workers} workers)")
    all_rows: list[list] = []
    counts: Counter = Counter()

    def take(a: int, chunk: tuple) -> None:
        _, _, values, mask, noise_db, _ = chunk
        writer.write_chunk(a, values, mask)
        all_rows.extend(_summary_rows(a, chunk, bin_width_s))
        counts.update(pl.degenerate_row_counts(mask, noise_db))

    pl.run_chunks(pl.process_chunk, (source, params), source.n_captures,
                  args.chunk_size, take, workers)
    all_rows.sort(key=lambda r: (r[0], r[1]))
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["capture_index", "ue", "noise_db", "threshold_db",
                    "peak_delay_s", "peak_power_db", "surviving_bins"])
        w.writerows(all_rows)
    return counts


def _threshold_table(summary_path: Path, m: int, u: int) -> np.ndarray:
    theta = np.full((m, u), np.nan)
    with open(summary_path) as fh:
        for row in csv.DictReader(fh):
            theta[int(row["capture_index"]), int(row["ue"])] = float(row["threshold_db"])
    return theta


def cmd_export(args) -> int:
    cfg = _effective_config(args)
    out = _out_dir(cfg, args.out)
    matrix_path = out / MATRIX_NAME
    captures_path = Path(args.captures) if args.captures else out / CAPTURES_NAME
    for p in (matrix_path, captures_path):
        if not p.exists():
            raise FileNotFoundError(f"missing stage input: {p}")
    matrix = fm.read_matrix(matrix_path)
    source = fm.open_captures(captures_path)
    summary = out / SUMMARY_NAME
    if summary.exists():
        matrix.threshold_db = _threshold_table(summary, matrix.n_captures,
                                               matrix.n_ues)
    heatmaps, annotations = [], []
    for j in range(matrix.n_ues):
        one = ap.assemble_apld(matrix, source, j)
        pgm = out / f"apld_ue{j}.pgm"
        csv_path = out / f"annotations_ue{j}.csv"
        ap.export_heatmap(one, pgm)
        ap.write_annotations(one, csv_path)
        heatmaps.append(pgm.name)
        annotations.append(csv_path.name)
    _update_manifest(out, cfg, "export", {
        "heatmaps": heatmaps,
        "annotations": annotations,
    })
    print(f"export: wrote {len(heatmaps)} heatmaps to {out}")
    return 0


def _effective_config(args) -> RunConfig:
    """The config file with the command-line overrides applied, validated once."""
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    overrides = {}
    for flag, name in (("beta", "kaiser_beta"), ("pad", "pad_factor"),
                       ("ssa", "ssa_window"), ("delta_n", "delta_n_db"),
                       ("gate", "gate_native_bins"), ("guard", "guard_native_bins")):
        value = getattr(args, flag, None)
        if value is not None:
            overrides[name] = value
    if overrides:
        cfg = replace(cfg, pipeline=replace(cfg.pipeline, **overrides))
    cfg.validate()
    return cfg


def _add_common(p: argparse.ArgumentParser, pipeline_flags: bool) -> None:
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (default: config output_dir, "
                   "under $CFMM_OUT_ROOT if set)")
    p.add_argument("--workers", type=int, help="parallel workers (0 = all cores)")
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=128,
                   help="captures per work unit (output is identical for any value)")
    if pipeline_flags:
        p.add_argument("--beta", type=float, help="Kaiser-Bessel window parameter")
        p.add_argument("--pad", type=int, help="zero-pad oversampling factor")
        p.add_argument("--ssa", type=int, help="small-scale average window (captures)")
        p.add_argument("--delta-n", dest="delta_n", type=float,
                       help="threshold offset above noise, dB")
        p.add_argument("--gate", type=int, help="delay gate, native bins")
        p.add_argument("--guard", type=int, help="pre-cursor guard, native bins")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmm",
        description="Switched-array channel-sounding simulator and PDP toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate", help="check a config and scene, print a report")
    v.add_argument("--config", required=True)
    s = sub.add_parser("simulate", help="synthesize the capture file")
    _add_common(s, pipeline_flags=False)
    s.add_argument("--seed", type=int, help="campaign seed override")
    p = sub.add_parser("process", help="run the PDP pipeline over captures")
    _add_common(p, pipeline_flags=True)
    p.add_argument("--captures", help="captures file (default: <out>/captures.cfmc)")
    e = sub.add_parser("export", help="write per-UE heatmaps and annotations")
    _add_common(e, pipeline_flags=False)
    e.add_argument("--captures", help="captures file (default: <out>/captures.cfmc)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "validate": cmd_validate,
        "simulate": cmd_simulate,
        "process": cmd_process,
        "export": cmd_export,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, SceneError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except fm.FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        detail = f" ({e})" if str(e) else ""
        print(f"error: {args.command}: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
