"""Command-line front end: validate, simulate, process, export.

Stages communicate through files in the output directory (captures.cfmc,
matrix.cfmm, summary.csv, per-UE heatmaps and annotation CSVs) plus a
manifest recording, per stage, the semantic config hash, the seed, the
scene reference, the scene file's sha256 and the numpy version of that
stage's run, so any stage can be re-run or handed captures produced
elsewhere, and the run's wall time, CPU time and worker count. The config
file is the one source of run parameters; flags only choose paths,
workers and chunk size, which do not change output bytes. Every stage
writes the same bytes for the same config regardless of worker count:
workers compute disjoint capture ranges whose content is seed-determined.
In simulate each range writes its own bytes of the capture file and
starts their writeback, wherever it runs, and the parent syncs the file
once before it publishes it;
in process the parent writes each range's results in capture order. A
starting stage drops its own and the later stages' manifest records and
deletes their outputs by the names this module writes, never by a path
taken from the manifest. It publishes its outputs only once all of them
are written, and replaces the manifest atomically.

Exit codes: 0 success, 1 validation error, 2 missing/unreadable files,
3 format mismatch, corrupt data or malformed manifest, 4 out of memory.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import resource
import shutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import apld as ap
from . import formats as fm
from . import pipeline as pl
from . import sounder as sd
from .config import ConfigError, RunConfig, load_config, resolve_scene_path, semantic_hash
from .scene import LinkClass, SceneError, load_scene, sample_ap_pose_arrays

CAPTURES_NAME = "captures.cfmc"
MATRIX_NAME = "matrix.cfmm"
SUMMARY_NAME = "summary.csv"
MANIFEST_NAME = "manifest.json"

# Per capture-UE wall-clock cost of simulate plus process with --workers 1;
# the validate-stage runtime estimate uses it when the output directory
# holds no simulate and process records with cpu_s. The bundled canyon
# campaign (3841 poses x 8 UEs, seed 7) took 1.77 + 5.10 s and 1.68 +
# 5.01 s in two runs on a 2-vCPU Intel Xeon VM with Python 3.11 and numpy
# 2.4.6: 0.218-0.223 ms each.
_EST_SECONDS_PER_CAPTURE_UE = 2.2e-4


def _out_dir(cfg: RunConfig, flag_out: str | None) -> Path:
    if flag_out:
        return Path(flag_out)
    root = os.environ.get("CFMM_OUT_ROOT")
    if root:
        return Path(root) / cfg.output_dir
    return Path(cfg.output_dir)


def _workers(cfg: RunConfig, args) -> int:
    """Worker count of a stage, checked before the stage touches any file.
    --workers overrides the config's workers, under the config's rule for
    it."""
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
        cfg.validate()
    return cfg.workers or os.cpu_count() or 1


def _run_flags(cfg: RunConfig, args) -> tuple[int, int]:
    """Chunk size and worker count of a parallel stage, checked before the
    stage touches any file."""
    if args.chunk_size < 1:
        raise ValueError(f"chunk_size = {args.chunk_size}: must be >= 1")
    return args.chunk_size, _workers(cfg, args)


def _scene_sha256(cfg: RunConfig) -> str | None:
    """sha256 of the scene file's bytes; None when process or export runs
    on captures made elsewhere and the scene file is not there."""
    try:
        return hashlib.sha256(resolve_scene_path(cfg.scene).read_bytes()).hexdigest()
    except (ConfigError, OSError):
        return None


# Stage order, and the files each stage writes: manifest field -> file
# name, where {j} stands for any UE index.
_OUTPUTS = {
    "simulate": {"captures": CAPTURES_NAME},
    "process": {"matrix": MATRIX_NAME, "summary": SUMMARY_NAME},
    "export": {"heatmaps": "apld_ue{j}.pgm", "annotations": "annotations_ue{j}.csv"},
}


def _read_manifest(out: Path) -> dict:
    """The manifest in out, {} when there is none."""
    path = out / MANIFEST_NAME
    if not path.exists():
        return {}
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as e:
        raise fm.FormatError(f"{path}: malformed JSON ({e})") from None
    stages = manifest.get("stages", {}) if isinstance(manifest, dict) else None
    if not (isinstance(stages, dict) and all(isinstance(r, dict) for r in stages.values())):
        raise fm.FormatError(f"{path}: must be an object whose stages are objects")
    return manifest


def _cpu_s() -> float:
    """CPU seconds of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _write_manifest(out: Path, manifest: dict) -> None:
    """Replace the manifest atomically: a reader sees the old or the new file."""
    part = out / (MANIFEST_NAME + ".partial")
    part.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(part, out / MANIFEST_NAME)


@contextmanager
def _stage(out: Path, cfg: RunConfig, name: str, n_ues: int = 0):
    """One run of stage name in out. On entry, drop the manifest records of
    this stage and the later ones and delete their outputs, and stale
    `*.partial` files of them and of the manifest, by the names in _OUTPUTS,
    never by a name read from the manifest. Yield a `*.partial`
    path per output ({j} over range(n_ues)) and the stage record to add
    counts to, and the runner's fields (`workers`, `worker_peak_rss_mb`)
    when the stage ran chunks. On success, rename the partial files into
    place and record the stage with its config hash, seed and scene, the
    scene file's sha256, the numpy version, its wall time, the CPU time of
    it and its reaped workers, and the stage process's peak RSS at its end
    (pl.peak_rss_mb, omitted where it cannot be read); on failure, remove
    them. The manifest holds nothing but the stage records."""
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    stages = _read_manifest(out).get("stages", {})
    manifest = {"stages": stages}
    replaced = list(_OUTPUTS)[list(_OUTPUTS).index(name):]
    if [stages.pop(s) for s in replaced if s in stages]:
        _write_manifest(out, manifest)
    names = "|".join(re.escape(t).replace(r"\{j\}", "[0-9]+")
                     for s in replaced for t in _OUTPUTS[s].values())
    owned = re.compile(rf"(?:{names})(?:\.partial)?|{re.escape(MANIFEST_NAME)}\.partial")
    for p in out.iterdir():
        if owned.fullmatch(p.name):
            p.unlink()
    record = {field: [t.format(j=j) for j in range(n_ues)] if "{j}" in t else t
              for field, t in _OUTPUTS[name].items()}
    finals = [out / f for v in record.values() for f in ([v] if isinstance(v, str) else v)]
    partials = [p.with_name(p.name + ".partial") for p in finals]
    try:
        yield partials, record
    except BaseException:
        for p in partials:
            p.unlink(missing_ok=True)
        raise
    for part, final in zip(partials, finals):
        os.replace(part, final)
    stages[name] = {"workers": 1, **record, "config_hash": semantic_hash(cfg),
                    "seed": cfg.seed, "scene": cfg.scene,
                    "scene_sha256": _scene_sha256(cfg), "numpy": np.__version__,
                    "wall_s": time.perf_counter() - wall0, "cpu_s": _cpu_s() - cpu0}
    peak = pl.peak_rss_mb()
    if peak is not None:
        stages[name]["peak_rss_mb"] = peak
    _write_manifest(out, manifest)


def _captures_path(args, out: Path) -> Path:
    """The captures file process and export read: --captures, else the one
    simulate wrote to out."""
    path = Path(args.captures) if args.captures else out / CAPTURES_NAME
    if not path.exists():
        raise FileNotFoundError(f"captures file not found: {path} (run simulate first)")
    return path


def _load_validated_scene(cfg: RunConfig):
    path = resolve_scene_path(cfg.scene)
    if not path.exists():
        raise FileNotFoundError(f"scene file not found: {path}")
    return load_scene(path)


def cmd_validate(args) -> int:
    cfg = load_config(args.config)
    scene = _load_validated_scene(cfg)
    site = scene.site(cfg.site)
    positions, _, _ = sample_ap_pose_arrays(scene.trajectory)
    n_poses = positions.shape[0]
    n_ues = site.positions_m.shape[0]
    manifest = _out_dir(cfg, None) / MANIFEST_NAME
    per_capture_ue = _recorded_seconds_per_capture_ue(manifest)
    if per_capture_ue is None:
        per_capture_ue = _EST_SECONDS_PER_CAPTURE_UE
        source = (f"from a fixed {per_capture_ue * 1e3:g} ms per capture-UE; {manifest} "
                  f"holds no simulate and process records with cpu_s")
    else:
        source = f"from the CPU time of the simulate and process records in {manifest}"
    est_s = n_poses * n_ues * per_capture_ue
    capture_bytes = fm.capture_file_bytes(n_poses, n_ues, cfg.waveform.n_subcarriers,
                                          site.site_id)
    heatmap_bytes = n_ues * ap.heatmap_bytes(cfg.pipeline.gated_bins, n_poses)
    fs = manifest.parent
    while not fs.exists():
        fs = fs.parent
    print(f"valid, {n_poses} poses")
    print(f"sites: {len(scene.ue_sites)}, site {site.site_id!r}: {n_ues} UEs")
    print(f"estimated single-core runtime: {est_s / 60:.1f} min ({source})")
    print(f"simulate writes {capture_bytes:,} B ({CAPTURES_NAME}); "
          f"export writes {heatmap_bytes:,} B of heatmaps, plus the annotation CSVs")
    print(f"free space on the file system of {fs}: {shutil.disk_usage(fs).free:,} B")
    print(f"config hash: {semantic_hash(cfg)}")
    return 0


def _recorded_seconds_per_capture_ue(manifest: Path) -> float | None:
    """CPU seconds per capture-UE of the simulate plus the process run
    that the manifest records; None when either record lacks cpu_s."""
    stages = _read_manifest(manifest.parent).get("stages", {})
    records = {s: stages.get(s, {}) for s in ("simulate", "process")}
    if not all("cpu_s" in r for r in records.values()):
        return None
    total = 0.0
    for stage, r in records.items():
        cpu, m, u = (r.get(k) for k in ("cpu_s", "n_captures", "n_ues"))
        if not (type(cpu) in (int, float) and 0 <= cpu < math.inf
                and type(m) is int and m >= 1 and type(u) is int and u >= 1):
            raise fm.FormatError(
                f"{manifest}: stages.{stage}: cpu_s must be a finite number >= 0 and "
                f"n_captures and n_ues integers >= 1, not {cpu!r}, {m!r} and {u!r}")
        total += cpu / (m * u)
    return total


def _simulate_span(plan, writer: fm.CaptureWriter, m0: int, m1: int) -> None:
    writer.write_chunk(m0, sd.synthesize_chunk(plan, m0, m1))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    chunk_size, workers = _run_flags(cfg, args)
    scene = _load_validated_scene(cfg)
    scene.site(cfg.site)  # fail before any output is removed
    out = _out_dir(cfg, args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _stage(out, cfg, "simulate") as ((part,), record):
        plan = sd.plan_campaign(scene, cfg.waveform, cfg.impairments, cfg.seed,
                                site=cfg.site)
        print(f"simulate: {plan.n_captures} captures x {plan.n_ues} UEs "
              f"(chunks of {chunk_size}, {workers} workers)")
        # Each span starts its own writeback where it is written; leaving
        # the block waits until all of them are on disk.
        with fm.CaptureWriter(part, plan) as writer:
            record.update(pl.run_chunks(
                _simulate_span, (plan, writer), plan.n_captures, chunk_size,
                lambda m0, _: None, workers))
        mix = np.bincount(plan.link_class.ravel(), minlength=len(LinkClass))
        record.update(n_captures=plan.n_captures, n_ues=plan.n_ues,
                      link_classes={c.name: int(mix[c]) for c in LinkClass},
                      agc_steps={f"{a:g}": int(np.count_nonzero(plan.attenuation_db == a))
                                 for a in sd.AGC_STEPS_DB},
                      paths_per_link=sum(g.size for g in plan.path_gains)
                      / (plan.n_captures * plan.n_ues),
                      links_without_paths=sum(int(np.count_nonzero(np.diff(rs) == 0))
                                              for rs in plan.row_splits),
                      capture_sync_wait_s=writer.sync_wait_s)
    print(f"simulate: wrote {out / CAPTURES_NAME}")
    return 0


def _summary_rows(a: int, rows: pl.SparseRows, n_ues: int, bin_width_s: float,
                  delta_n_db: float) -> list[list]:
    bins, top = rows.peaks()
    kept = rows.kept()
    out = []
    for r in range(rows.n_rows):
        if kept[r]:
            delay = f"{int(bins[r]) * bin_width_s:.12e}"
            power = f"{10 * np.log10(top[r]):.4f}"
        else:
            delay, power = "nan", "nan"
        out.append([a + r // n_ues, r % n_ues, f"{rows.noise_db[r]:.4f}",
                    f"{rows.noise_db[r] + delta_n_db:.4f}", delay, power, int(kept[r])])
    return out


def cmd_process(args) -> int:
    cfg = load_config(args.config)
    chunk_size, workers = _run_flags(cfg, args)
    out = _out_dir(cfg, args.out)
    captures = _captures_path(args, out)
    source = fm.open_captures(captures)
    params = cfg.pipeline
    params.noise_bins(source.n_subcarriers)  # fail before any output is removed
    out.mkdir(parents=True, exist_ok=True)
    print(f"process: {source.n_captures} captures x {source.n_ues} UEs "
          f"(chunks of {chunk_size}, {workers} workers)")
    with _stage(out, cfg, "process") as (partials, record):
        record.update(_process_into(source, params, *partials, chunk_size, workers),
                      captures=str(captures), n_captures=source.n_captures,
                      n_ues=source.n_ues)
    print(f"process: wrote {out / MATRIX_NAME} and {out / SUMMARY_NAME}")
    return 0


def _matrix_header(params: pl.PipelineParams, source) -> dict:
    """The matrix header fields that process writes for the captures of
    source under params, in MatrixWriter's order."""
    f = params.pad_factor
    return {"n_captures": source.n_captures, "n_ues": source.n_ues,
            "n_bins": params.gated_bins,
            "bin_width_s": pl.native_bin_width_s(source) / f,
            "oversample_factor": f, "delta_n_db": params.delta_n_db}


def _process_into(source, params: pl.PipelineParams, matrix_path: Path,
                  summary_path: Path, chunk_size: int = 128, workers: int = 1) -> dict:
    """Process every capture of source into a matrix file and a summary
    CSV; the one way a campaign is processed. Returns the degenerate-row
    counts, the matrix's run and surviving-bin totals and the runner's
    record fields (run_chunks). Chunks arrive in capture order; each one's
    matrix records and summary rows are written as it arrives."""
    header = _matrix_header(params, source)
    writer = fm.MatrixWriter(matrix_path, **header)
    counts: Counter = Counter()
    with open(summary_path, "w", newline="") as fh:
        summary = csv.writer(fh)
        summary.writerow(["capture_index", "ue", "noise_db", "threshold_db",
                          "peak_delay_s", "peak_power_db", "surviving_bins"])

        def take(a: int, chunk: tuple) -> None:
            rows = chunk[2]
            writer.write_chunk(a, rows)
            summary.writerows(_summary_rows(a, rows, source.n_ues, header["bin_width_s"],
                                            params.delta_n_db))
            counts.update(pl.degenerate_row_counts(rows.kept(), rows.noise_db))
            counts.update(matrix_runs=rows.starts.size, matrix_kept_bins=rows.values.size)

        run = pl.run_chunks(pl.process_chunk, (source, params),
                            source.n_captures, chunk_size, take, workers)
    writer.close()
    return {**counts, **run}


def cmd_export(args) -> int:
    cfg = load_config(args.config)
    _workers(cfg, args)
    out = _out_dir(cfg, args.out)
    matrix_path = out / MATRIX_NAME
    if not matrix_path.exists():
        raise FileNotFoundError(f"matrix file not found: {matrix_path} (run process first)")
    matrix = fm.read_matrix(matrix_path)
    source = fm.open_captures(_captures_path(args, out))
    for field, want in _matrix_header(cfg.pipeline, source).items():
        got = getattr(matrix, field)
        if got != want:
            raise fm.FormatError(
                f"{matrix_path}: header {field} is {got}, expected {want}, the value "
                f"process writes for this config's pipeline and {source.path}")
    u = matrix.n_ues
    with _stage(out, cfg, "export", n_ues=u) as (partials, record):
        ues = [ap.assemble_apld(matrix, source, j) for j in range(u)]
        ap.export_heatmap(ues, partials[:u])
        for one, path in zip(ues, partials[u:]):
            ap.write_annotations(one, path)
    print(f"export: wrote {u} heatmaps to {out}")
    return 0


def _add_common(p: argparse.ArgumentParser, parallel: bool = True) -> None:
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", help="output directory (default: config output_dir, "
                   "under $CFMM_OUT_ROOT if set)")
    if not parallel:
        p.add_argument("--workers", type=int, help="checked as for simulate and "
                       "process; export itself runs in one process")
        return
    p.add_argument("--workers", type=int, help="parallel workers (0 = all cores)")
    p.add_argument("--chunk-size", dest="chunk_size", type=int, default=128,
                   help="captures per work unit (output is identical for any value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmm",
        description="Switched-array channel-sounding simulator and PDP toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("validate", help="check a config and scene, print a report")
    v.add_argument("--config", required=True)
    s = sub.add_parser("simulate", help="synthesize the capture file")
    _add_common(s)
    p = sub.add_parser("process", help="run the PDP pipeline over captures")
    _add_common(p)
    p.add_argument("--captures", help="captures file (default: <out>/captures.cfmc)")
    e = sub.add_parser("export", help="write per-UE heatmaps and annotations")
    _add_common(e, parallel=False)
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
