"""Per-layer tracing of cfmm stage processes, installed from outside the package.

Run as a stage entry point in place of ``python3 -m cfmm.cli``::

    python3 perfbench/tracer.py SPAN_PREFIX [--alloc] -- simulate --config run.json ...

It replaces each call listed in TARGETS with a wrapper that records a span
(layer name, parent span, process id, start, end, counts read off the
call's arguments and result, and with --alloc the tracemalloc peak above
the level at span start), then runs the CLI. Spans stay in memory; each process writes its
own to ``SPAN_PREFIX.<pid>.json`` when it ends: the stage process after
the CLI returns, and each fork worker at exit. ``summarize`` turns the
spans of one traced stage into self times, counts and ratios.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

MB = 1e6


def _scene_counts(args, kwargs, scene) -> dict:
    return {"nonconvex_footprints": sum(not b.is_convex for b in scene.buildings)}


def _trace_counts(args, kwargs, bundle) -> dict:
    return {"paths": len(bundle), "links": int(np.atleast_2d(args[1]).shape[0])}


def _blockage_counts(args, kwargs, chords) -> dict:
    return {"segments": int(np.size(chords))}


def _classify_counts(args, kwargs, link) -> dict:
    return {"links": int(link.size), "nlos": int(np.count_nonzero(link == 2))}


def _agc_counts(args, kwargs, att) -> dict:
    steps, n = np.unique(np.asarray(att), return_counts=True)
    return {f"agc_{s:g}db": int(c) for s, c in zip(steps, n)} | {"captures": int(np.size(att))}


def _synth_counts(args, kwargs, spectra) -> dict:
    return {"capture_ues": int(spectra.shape[0] * spectra.shape[1])}


def _capture_init_counts(args, kwargs, _result) -> dict:
    return {"bytes": int(args[0].spectra_offset)}


def _capture_write_counts(args, kwargs, _result) -> dict:
    return {"bytes": int(args[2].nbytes)}


def _capture_read_counts(args, kwargs, spectra) -> dict:
    return {"rows": int(spectra.shape[0])}


def _transform_counts(args, kwargs, pdp) -> dict:
    return {"bins": int(pdp.shape[-1])}


def _chunk_counts(args, kwargs, chunk) -> dict:
    return {"rows": int(chunk[1] - chunk[0]), "kept_bins": int(chunk[2].shape[-1])}


# (layer, module, attribute, counts): the calls timed from outside. A layer
# may list several calls. An attribute the package no longer has is skipped
# and reported, so its layer reads zero.
TARGETS = (
    ("scene.load", "cfmm.scene", "load_scene", _scene_counts),
    ("scene.load", "cfmm.scene", "validate_scene", None),
    ("scene.poses", "cfmm.scene", "sample_ap_pose_arrays", None),
    ("raypaths.trace", "cfmm.raypaths", "trace_paths_batch", _trace_counts),
    ("scene.blockage", "cfmm.scene", "Building.blockage_chords", _blockage_counts),
    ("scene.classify", "cfmm.scene", "classify_link_matrix", _classify_counts),
    ("channel.mean_power", "cfmm.channel", "mean_tone_power", None),
    ("sounder.agc", "cfmm.sounder", "agc_attenuation_sequence", _agc_counts),
    ("sounder.plan", "cfmm.sounder", "plan_campaign", None),
    ("channel.phasor", "cfmm.channel", "synthesize_rows", None),
    ("sounder.synth", "cfmm.sounder", "synthesize_chunk", _synth_counts),
    ("formats.capture_write", "cfmm.formats", "CaptureWriter.__init__", _capture_init_counts),
    ("formats.capture_write", "cfmm.formats", "CaptureWriter.write_chunk", _capture_write_counts),
    ("formats.capture_read", "cfmm.formats", "CaptureFile.spectra", _capture_read_counts),
    ("pipeline.calibrate", "cfmm.pipeline", "calibrate", None),
    ("pipeline.transform", "cfmm.pipeline", "compute_pdp", _transform_counts),
    ("pipeline.ssa", "cfmm.pipeline", "small_scale_average", None),
    ("pipeline.threshold", "cfmm.pipeline", "threshold_noise", None),
    ("pipeline.gate", "cfmm.pipeline", "delay_gate", None),
    ("pipeline.chunk", "cfmm.pipeline", "process_chunk", _chunk_counts),
    ("formats.matrix_write", "cfmm.formats", "MatrixWriter.write_chunk", None),
    ("cli.summary", "cfmm.cli", "_summary_rows", None),
    ("formats.matrix_read", "cfmm.formats", "read_matrix", None),
    ("cli.threshold_table", "cfmm.cli", "_threshold_table", None),
    ("apld.assemble", "cfmm.apld", "assemble_apld", None),
    ("apld.heatmap", "cfmm.apld", "export_heatmap", None),
    ("apld.annotations", "cfmm.apld", "write_annotations", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


class Recorder:
    """Span stack and span list of the current process.

    A fork worker inherits the parent's recorder; its first span drops the
    inherited spans and registers a flush for the worker's exit.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[dict] = []

    def _adopt_fork(self) -> None:
        pid = os.getpid()
        if pid != self.pid:
            self.pid, self.spans, self.stack = pid, [], []
            mp_util.Finalize(self, self.flush, exitpriority=100)

    def enter(self, name: str) -> dict:
        self._adopt_fork()
        level, peak = tracemalloc.get_traced_memory()
        if self.stack:
            self.stack[-1]["peak"] = max(self.stack[-1]["peak"], peak)
        tracemalloc.reset_peak()
        span = {
            "id": len(self.spans), "pid": self.pid, "name": name,
            "parent": self.stack[-1]["id"] if self.stack else None,
            "base": level, "peak": level, "counts": {},
        }
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def exit(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span["peak"] = max(span["peak"], peak)
        self.stack.pop()
        if self.stack:
            self.stack[-1]["peak"] = max(self.stack[-1]["peak"], span["peak"])
        span["alloc_peak_bytes"] = span.pop("peak") - span.pop("base")

    def flush(self) -> None:
        path = f"{self.prefix}.{self.pid}.json"
        Path(path).write_text(json.dumps(self.spans))


def _wrap(fn, layer: str, rec: Recorder, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result
    return traced


def install(rec: Recorder) -> list[str]:
    """Wrap every target; returns the targets the package does not have.

    A function is replaced in its own module and in every loaded cfmm
    module that imported it by name, so calls through either name are seen.
    """
    missing = []
    for layer, module, attr, counts in TARGETS:
        mod = importlib.import_module(module)
        owner_name, _, name = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, name, None) if owner is not None else None
        if fn is None:
            missing.append(f"{module}.{attr}")
            continue
        wrapped = _wrap(fn, layer, rec, counts)
        setattr(owner, name, wrapped)
        if owner is mod:
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("cfmm")
                        and getattr(other, name, None) is fn):
                    setattr(other, name, wrapped)
    return missing


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus its children's durations."""
    own = [s["end"] - s["start"] for s in spans]
    index = {(s["pid"], s["id"]): i for i, s in enumerate(spans)}
    for s in spans:
        if s["parent"] is not None:
            own[index[(s["pid"], s["parent"])]] -= s["end"] - s["start"]
    return own


def summarize(spans: list[dict], main_pid: int, wall_s: float) -> dict:
    """Per-layer self time and alloc peak, counts, and stage accounting.

    Returns {"self_s": {layer: s}, "alloc_peak_mb": {layer: MB},
    "counts": {name: total}, "other_s": s, "worker_busy_ratio": r}.
    Spans of the stage process with no parent cover disjoint intervals, so
    the stage process's self times plus other_s equal wall_s. Fork-worker
    spans run alongside; their share of workers x wall is the busy ratio.
    """
    self_s: dict[str, float] = defaultdict(float)
    alloc: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    top_main = 0.0
    top_workers = 0.0
    workers = set()
    for s, own in zip(spans, self_times(spans)):
        self_s[s["name"]] += own
        alloc[s["name"]] = max(alloc[s["name"]], s["alloc_peak_bytes"] / MB)
        counts[f"{s['name']}.calls"] += 1
        for k, v in s["counts"].items():
            counts[f"{s['name']}.{k}"] += v
        if s["parent"] is None:
            if s["pid"] == main_pid:
                top_main += s["end"] - s["start"]
            else:
                top_workers += s["end"] - s["start"]
                workers.add(s["pid"])
    return {
        "self_s": dict(self_s),
        "alloc_peak_mb": dict(alloc),
        "counts": dict(counts),
        "other_s": wall_s - top_main,
        "worker_busy_ratio": top_workers / (len(workers) * wall_s) if workers else 0.0,
    }


def load_spans(prefix: Path) -> list[dict]:
    spans = []
    for path in sorted(prefix.parent.glob(prefix.name + ".*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def main(argv: list[str]) -> int:
    alloc = argv[1:2] == ["--alloc"]
    if argv[1 + alloc:2 + alloc] != ["--"]:
        print("usage: tracer.py SPAN_PREFIX [--alloc] -- CFMM_ARGS...", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from cfmm import cli

    rec = Recorder(argv[0])
    missing = install(rec)
    if missing:
        print(f"tracer: not found, layer reads zero: {', '.join(missing)}", file=sys.stderr)
    # tracemalloc slows allocation-heavy Python code several-fold, so it runs
    # only in the pass that measures alloc peaks, not in the one that times.
    if alloc:
        tracemalloc.start()
    try:
        return cli.main(argv[2 + alloc:])
    finally:
        tracemalloc.stop()
        rec.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
