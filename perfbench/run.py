"""cfmm campaign benchmark: stage wall time, peak RSS and throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cfmm checkout. The workload's scene and run config
are generated from the bundled scenes and the seed; ``cfmm validate`` runs
several times in fresh interpreters (set-up); then the workload's stages
run, each as its own CLI process, pass after pass until --seconds have
gone. After each pass the outputs are checked. With --trace 1 the
untraced passes get half the time, then two more passes run every stage
under perfbench/tracer.py, one timing the layers and one with tracemalloc
measuring their allocation peaks, and the per-layer metrics are reported
instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Lines before it print every metric by name with its unit. A full
record (environment, every pass, spans) is written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_outputs, output_digests  # noqa: E402
from stages import SpeedProbe, run_stage  # noqa: E402
from tracer import LAYERS, load_spans, summarize  # noqa: E402
from workloads import STAGES, WORKLOADS, Workload, write_inputs  # noqa: E402

SETUP_RUNS = 7
N_UES = 8
AGC_STEPS_DB = (0, 10, 20, 30)
OUT_DIR = ".perfbench-out"

# (name, unit, better, bound). Every workload reports all of them; the
# per-stage figures of process and export are in the per-layer set.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("simulate_s", "s", "lower", 0.25),
    ("campaign_s", "s", "lower", 0.25),
    ("capture_ue_per_s", "1/s", "higher", 0.25),
    ("simulate_rss_mb", "MB", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("output_mb", "MB", "lower", 0.05),
    ("success_rate", "ratio", "higher", 0.01),
)

# Printed beside the end-to-end metrics where the workload has them.
SHOWN_ONLY = (
    ("process_s", "s"), ("export_s", "s"), ("process_rss_mb", "MB"),
    ("export_rss_mb", "MB"), ("error_rate", "ratio"), ("setup_wall_s", "s"),
    ("simulate_wall_s", "s"), ("campaign_wall_s", "s"), ("reference_s", "s"),
)


def _layer_metrics() -> tuple:
    out = []
    for layer in LAYERS:
        out += [(f"{layer}_s", "s", "lower"), (f"{layer}.alloc_peak_mb", "MB", "lower")]
    out += [
        ("raypaths.paths_per_link", "paths", "lower"),
        ("scene.blockage_segments", "count", "lower"),
        ("sounder.capture_ues", "count", "higher"),
        ("formats.capture_write_mb", "MB", "lower"),
        ("pipeline.halo_ratio", "ratio", "lower"),
        ("pipeline.transform_bins", "count", "lower"),
        ("pipeline.kept_bin_ratio", "ratio", "higher"),
        ("workload.poses", "count", "higher"),
        ("scene.nlos_share", "ratio", "lower"),
        ("scene.nonconvex_footprints", "count", "lower"),
        ("machine.reference_s", "s", "lower"),
    ]
    out += [(f"sounder.agc_{s}db_share", "ratio", "lower") for s in AGC_STEPS_DB]
    for stage in STAGES:
        out += [
            (f"{stage}.wall_s", "s", "lower"),
            (f"{stage}.rss_mb", "MB", "lower"),
            (f"{stage}.other_s", "s", "lower"),
            (f"{stage}.worker_busy_ratio", "ratio", "higher"),
            (f"{stage}.trace_overhead_s", "s", "lower"),
        ]
    return tuple(out)


PER_LAYER = _layer_metrics()
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def environment(root: Path) -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "source_sha256": source_digest(root),
        "git_commit": None,
        "git_dirty": None,
    }
    if (root / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(root)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        if head.returncode == 0:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def source_digest(root: Path) -> str:
    """sha256 over the package sources: identifies the program under test."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, root: Path, w: Workload, seed: int, work: Path):
        self.root, self.w, self.seed, self.work = root, w, seed, work
        self.ops: list[tuple[str, bool, str]] = []
        self.passes: list[dict] = []
        self.reference_digests: dict | None = None
        self.probe = SpeedProbe()

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.ops)

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ops.append((name, ok, detail))
        if not ok:
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def setup(self) -> list[float]:
        """Generate the inputs; time `cfmm validate` SETUP_RUNS times."""
        self.scene_path, self.config_path = write_inputs(
            self.root, self.w, self.seed, self.work / "inputs")
        # Outputs are a function of the program, the scene, the seed and the
        # stages run; runs that agree on all four must write the same bytes.
        key = hashlib.sha256("\0".join([
            source_digest(self.root), self.scene_path.read_text(), str(self.seed),
            *self.w.stages]).encode()).hexdigest()[:24]
        self.digest_file = self.root / OUT_DIR / "digests" / f"{self.w.name}-{key}.json"
        walls = []
        for k in range(SETUP_RUNS):
            self.probe.sample()
            run = run_stage(self.root, ["validate", "--config", str(self.config_path)],
                            self.work, self.work / f"validate{k}.log")
            text = run.log.read_text(errors="replace")
            ok = run.returncode == 0 and f"valid, {self.w.n_poses} poses" in text
            self.op("validate", ok, f"exit {run.returncode}: {text[-300:]}")
            walls.append(run.wall_s)
        return walls

    def one_pass(self, trace: str | None = None) -> dict:
        """Run every stage of the workload once, then check and delete the outputs.

        trace is None for an untraced pass, "time" for a pass under the
        tracer, "alloc" for one under the tracer with tracemalloc on.
        """
        k = len(self.passes)
        out = self.work / f"out{k}"
        spans = self.work / f"spans{k}" if trace else None
        if spans is not None:
            spans.mkdir()
        record = {"trace": trace, "stages": {}}
        ok = True
        for stage in self.w.stages:
            if not ok:
                self.op(stage, False, "not run: an earlier stage failed")
                continue
            argv = [stage, "--config", str(self.config_path), "--out", str(out),
                    "--workers", str(self.w.workers)]
            self.probe.sample()
            run = run_stage(self.root, argv, self.work, self.work / f"{stage}{k}.log",
                            None if spans is None else spans / stage, trace == "alloc")
            ok = self.op(stage, run.returncode == 0,
                         f"exit {run.returncode}: {run.log.read_text(errors='replace')[-500:]}")
            record["stages"][stage] = {"wall_s": run.wall_s, "cpu_s": run.cpu_s,
                                       "rss_mb": run.rss_mb, "pid": run.pid}
        self.probe.sample()
        if ok:
            self.check(out, record)
            if spans is not None:
                record["spans"] = {s: load_spans(spans / s) for s in self.w.stages}
        shutil.rmtree(out, ignore_errors=True)
        self.passes.append(record)
        return record

    def check(self, out: Path, record: dict) -> None:
        record["output_mb"] = sum(p.stat().st_size for p in out.iterdir()) / 1e6
        record["checks"] = {}
        for name, ok, detail in check_outputs(
                out, self.w.stages, self.w.n_poses, N_UES, self.scene_path,
                los_oracle="export" in self.w.stages):
            self.op(name, ok, detail)
            record["checks"][name] = detail if ok else f"FAILED {detail}"
        digests = output_digests(out)
        if self.reference_digests is None:
            if self.digest_file.exists():
                self.reference_digests = json.loads(self.digest_file.read_text())
            else:
                self.reference_digests = digests
                self.digest_file.parent.mkdir(parents=True, exist_ok=True)
                tmp = self.digest_file.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
                tmp.replace(self.digest_file)
        differ = sorted(n for n in set(digests) | set(self.reference_digests)
                        if digests.get(n) != self.reference_digests.get(n))
        self.op("output_sha256", not differ, f"outputs differ from earlier runs: {differ}")

    def measure(self, seconds: float) -> None:
        """Untraced passes for `seconds`: at least one, and no pass that
        would end after the time is up, judged by the median pass so far."""
        t0 = time.perf_counter()
        took = []
        while True:
            start = time.perf_counter()
            self.one_pass()
            now = time.perf_counter()
            took.append(now - start)
            if now - t0 + statistics.median(took) > seconds:
                break


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def stage_medians(passes: list[dict], key: str) -> dict[str, float]:
    stages = {s for p in passes for s in p["stages"]}
    return {s: _median(p["stages"][s][key] for p in passes if s in p["stages"])
            for s in sorted(stages)}


def end_to_end(w: Workload, setup_walls: list[float], passes: list[dict],
               attempted: int, failed: int, probe: SpeedProbe) -> dict[str, float]:
    """END_TO_END metrics, plus the SHOWN_ONLY ones the workload has.

    The times are walls scaled to the nominal machine speed by the run's
    SpeedProbe; the raw medians are the *_wall_s figures.
    """
    walls = stage_medians(passes, "wall_s")
    rss = stage_medians(passes, "rss_mb")
    complete = [p for p in passes if len(p["stages"]) == len(w.stages)]
    campaign = _median(sum(s["wall_s"] for s in p["stages"].values()) for p in complete)
    scale = probe.scale()
    return {
        "setup_s": _median(setup_walls) * scale,
        "simulate_s": walls.get("simulate", float("nan")) * scale,
        "campaign_s": campaign * scale,
        "capture_ue_per_s": w.n_poses * N_UES / (campaign * scale),
        "simulate_rss_mb": rss.get("simulate", float("nan")),
        "peak_rss_mb": max(rss.values(), default=float("nan")),
        "output_mb": _median(p["output_mb"] for p in passes if "output_mb" in p),
        "success_rate": (attempted - failed) / attempted,
        **{f"{s}_s": walls[s] for s in walls if s != "simulate"},
        **{f"{s}_rss_mb": rss[s] for s in rss if s != "simulate"},
        "error_rate": failed / attempted,
        "setup_wall_s": _median(setup_walls),
        "simulate_wall_s": walls.get("simulate", float("nan")),
        "campaign_wall_s": campaign,
        "reference_s": probe.speed_s(),
    }


def per_layer(traced: dict, alloc_pass: dict, untraced: list[dict],
              poses: int, probe: SpeedProbe) -> dict[str, float]:
    """PER_LAYER metrics: times, counts and stage accounting from the timed
    traced pass, alloc peaks from the tracemalloc pass, stage walls and the
    trace overhead against the untraced passes."""
    walls = stage_medians(untraced, "wall_s")
    rss = stage_medians(untraced, "rss_mb")
    # Stages the workload does not run read 0, like layers it does not reach.
    m = {f"{stage}.{k}": 0.0 for stage in STAGES
         for k in ("other_s", "worker_busy_ratio", "trace_overhead_s", "wall_s", "rss_mb")}
    self_s, alloc, counts = {}, {}, {}
    for stage, st in traced["stages"].items():
        s = summarize(traced["spans"][stage], st["pid"], st["wall_s"])
        for layer, v in s["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + v
        for name, v in s["counts"].items():
            counts[name] = counts.get(name, 0) + v
        m[f"{stage}.other_s"] = s["other_s"]
        m[f"{stage}.worker_busy_ratio"] = s["worker_busy_ratio"]
        m[f"{stage}.trace_overhead_s"] = st["wall_s"] - walls[stage]
        m[f"{stage}.wall_s"] = walls[stage]
        m[f"{stage}.rss_mb"] = rss[stage]
    for stage, st in alloc_pass["stages"].items():
        s = summarize(alloc_pass["spans"][stage], st["pid"], st["wall_s"])
        for layer, v in s["alloc_peak_mb"].items():
            alloc[layer] = max(alloc.get(layer, 0.0), v)
    for layer in LAYERS:
        m[f"{layer}_s"] = self_s.get(layer, 0.0)
        m[f"{layer}.alloc_peak_mb"] = alloc.get(layer, 0.0)

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    transform_bins = ratio("pipeline.transform.bins", "pipeline.transform.calls")
    m.update({
        "raypaths.paths_per_link": ratio("raypaths.trace.paths", "raypaths.trace.links"),
        "scene.blockage_segments": counts.get("scene.blockage.segments", 0),
        "sounder.capture_ues": counts.get("sounder.synth.capture_ues", 0),
        "formats.capture_write_mb": counts.get("formats.capture_write.bytes", 0) / 1e6,
        "pipeline.halo_ratio": ratio("formats.capture_read.rows", "pipeline.chunk.rows"),
        "pipeline.transform_bins": transform_bins,
        "pipeline.kept_bin_ratio": (ratio("pipeline.chunk.kept_bins", "pipeline.chunk.calls")
                                    / transform_bins if transform_bins else 0.0),
        "workload.poses": poses,
        "scene.nlos_share": ratio("scene.classify.nlos", "scene.classify.links"),
        "scene.nonconvex_footprints": counts.get("scene.load.nonconvex_footprints", 0),
        "machine.reference_s": probe.speed_s(),
    })
    for step in AGC_STEPS_DB:
        m[f"sounder.agc_{step}db_share"] = ratio(f"sounder.agc.agc_{step}db",
                                                 "sounder.agc.captures")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "cfmm" / "cli.py").is_file():
        print(f"error: no cfmm sources under {ROOT / 'src'}; run from a cfmm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    w = WORKLOADS[args.workload]
    env = environment(ROOT)
    flags = [f"nproc {env['nproc']} < {w.workers} workers"] if env["nproc"] < w.workers else []
    work = ROOT / OUT_DIR / "work" / f"{w.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(ROOT, w, args.seed, work)
    traced = []
    try:
        setup_walls = bench.setup()
        if not bench.failed:
            # A traced run keeps half the time for the two traced passes; the
            # untraced passes give the stage walls the overhead is taken from.
            bench.measure(args.seconds / 2 if args.trace else args.seconds)
            if args.trace:
                traced = [bench.one_pass("time"), bench.one_pass("alloc")]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in bench.passes if not p["trace"]]
    attempted, failed = len(bench.ops), bench.failed
    shown = (end_to_end(w, setup_walls, untraced, attempted, failed, bench.probe)
             if untraced else {})
    if traced and all("spans" in p for p in traced):
        shown |= per_layer(*traced, untraced, w.n_poses, bench.probe)
    reported = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": shown[name], "unit": unit} for name, unit, *_ in reported
               if math.isfinite(shown.get(name, math.nan))}

    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "flags": flags,
              "setup_walls_s": setup_walls, "reference_samples_s": bench.probe.samples,
              "passes": bench.passes,
              "operations": bench.ops, "metrics": shown}
    results = ROOT / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=str))

    print(f"workload {w.name}: {w.n_poses} poses x {N_UES} UEs, stages "
          f"{'/'.join(w.stages)}, {w.workers} workers, seed {args.seed}, "
          f"{len(untraced)} untraced passes, {len(traced)} traced")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for flag in flags:
        print(f"FLAG {flag}")
    units = {name: unit for name, unit, *_ in END_TO_END + SHOWN_ONLY + PER_LAYER}
    for name, value in shown.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    correct = failed == 0 and len(metrics) == len(reported)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
