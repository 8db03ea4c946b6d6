"""Benchmark workloads, derived from the bundled scene JSONs.

Each workload is a bundled scene, a window of its route given in pose
indices, the stages it runs and the worker count. ``write_inputs`` turns a workload and a campaign seed
into the two files the program sees: a scene JSON and a run config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

STAGES = ("simulate", "process", "export")

@dataclass(frozen=True)
class Workload:
    name: str
    scene: str  # bundled scene name
    first_pose: int  # route window: poses [first_pose, first_pose + n_poses)
    n_poses: int
    stages: tuple[str, ...]
    workers: int
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        # Poses 3140..3395 lie on the LOS return leg (y = 72 m) and pass
        # over UEs 4-6, so the direct ray leads the wall image by at least
        # 4 native bins on many rows and the LOS oracle has rows to check.
        # 256 poses make two 128-capture chunks, one per worker.
        Workload(
            name="canyon-campaign", scene="canyon", first_pose=3140, n_poses=256,
            stages=STAGES, workers=2,
            why="only workload that runs process and export: the transform, "
                "the matrix write and read-back, export and the fork runner",
        ),
        # Leg 1 and the start of leg 2 of the full route: three convex
        # buildings and the foliage blob, no mast lift inside the window.
        Workload(
            name="full-simulate", scene="full", first_pose=0, n_poses=1536,
            stages=("simulate",), workers=1,
            why="synthesis and capture write dominate; plain single-process "
                "baseline that pipeline-side changes must leave unchanged",
        ),
    )
}


def _lift_rate(traj: dict) -> float:
    return 9.0 / traj.get("lift_full_travel_s", 40.0)


def route_window(traj: dict, first_pose: int, n_poses: int) -> dict:
    """Trajectory whose poses are poses [first_pose, first_pose + n_poses) of traj.

    The window starts at pose first_pose and ends half a capture interval
    after its last pose, so the program samples exactly n_poses. A window
    edge may fall inside a drive or a pause, but not inside a mast lift,
    because intermediate mast heights are not valid AP heights.
    """
    if first_pose < 0 or n_poses < 1:
        raise ValueError("route window needs first_pose >= 0 and n_poses >= 1")
    dt = traj.get("capture_interval_s", 0.1)
    speed = traj.get("speed_mps", 0.5)
    t_lo = first_pose * dt
    t_hi = t_lo + (n_poses - 0.5) * dt
    wps = traj["waypoints"]
    pos = [wps[0]["x"], wps[0]["y"], wps[0]["height"]]
    start = None
    out: list[dict] = []
    t = 0.0
    for w in wps[1:]:
        a = w["action"]
        end = list(pos)
        if a == "drive":
            end[:2] = [w["x"], w["y"]]
            dur = math.hypot(end[0] - pos[0], end[1] - pos[1]) / speed
        elif a in ("raise", "lower"):
            end[2] = w["height"]
            dur = abs(end[2] - pos[2]) / _lift_rate(traj)
        else:
            dur = w["duration_s"]

        def at(time: float) -> list[float]:
            f = 0.0 if dur == 0 else (time - t) / dur
            return [p + f * (q - p) for p, q in zip(pos, end)]

        t_end = t + dur
        if t_end > t_lo and t < t_hi:
            if a in ("raise", "lower") and (t < t_lo or t_end > t_hi):
                raise ValueError("route window edge falls inside a mast lift")
            if start is None:
                start = at(max(t, t_lo))
            if a == "drive":
                x, y, _ = at(min(t_end, t_hi))
                out.append({"action": "drive", "x": x, "y": y})
            elif a == "pause":
                out.append({"action": "pause",
                            "duration_s": min(t_end, t_hi) - max(t, t_lo)})
            else:
                out.append(dict(w))
        pos, t = end, t_end
        if t >= t_hi:
            break
    if start is None or t < t_hi:
        raise ValueError(f"route has fewer than {first_pose + n_poses} poses")
    return {
        **{k: v for k, v in traj.items() if k != "waypoints"},
        "waypoints": [{"action": "start", "x": start[0], "y": start[1],
                       "height": start[2]}] + out,
    }


def workload_scene(root: Path, w: Workload) -> dict:
    """Scene document of workload w, built from the bundled scene under root."""
    bundled = root / "src" / "cfmm" / "data" / f"scene_{w.scene}.json"
    doc = json.loads(bundled.read_text())
    doc["trajectory"] = route_window(doc["trajectory"], w.first_pose, w.n_poses)
    doc["name"] = w.name
    return doc


def write_inputs(root: Path, w: Workload, seed: int, dest: Path) -> tuple[Path, Path]:
    """Write the scene JSON and run config of workload w into dest.

    The run config names the scene by path, carries the campaign seed and
    leaves every other field at its default. Returns (scene, config) paths.
    """
    dest.mkdir(parents=True, exist_ok=True)
    scene_path = dest / "scene.json"
    scene_path.write_text(json.dumps(workload_scene(root, w), indent=1, sort_keys=True))
    config_path = dest / "run.json"
    config_path.write_text(json.dumps({
        "scene": str(scene_path),
        "seed": int(seed),
        "workers": w.workers,
        "output_dir": "out",
    }, indent=1, sort_keys=True))
    return scene_path, config_path
