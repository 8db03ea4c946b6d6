"""Urban scene model: buildings, foliage, UE sites, and the AP trajectory.

Coordinates are metres in a right-handed frame with z up; the scene extent
is the axis-aligned box [0, extent_x] x [0, extent_y]. The mobile AP drives
a piecewise-linear route at constant speed and triggers captures on a fixed
interval, so pose index m and timestamp m * capture_interval are
interchangeable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from . import geometry
from .document import read, write


class SceneError(ValueError):
    """Scene fails validation; message names the offending element."""


class LinkClass(IntEnum):
    """Propagation state of an AP-UE link, decided from its direct ray by
    raypaths.trace_paths_batch."""

    LOS = 0
    OLOS = 1  # obstructed only by foliage
    NLOS = 2  # blocked by at least one building


@dataclass
class Building:
    building_id: str = field(metadata={"json": "id"})
    footprint: np.ndarray  # (m, 2), stored CCW
    height_m: float
    reflection_loss_db: float = 6.0
    rooftop_diffraction_loss_db: float = 20.0

    def __post_init__(self):
        fp = np.asarray(self.footprint, dtype=float)
        # Any other shape is left as given, for validate_scene to reject.
        polygon = fp.ndim == 2 and fp.shape[0] >= 3 and fp.shape[1] == 2
        self.footprint = geometry.ensure_ccw(fp) if polygon else fp
        self.is_convex = polygon and geometry.polygon_is_convex(self.footprint)

    def blockage_chords(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """Chord length of each segment (n, 3) inside this building, by
        geometry.segment_prism_chords for every footprint, convex or not:
        exact zeros for segments outside the building's bounding box, and
        zero for contact that only grazes a facade, the roof or the floor."""
        return geometry.segment_prism_chords(p0, p1, self.footprint, self.height_m)


@dataclass
class FoliageBlob:
    center_m: np.ndarray  # (3,)
    radius_m: float
    attenuation_db_per_m: float = 1.0
    core_radius_m: float = 0.0
    core_attenuation_db_per_m: float = 4.0

    def __post_init__(self):
        self.center_m = np.asarray(self.center_m, dtype=float)

    def penetration_loss_db(self, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
        """Attenuation of each segment (n, 3) through the canopy, in dB.

        The outer shell and the dense core attenuate at different rates;
        the core chord is charged at the core rate, the remainder of the
        outer chord at the shell rate.
        """
        outer = geometry.segment_sphere_chords(p0, p1, self.center_m, self.radius_m)
        if self.core_radius_m > 0.0:
            core = geometry.segment_sphere_chords(p0, p1, self.center_m, self.core_radius_m)
        else:
            core = np.zeros_like(outer)
        return (
            self.attenuation_db_per_m * (outer - core)
            + self.core_attenuation_db_per_m * core
        )


@dataclass
class UESite:
    site_id: str = field(metadata={"json": "id"})
    positions_m: np.ndarray  # (8, 3)

    def __post_init__(self):
        self.positions_m = np.asarray(self.positions_m, dtype=float)


@dataclass
class Waypoint:
    action: str  # "start" | "drive" | "raise" | "lower" | "pause"
    x: float | None = None
    y: float | None = None
    height: float | None = None
    duration_s: float | None = None


@dataclass(kw_only=True)
class Trajectory:
    """The AP route; fields keyword-only, in the key order of a scene file."""

    speed_mps: float = 0.5
    capture_interval_s: float = 0.1
    lift_full_travel_s: float = 40.0  # time for the full 9 m mast travel
    waypoints: list[Waypoint]

    LIFT_TRAVEL_M = 9.0


@dataclass(kw_only=True)
class Scene:
    """An urban scene; fields keyword-only, in the key order of a scene file."""

    name: str = "scene"
    extent_m: np.ndarray  # (2,)
    buildings: list[Building] = field(default_factory=list)
    foliage: list[FoliageBlob] = field(default_factory=list)
    ue_sites: list[UESite] = field(default_factory=list)
    trajectory: Trajectory

    def __post_init__(self):
        self.extent_m = np.asarray(self.extent_m, dtype=float)

    def site(self, site_id_or_index) -> UESite:
        """The UE site named by its index in ue_sites (0 .. n-1) or by its
        id; SceneError for anything else."""
        n = len(self.ue_sites)
        if isinstance(site_id_or_index, int) and not isinstance(site_id_or_index, bool):
            if 0 <= site_id_or_index < n:
                return self.ue_sites[site_id_or_index]
        else:
            for s in self.ue_sites:
                if s.site_id == site_id_or_index:
                    return s
        ids = ", ".join(repr(s.site_id) for s in self.ue_sites)
        raise SceneError(f"site {site_id_or_index!r}: no such UE site; known site "
                         f"ids: {ids} (or an index 0..{n - 1})")

    def validate(self) -> None:
        validate_scene(self)


AP_HEIGHT_LOW_RANGE = (4.0, 5.0)
AP_HEIGHT_HIGH = 13.0
UE_HEIGHT_M = 1.0
UE_SPREAD_MAX_M = 60.0
UES_PER_SITE = 8
_HEIGHT_TOL = 1e-6


def _height_allowed(h: float) -> bool:
    lo, hi = AP_HEIGHT_LOW_RANGE
    if lo - _HEIGHT_TOL <= h <= hi + _HEIGHT_TOL:
        return True
    return abs(h - AP_HEIGHT_HIGH) <= _HEIGHT_TOL


def _in_extent(xy, extent) -> bool:
    return bool(
        np.all(xy[..., 0] >= -1e-9)
        and np.all(xy[..., 0] <= extent[0] + 1e-9)
        and np.all(xy[..., 1] >= -1e-9)
        and np.all(xy[..., 1] <= extent[1] + 1e-9)
    )


def validate_scene(scene: Scene) -> None:
    ext = scene.extent_m
    if ext.shape != (2,) or np.any(ext <= 0):
        raise SceneError("extent_m must be two positive lengths")

    seen = set()
    for b in scene.buildings:
        tag = f"building {b.building_id!r}"
        if b.building_id in seen:
            raise SceneError(f"{tag}: duplicate building id")
        seen.add(b.building_id)
        fp = b.footprint
        if fp.ndim != 2 or fp.shape[0] < 3 or fp.shape[1] != 2:
            raise SceneError(f"{tag}: footprint has shape {fp.shape}; "
                             "expected (n >= 3, 2), one x, y row per vertex")
        if not geometry.polygon_is_simple(fp):
            raise SceneError(f"{tag}: footprint is not a simple polygon")
        if b.height_m <= 0:
            raise SceneError(f"{tag}: height must be positive")
        if b.reflection_loss_db < 0 or b.rooftop_diffraction_loss_db < 0:
            raise SceneError(f"{tag}: losses must be non-negative")
        if not _in_extent(b.footprint, ext):
            raise SceneError(f"{tag}: footprint outside scene extent")

    for i, f in enumerate(scene.foliage):
        tag = f"foliage {i}"
        if f.center_m.shape != (3,):
            raise SceneError(f"{tag}: center_m has shape {f.center_m.shape}; "
                             "expected (3,), one x, y, z point")
        if f.radius_m <= 0:
            raise SceneError(f"{tag}: radius must be positive")
        if not 0.0 <= f.core_radius_m <= f.radius_m:
            raise SceneError(f"{tag}: core radius must lie in [0, radius]")
        if f.attenuation_db_per_m < 0 or f.core_attenuation_db_per_m < 0:
            raise SceneError(f"{tag}: attenuation rates must be non-negative")
        if not _in_extent(f.center_m[:2], ext):
            raise SceneError(f"{tag}: centre outside scene extent")

    if not scene.ue_sites:
        raise SceneError("scene has no UE sites")
    for s in scene.ue_sites:
        tag = f"UE site {s.site_id!r}"
        if s.positions_m.shape != (UES_PER_SITE, 3):
            raise SceneError(f"{tag}: expected exactly {UES_PER_SITE} UE positions")
        if np.any(np.abs(s.positions_m[:, 2] - UE_HEIGHT_M) > _HEIGHT_TOL):
            raise SceneError(f"{tag}: UE heights must be {UE_HEIGHT_M} m")
        if geometry.max_pairwise_distance(s.positions_m[:, :2]) > UE_SPREAD_MAX_M + 1e-9:
            raise SceneError(f"{tag}: UEs spread over more than {UE_SPREAD_MAX_M} m")
        if not _in_extent(s.positions_m[:, :2], ext):
            raise SceneError(f"{tag}: positions outside scene extent")

    _validate_trajectory(scene.trajectory, ext)


def _validate_trajectory(traj: Trajectory, extent: np.ndarray) -> None:
    if traj.speed_mps <= 0:
        raise SceneError("trajectory: speed must be positive")
    if traj.capture_interval_s <= 0:
        raise SceneError("trajectory: capture interval must be positive")
    if traj.lift_full_travel_s <= 0:
        raise SceneError("trajectory: lift travel time must be positive")
    wps = traj.waypoints
    if not wps or wps[0].action != "start":
        raise SceneError("trajectory: first waypoint must be a 'start'")
    w0 = wps[0]
    if w0.x is None or w0.y is None or w0.height is None:
        raise SceneError("trajectory: start waypoint needs x, y and height")
    if not _height_allowed(w0.height):
        raise SceneError(
            f"trajectory: start height {w0.height} m outside "
            f"[{AP_HEIGHT_LOW_RANGE[0]}, {AP_HEIGHT_LOW_RANGE[1]}] or {AP_HEIGHT_HIGH}"
        )
    if not _in_extent(np.array([w0.x, w0.y]), extent):
        raise SceneError("trajectory: start waypoint outside scene extent")
    for i, w in enumerate(wps[1:], start=1):
        tag = f"trajectory waypoint {i}"
        if w.action == "drive":
            if w.x is None or w.y is None:
                raise SceneError(f"{tag}: drive needs x and y")
            if not _in_extent(np.array([w.x, w.y]), extent):
                raise SceneError(f"{tag}: outside scene extent")
        elif w.action in ("raise", "lower"):
            if w.height is None:
                raise SceneError(f"{tag}: {w.action} needs a target height")
            if not _height_allowed(w.height):
                raise SceneError(f"{tag}: target height {w.height} m not allowed")
        elif w.action == "pause":
            if w.duration_s is None or w.duration_s < 0:
                raise SceneError(f"{tag}: pause needs a non-negative duration")
        elif w.action == "start":
            raise SceneError(f"{tag}: only the first waypoint may be 'start'")
        else:
            raise SceneError(f"{tag}: unknown action {w.action!r}")


@dataclass
class _Segment:
    t0: float
    t1: float
    p0: np.ndarray
    p1: np.ndarray
    heading: float


def _build_segments(traj: Trajectory) -> list[_Segment]:
    wps = traj.waypoints
    x, y, h = wps[0].x, wps[0].y, wps[0].height
    t = 0.0
    lift_rate = Trajectory.LIFT_TRAVEL_M / traj.lift_full_travel_s
    segs: list[_Segment] = []
    for w in wps[1:]:
        p0 = np.array([x, y, h])
        if w.action == "drive":
            dist = float(np.hypot(w.x - x, w.y - y))
            if dist == 0.0:
                continue
            dur = dist / traj.speed_mps
            heading = float(np.arctan2(w.y - y, w.x - x))
            x, y = w.x, w.y
            segs.append(_Segment(t, t + dur, p0, np.array([x, y, h]), heading))
        elif w.action in ("raise", "lower"):
            dh = w.height - h
            if dh == 0.0:
                continue
            dur = abs(dh) / lift_rate
            h = w.height
            segs.append(_Segment(t, t + dur, p0, np.array([x, y, h]), np.nan))
        else:  # pause
            if w.duration_s == 0.0:
                continue
            dur = w.duration_s
            segs.append(_Segment(t, t + dur, p0, p0.copy(), np.nan))
        t += dur

    # Stationary segments inherit the heading of the last drive; leading
    # ones take the first drive's heading (0.0 if the route never drives).
    first_drive = next((s.heading for s in segs if not np.isnan(s.heading)), 0.0)
    current = first_drive
    for s in segs:
        if np.isnan(s.heading):
            s.heading = current
        else:
            current = s.heading
    return segs


def sample_ap_pose_arrays(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample the trajectory at the capture cadence.

    Returns (positions (M, 3), headings (M,), timestamps (M,)). Pose m sits
    at timestamp m * capture_interval_s; the final pose is the last grid
    point not beyond the end of the route. Poses exactly on a segment
    boundary take the heading of the segment just completed.
    """
    segs = _build_segments(traj)
    if not segs:
        raise SceneError("trajectory has zero duration")
    total = segs[-1].t1
    dt = traj.capture_interval_s
    n_poses = int(np.floor(total / dt + 1e-9)) + 1
    t = np.arange(n_poses) * dt

    t1s = np.array([s.t1 for s in segs])
    idx = np.searchsorted(t1s, t, side="left")
    idx = np.minimum(idx, len(segs) - 1)

    p0 = np.array([s.p0 for s in segs])[idx]
    p1 = np.array([s.p1 for s in segs])[idx]
    t0 = np.array([s.t0 for s in segs])[idx]
    dur = np.maximum(t1s[idx] - t0, 1e-300)
    frac = np.clip((t - t0) / dur, 0.0, 1.0)
    positions = p0 + frac[:, None] * (p1 - p0)
    headings = np.array([s.heading for s in segs])[idx]
    return positions, headings, t


# --- JSON round trip -------------------------------------------------------

def load_scene(path) -> Scene:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SceneError(f"{path}: malformed JSON: {e}") from e
    scene = read(Scene, data, "", SceneError)
    scene.validate()
    return scene


def save_scene(scene: Scene, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(write(scene), indent=2))
    return path
