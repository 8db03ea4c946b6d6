"""Deterministic ray-path enumeration and per-path link budgets.

For every AP pose and UE the engine enumerates the direct ray, specular
facade reflections up to second order (image method), and one rooftop
diffraction per building that blocks the direct ray. Each path carries its
geometric length, its interaction and foliage losses, antenna gains at both
ends, and a complex gain referenced to the band centre.

The one entry point, trace_paths_batch, vectorises across AP poses and
returns a columnar PathBundle; a campaign traces one
facade (or facade pair) at a time against all poses, which keeps the
per-pose Python overhead out of the 20k-pose runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .geometry import GRAZE_TOL_M
from .scene import Scene

KIND_DIRECT = 0
KIND_REFLECT1 = 1
KIND_REFLECT2 = 2
KIND_ROOFTOP = 3

_SIDE_TOL = 1e-9  # metres of signed facade clearance below which geometry is degenerate


# --- antennas ---------------------------------------------------------------

@dataclass(frozen=True)
class AntennaPattern:
    """Analytic gain pattern.

    kind "patch": cos^rolloff_exponent power rolloff around boresight with a
    back/side floor at floor_db relative to peak. kind "dipole": vertical
    short dipole, sin^2 of the angle from the axis, azimuth symmetric.
    """

    kind: str = "isotropic"  # "isotropic" | "patch" | "dipole"
    peak_gain_dbi: float = 0.0
    rolloff_exponent: float = 2.0
    floor_db: float = -20.0
    downtilt_deg: float = 0.0


def patch_panel(downtilt_deg: float = 40.0) -> AntennaPattern:
    """Downtilted sector patch used on the AP side."""
    return AntennaPattern(
        kind="patch",
        peak_gain_dbi=7.0,
        rolloff_exponent=2.0,
        floor_db=-20.0,
        downtilt_deg=downtilt_deg,
    )


def tripod_dipole() -> AntennaPattern:
    """Vertical dipole used on the UE side."""
    return AntennaPattern(kind="dipole", peak_gain_dbi=2.15, floor_db=-30.0)


def mount_gain_db(pattern: AntennaPattern, headings, world_dirs) -> np.ndarray:
    """Gain in dBi toward world-frame unit directions (n, 3).

    The dipole's boresight plane is horizontal, so only elevation matters
    and headings are ignored; sin^2 of the angle from the vertical axis is
    cos^2 of the elevation. The patch is mounted to look 90 degrees
    clockwise from each pose's heading (n,), tilted down, and rolls off
    with the total off-boresight angle.
    """
    dirs = np.atleast_2d(np.asarray(world_dirs, dtype=float))
    if pattern.kind == "isotropic":
        return np.full(dirs.shape[0], pattern.peak_gain_dbi)
    if pattern.kind == "dipole":
        el = np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0))
        c = np.clip(np.cos(el), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            rel = 20.0 * np.log10(c)
        return pattern.peak_gain_dbi + np.maximum(rel, pattern.floor_db)
    if pattern.kind != "patch":
        raise ValueError(f"unknown antenna kind {pattern.kind!r}")
    headings = np.broadcast_to(np.asarray(headings, dtype=float), (dirs.shape[0],))
    tilt = np.deg2rad(pattern.downtilt_deg)
    bx = np.sin(headings) * np.cos(tilt)
    by = -np.cos(headings) * np.cos(tilt)
    bz = np.full_like(headings, -np.sin(tilt))
    cos_off = dirs[:, 0] * bx + dirs[:, 1] * by + dirs[:, 2] * bz
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(
            cos_off > 0.0,
            10.0 * pattern.rolloff_exponent * np.log10(np.maximum(cos_off, 1e-300)),
            -np.inf,
        )
    return pattern.peak_gain_dbi + np.maximum(rel, pattern.floor_db)


# --- paths ------------------------------------------------------------------

def fspl_db(distance_m, frequency_hz) -> np.ndarray:
    """Free-space path loss, 20 log10(4 pi d f / c)."""
    d = np.asarray(distance_m, dtype=float)
    return 20.0 * np.log10(4.0 * np.pi * d * frequency_hz / SPEED_OF_LIGHT)


def knife_edge_loss_db(nu) -> np.ndarray:
    """Knife-edge diffraction loss for clearance parameter nu (ITU J-function)."""
    nu = np.asarray(nu, dtype=float)
    loss = 6.9 + 20.0 * np.log10(np.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)
    return np.where(nu > -0.78, loss, 0.0)


@dataclass(frozen=True)
class RaypathConfig:
    band_center_hz: float = 3.5e9
    max_reflection_order: int = 2
    min_relative_power_db: float = 130.0
    include_rooftop: bool = True
    rooftop_model: str = "fixed"  # "fixed" | "knife-edge"
    tx_pattern: AntennaPattern = field(default_factory=patch_panel)
    rx_pattern: AntennaPattern = field(default_factory=tripod_dipole)

    def validate(self) -> None:
        if not 0 <= self.max_reflection_order <= 2:
            raise ValueError("max_reflection_order must be 0, 1 or 2")
        if self.min_relative_power_db <= 0:
            raise ValueError("min_relative_power_db must be positive")
        if self.rooftop_model not in ("fixed", "knife-edge"):
            raise ValueError(f"unknown rooftop_model {self.rooftop_model!r}")
        if self.band_center_hz <= 0:
            raise ValueError("band_center_hz must be positive")


@dataclass
class PathBundle:
    """Columnar batch of paths for many poses against one UE."""

    pose_index: np.ndarray  # (K,) int32
    kind: np.ndarray  # (K,) uint8
    length_m: np.ndarray  # (K,) float64
    gain_db: np.ndarray  # (K,) total link budget at band centre
    phase_rad: np.ndarray  # (K,) carrier phase at band centre
    points: np.ndarray  # (K, 2, 3) interaction points, NaN padded
    interact_idx: np.ndarray  # (K, 2) int32 building indices, -1 = none
    loss_interaction_db: np.ndarray  # (K,)
    loss_foliage_db: np.ndarray  # (K,)
    gain_tx_db: np.ndarray  # (K,)
    gain_rx_db: np.ndarray  # (K,)

    @property
    def delay_s(self) -> np.ndarray:
        return self.length_m / SPEED_OF_LIGHT

    def complex_gains(self) -> np.ndarray:
        return 10.0 ** (self.gain_db / 20.0) * np.exp(1j * self.phase_rad)

    def __len__(self) -> int:
        return int(self.pose_index.size)


@dataclass
class _Facade:
    building_idx: int
    q0: np.ndarray  # (2,)
    q1: np.ndarray  # (2,)
    normal: np.ndarray  # (2,) unit outward
    edge_len: float
    height: float
    reflection_loss_db: float


def _scene_facades(scene: Scene) -> list[_Facade]:
    facades = []
    for bi, b in enumerate(scene.buildings):
        v = b.footprint
        v2 = np.roll(v, -1, axis=0)
        for q0, q1 in zip(v, v2):
            e = q1 - q0
            elen = float(np.hypot(*e))
            if elen < 1e-12:
                continue
            n = np.array([e[1], -e[0]]) / elen
            facades.append(
                _Facade(bi, q0, q1, n, elen, b.height_m, b.reflection_loss_db)
            )
    return facades


def _blocked(scene: Scene, p0: np.ndarray, p1: np.ndarray, skip: int = -1) -> np.ndarray:
    out = np.zeros(p0.shape[0], dtype=bool)
    for bi, b in enumerate(scene.buildings):
        if bi == skip:
            continue
        todo = ~out
        if not todo.any():
            break
        chords = b.blockage_chords(p0[todo], p1[todo])
        out[todo] = chords > GRAZE_TOL_M
    return out


def _foliage_loss(scene: Scene, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    loss = np.zeros(p0.shape[0])
    for f in scene.foliage:
        loss += f.penetration_loss_db(p0, p1)
    return loss


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(n, 1e-300)


class _Collector:
    """Accumulates path candidate arrays before the power cutoff."""

    def __init__(self):
        self.rows = []

    def add(self, pose_idx, kind, length, interaction_loss, foliage, g_tx, g_rx,
            points, interact_idx, phase_extra, fc):
        if pose_idx.size == 0:
            return
        fspl = fspl_db(length, fc)
        gain = -fspl - interaction_loss - foliage + g_tx + g_rx
        tau = length / SPEED_OF_LIGHT
        phase = -2.0 * np.pi * fc * tau + phase_extra
        self.rows.append((
            pose_idx.astype(np.int32),
            np.full(pose_idx.size, kind, dtype=np.uint8),
            length.astype(float),
            gain.astype(float),
            phase.astype(float),
            points.astype(float),
            interact_idx.astype(np.int32),
            interaction_loss.astype(float),
            foliage.astype(float),
            g_tx.astype(float),
            g_rx.astype(float),
        ))

    def bundle(self) -> PathBundle:
        if not self.rows:
            z = np.zeros(0)
            return PathBundle(
                pose_index=np.zeros(0, np.int32), kind=np.zeros(0, np.uint8),
                length_m=z, gain_db=z.copy(), phase_rad=z.copy(),
                points=np.full((0, 2, 3), np.nan),
                interact_idx=np.full((0, 2), -1, np.int32),
                loss_interaction_db=z.copy(), loss_foliage_db=z.copy(),
                gain_tx_db=z.copy(), gain_rx_db=z.copy(),
            )
        cols = [np.concatenate([r[i] for r in self.rows]) for i in range(11)]
        return PathBundle(*cols)


def trace_paths_batch(
    scene: Scene,
    ap_positions: np.ndarray,
    headings: np.ndarray,
    ue_position: np.ndarray,
    config: RaypathConfig,
) -> PathBundle:
    """Enumerate paths for every AP pose (M, 3) against one UE position.

    Returns a PathBundle sorted by (pose, delay); within each pose, paths
    more than min_relative_power_db below the strongest are dropped.
    """
    config.validate()
    ap = np.atleast_2d(np.asarray(ap_positions, dtype=float))
    m_poses = ap.shape[0]
    headings = np.broadcast_to(np.asarray(headings, dtype=float), (m_poses,))
    ue = np.asarray(ue_position, dtype=float)
    ue_b = np.broadcast_to(ue, ap.shape)
    fc = config.band_center_hz
    col = _Collector()
    all_idx = np.arange(m_poses)

    # Direct ray, and per-building blockage reused for the rooftop step.
    block_by = np.zeros((len(scene.buildings), m_poses), dtype=bool)
    for bi, b in enumerate(scene.buildings):
        block_by[bi] = b.blockage_chords(ap, ue_b) > GRAZE_TOL_M
    direct_clear = ~block_by.any(axis=0)

    idx = all_idx[direct_clear]
    if idx.size:
        d = ue - ap[idx]
        length = np.linalg.norm(d, axis=1)
        dirs = _unit(d)
        col.add(
            idx, KIND_DIRECT, length,
            np.zeros(idx.size),
            _foliage_loss(scene, ap[idx], ue_b[idx]),
            mount_gain_db(config.tx_pattern, headings[idx], dirs),
            mount_gain_db(config.rx_pattern, 0.0, -dirs),
            np.full((idx.size, 2, 3), np.nan),
            np.full((idx.size, 2), -1, np.int32),
            0.0, fc,
        )

    facades = _scene_facades(scene)
    if config.max_reflection_order >= 1:
        for f in facades:
            _trace_reflect1(scene, ap, headings, ue, f, config, col)
    if config.max_reflection_order >= 2:
        pairs = _admissible_pairs(scene, facades)
        for f1, f2 in pairs:
            _trace_reflect2(scene, ap, headings, ue, f1, f2, config, col)

    if config.include_rooftop:
        for bi, b in enumerate(scene.buildings):
            idx = all_idx[block_by[bi]]
            if idx.size:
                _trace_rooftop(scene, ap, headings, ue, bi, idx, config, col)

    bundle = col.bundle()
    if len(bundle) == 0:
        return bundle

    # Per-pose relative power cutoff.
    best = np.full(m_poses, -np.inf)
    np.maximum.at(best, bundle.pose_index, bundle.gain_db)
    keep = bundle.gain_db >= best[bundle.pose_index] - config.min_relative_power_db

    order = np.lexsort((
        bundle.kind[keep], bundle.length_m[keep], bundle.pose_index[keep]
    ))

    def pick(a):
        return a[keep][order]

    return PathBundle(
        pose_index=pick(bundle.pose_index), kind=pick(bundle.kind),
        length_m=pick(bundle.length_m), gain_db=pick(bundle.gain_db),
        phase_rad=pick(bundle.phase_rad), points=pick(bundle.points),
        interact_idx=pick(bundle.interact_idx),
        loss_interaction_db=pick(bundle.loss_interaction_db),
        loss_foliage_db=pick(bundle.loss_foliage_db),
        gain_tx_db=pick(bundle.gain_tx_db), gain_rx_db=pick(bundle.gain_rx_db),
    )


def _facade_mirror_xy(xy: np.ndarray, f: _Facade) -> np.ndarray:
    s = (xy - f.q0) @ f.normal
    return xy - 2.0 * s[..., None] * f.normal


def _within_facade(f: _Facade, r_xy: np.ndarray, r_z: np.ndarray) -> np.ndarray:
    e = (f.q1 - f.q0) / f.edge_len
    lam = (r_xy - f.q0) @ e
    return (
        (lam > _SIDE_TOL)
        & (lam < f.edge_len - _SIDE_TOL)
        & (r_z > _SIDE_TOL)
        & (r_z < f.height - _SIDE_TOL)
    )


def _trace_reflect1(scene, ap, headings, ue, f: _Facade, config, col: _Collector):
    m = ap.shape[0]
    s_a = (ap[:, :2] - f.q0) @ f.normal
    s_u = float((ue[:2] - f.q0) @ f.normal)
    if s_u <= _SIDE_TOL:
        return
    valid = s_a > _SIDE_TOL
    if not valid.any():
        return
    idx = np.nonzero(valid)[0]
    apv = ap[idx]
    image_xy = apv[:, :2] - 2.0 * s_a[idx, None] * f.normal
    t = s_a[idx] / (s_a[idx] + s_u)
    r_xy = image_xy + t[:, None] * (ue[:2] - image_xy)
    r_z = apv[:, 2] + t * (ue[2] - apv[:, 2])
    ok = _within_facade(f, r_xy, r_z)
    idx, r_xy, r_z, image_xy = idx[ok], r_xy[ok], r_z[ok], image_xy[ok]
    if idx.size == 0:
        return
    r = np.column_stack([r_xy, r_z])
    image = np.column_stack([image_xy, ap[idx, 2]])
    length = np.linalg.norm(ue - image, axis=1)

    blocked = _blocked(scene, ap[idx], r) | _blocked(scene, r, np.broadcast_to(ue, r.shape))
    idx, r, length = idx[~blocked], r[~blocked], length[~blocked]
    if idx.size == 0:
        return

    foliage = _foliage_loss(scene, ap[idx], r) + _foliage_loss(
        scene, r, np.broadcast_to(ue, r.shape)
    )
    points = np.full((idx.size, 2, 3), np.nan)
    points[:, 0, :] = r
    interact = np.full((idx.size, 2), -1, np.int32)
    interact[:, 0] = f.building_idx
    col.add(
        idx, KIND_REFLECT1, length,
        np.full(idx.size, f.reflection_loss_db),
        foliage,
        mount_gain_db(config.tx_pattern, headings[idx], _unit(r - ap[idx])),
        mount_gain_db(config.rx_pattern, 0.0, _unit(r - ue)),
        points, interact, np.pi, config.band_center_hz,
    )


def _admissible_pairs(scene: Scene, facades: list[_Facade]):
    """Ordered facade pairs that can host a double bounce.

    Requires part of each facade strictly in front of the other; facades of
    the same convex building can never chain."""
    pairs = []
    corners = [np.stack([f.q0, f.q1]) for f in facades]
    for i, f1 in enumerate(facades):
        for j, f2 in enumerate(facades):
            if i == j:
                continue
            b1, b2 = f1.building_idx, f2.building_idx
            if b1 == b2 and scene.buildings[b1].is_convex:
                continue
            front2 = (corners[j] - f1.q0) @ f1.normal
            front1 = (corners[i] - f2.q0) @ f2.normal
            if front2.max() > _SIDE_TOL and front1.max() > _SIDE_TOL:
                pairs.append((f1, f2))
    return pairs


def _trace_reflect2(scene, ap, headings, ue, f1: _Facade, f2: _Facade, config,
                    col: _Collector):
    s_u2 = float((ue[:2] - f2.q0) @ f2.normal)
    if s_u2 <= _SIDE_TOL:
        return
    s_a1 = (ap[:, :2] - f1.q0) @ f1.normal
    valid = s_a1 > _SIDE_TOL
    if not valid.any():
        return
    idx = np.nonzero(valid)[0]

    img1_xy = _facade_mirror_xy(ap[idx, :2], f1)
    img2_xy = _facade_mirror_xy(img1_xy, f2)
    z0 = ap[idx, 2]

    # Second bounce point: unfolded line img2 -> ue crossing facade 2.
    sig_i2 = (img2_xy - f2.q0) @ f2.normal
    cross2 = sig_i2 < -_SIDE_TOL
    idx, img1_xy, img2_xy, sig_i2, z0 = (
        idx[cross2], img1_xy[cross2], img2_xy[cross2], sig_i2[cross2], z0[cross2]
    )
    if idx.size == 0:
        return
    t2 = sig_i2 / (sig_i2 - s_u2)
    r2_xy = img2_xy + t2[:, None] * (ue[:2] - img2_xy)
    r2_z = z0 + t2 * (ue[2] - z0)
    ok = _within_facade(f2, r2_xy, r2_z)
    # First bounce: r2 must be in front of facade 1.
    sig1_r2 = (r2_xy - f1.q0) @ f1.normal
    ok &= sig1_r2 > _SIDE_TOL
    idx, img1_xy, img2_xy, z0 = idx[ok], img1_xy[ok], img2_xy[ok], z0[ok]
    r2_xy, r2_z, sig1_r2 = r2_xy[ok], r2_z[ok], sig1_r2[ok]
    if idx.size == 0:
        return

    sig1_i1 = -s_a1[idx]  # image1 sits behind facade 1 by construction
    t1 = sig1_i1 / (sig1_i1 - sig1_r2)
    r1_xy = img1_xy + t1[:, None] * (r2_xy - img1_xy)
    r1_z = z0 + t1 * (r2_z - z0)
    ok = _within_facade(f1, r1_xy, r1_z)
    # The middle leg must approach facade 2 from its front.
    sig2_r1 = (r1_xy - f2.q0) @ f2.normal
    ok &= sig2_r1 > _SIDE_TOL
    idx = idx[ok]
    if idx.size == 0:
        return
    r1 = np.column_stack([r1_xy[ok], r1_z[ok]])
    r2 = np.column_stack([r2_xy[ok], r2_z[ok]])
    img2 = np.column_stack([img2_xy[ok], z0[ok]])
    length = np.linalg.norm(ue - img2, axis=1)

    ue_rows = np.broadcast_to(ue, r2.shape)
    blocked = (
        _blocked(scene, ap[idx], r1)
        | _blocked(scene, r1, r2)
        | _blocked(scene, r2, ue_rows)
    )
    idx, r1, r2, length = idx[~blocked], r1[~blocked], r2[~blocked], length[~blocked]
    if idx.size == 0:
        return
    ue_rows = np.broadcast_to(ue, r2.shape)

    foliage = (
        _foliage_loss(scene, ap[idx], r1)
        + _foliage_loss(scene, r1, r2)
        + _foliage_loss(scene, r2, ue_rows)
    )
    points = np.stack([r1, r2], axis=1)
    interact = np.column_stack([
        np.full(idx.size, f1.building_idx, np.int32),
        np.full(idx.size, f2.building_idx, np.int32),
    ])
    col.add(
        idx, KIND_REFLECT2, length,
        np.full(idx.size, f1.reflection_loss_db + f2.reflection_loss_db),
        foliage,
        mount_gain_db(config.tx_pattern, headings[idx], _unit(r1 - ap[idx])),
        mount_gain_db(config.rx_pattern, 0.0, _unit(r2 - ue)),
        points, interact, 2.0 * np.pi, config.band_center_hz,
    )


def _trace_rooftop(scene, ap, headings, ue, building_idx, idx, config, col: _Collector):
    """One bent path over the roof boundary of a blocking building."""
    b = scene.buildings[building_idx]
    apv = ap[idx]
    v = b.footprint
    v2 = np.roll(v, -1, axis=0)
    h = b.height_m

    best_len = np.full(idx.size, np.inf)
    best_e = np.zeros((idx.size, 3))
    for q0, q1 in zip(v, v2):
        e0 = np.array([q0[0], q0[1], h])
        e1 = np.array([q1[0], q1[1], h])
        lam = _edge_argmin(apv, ue, e0, e1)
        pt = e0 + lam[:, None] * (e1 - e0)
        total = np.linalg.norm(pt - apv, axis=1) + np.linalg.norm(pt - ue, axis=1)
        better = total < best_len
        best_len = np.where(better, total, best_len)
        best_e[better] = pt[better]

    ue_rows = np.broadcast_to(ue, best_e.shape)
    blocked = _blocked(scene, apv, best_e, skip=building_idx) | _blocked(
        scene, best_e, ue_rows, skip=building_idx
    )
    keep = ~blocked
    idx, best_e, best_len, apv = idx[keep], best_e[keep], best_len[keep], apv[keep]
    if idx.size == 0:
        return
    ue_rows = np.broadcast_to(ue, best_e.shape)

    if config.rooftop_model == "knife-edge":
        d1 = np.linalg.norm(best_e - apv, axis=1)
        d2 = np.linalg.norm(best_e - ue_rows, axis=1)
        # Perpendicular clearance of the edge point above the direct line.
        ap_ue = ue_rows - apv
        t = np.einsum("ij,ij->i", best_e - apv, ap_ue) / np.einsum(
            "ij,ij->i", ap_ue, ap_ue
        )
        foot = apv + t[:, None] * ap_ue
        h_exc = np.linalg.norm(best_e - foot, axis=1)
        wavelength = SPEED_OF_LIGHT / config.band_center_hz
        nu = h_exc * np.sqrt(2.0 / wavelength * (1.0 / d1 + 1.0 / d2))
        excess = knife_edge_loss_db(nu)
    else:
        excess = np.full(idx.size, b.rooftop_diffraction_loss_db)

    foliage = _foliage_loss(scene, apv, best_e) + _foliage_loss(scene, best_e, ue_rows)
    points = np.full((idx.size, 2, 3), np.nan)
    points[:, 0, :] = best_e
    interact = np.full((idx.size, 2), -1, np.int32)
    interact[:, 0] = building_idx
    col.add(
        idx, KIND_ROOFTOP, best_len, excess, foliage,
        mount_gain_db(config.tx_pattern, headings[idx], _unit(best_e - apv)),
        mount_gain_db(config.rx_pattern, 0.0, _unit(best_e - ue)),
        points, interact, -np.pi / 4.0, config.band_center_hz,
    )


def _edge_argmin(apv: np.ndarray, ue: np.ndarray, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Per-pose lambda in [0, 1] minimising |AP - P| + |P - UE| over the
    edge points P = e0 + lambda (e1 - e0).

    a and b are the feet of the AP and the UE on the edge line (in lambda),
    p and q their distances from it. Unfolding the UE about the line into
    the AP's half-plane makes the shortest path straight; it crosses the
    line at a + (b - a) p / (p + q). The length is convex in lambda, so
    clipping to the edge gives the minimum on it.
    """
    d = e1 - e0
    dd = d @ d
    a = (apv - e0) @ d / dd
    b = (ue - e0) @ d / dd
    p = np.linalg.norm(apv - e0 - a[:, None] * d, axis=1)
    q = np.linalg.norm(ue - e0 - b * d)
    return np.clip(a + (b - a) * p / (p + q), 0.0, 1.0)
