"""Deterministic ray-path enumeration and per-path link budgets.

For every AP pose and UE the engine enumerates the direct ray, specular
facade reflections up to second order (image method), and one rooftop
diffraction per building that blocks the direct ray. Each path carries its
geometric length, its interaction and foliage losses, the gains of the
campaign's one antenna pair (the AP's downtilted patch and the UE's vertical
dipole), and a complex gain referenced to the band centre. The same pass
decides each link's LOS / OLOS / NLOS class from the direct ray.

The one entry point, trace_paths_batch, vectorises across AP poses and
returns a columnar PathBundle; a campaign traces one
facade (or facade pair) at a time against all poses, which keeps the
per-pose Python overhead out of the 20k-pose runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import BAND_CENTER_HZ, SPEED_OF_LIGHT
from .geometry import GRAZE_TOL_M, segment_sphere_chords
from .scene import LinkClass, Scene

KIND_DIRECT = 0
KIND_REFLECT1 = 1
KIND_REFLECT2 = 2
KIND_ROOFTOP = 3

_SIDE_TOL = 1e-9  # metres of signed facade clearance below which geometry is degenerate


# --- antennas ---------------------------------------------------------------

# AP side: a sector patch on the rover, mounted to look 90 degrees clockwise
# from the heading and tilted down; cos^2 power rolloff around boresight.
AP_PEAK_GAIN_DBI = 7.0
AP_ROLLOFF_EXPONENT = 2.0
AP_FLOOR_DB = -20.0  # back and side floor relative to peak
AP_DOWNTILT_DEG = 40.0

# UE side: a vertical dipole on a tripod.
UE_PEAK_GAIN_DBI = 2.15
UE_FLOOR_DB = -30.0

# Paths more than this far below the strongest path of their pose are dropped.
MIN_RELATIVE_POWER_DB = 130.0


def ap_gain_db(headings: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """AP patch gain in dBi toward world-frame unit directions dirs (n, 3)
    from poses with headings (n,); it rolls off with the total
    off-boresight angle."""
    tilt = np.deg2rad(AP_DOWNTILT_DEG)
    bx = np.sin(headings) * np.cos(tilt)
    by = -np.cos(headings) * np.cos(tilt)
    bz = np.full_like(headings, -np.sin(tilt))
    cos_off = dirs[:, 0] * bx + dirs[:, 1] * by + dirs[:, 2] * bz
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(
            cos_off > 0.0,
            10.0 * AP_ROLLOFF_EXPONENT * np.log10(np.maximum(cos_off, 1e-300)),
            -np.inf,
        )
    return AP_PEAK_GAIN_DBI + np.maximum(rel, AP_FLOOR_DB)


def ue_gain_db(dirs: np.ndarray) -> np.ndarray:
    """UE dipole gain in dBi toward world-frame unit directions dirs (n, 3).

    Only elevation matters: sin^2 of the angle from the vertical axis is
    cos^2 of the elevation.
    """
    el = np.arcsin(np.clip(dirs[:, 2], -1.0, 1.0))
    c = np.clip(np.cos(el), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        rel = 20.0 * np.log10(c)
    return UE_PEAK_GAIN_DBI + np.maximum(rel, UE_FLOOR_DB)


# --- paths ------------------------------------------------------------------

def fspl_db(distance_m) -> np.ndarray:
    """Free-space path loss at the band centre, 20 log10(4 pi d f / c)."""
    d = np.asarray(distance_m, dtype=float)
    return 20.0 * np.log10(4.0 * np.pi * d * BAND_CENTER_HZ / SPEED_OF_LIGHT)


@dataclass
class PathBundle:
    """Columnar batch of paths for many poses against one UE.

    Every column is per path (K,) except link_class, which holds one
    LinkClass value per pose (M,): the state of that pose's direct ray.
    """

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
    link_class: np.ndarray  # (M,) uint8, per pose, not per path

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


def _columns(pose_idx, kind, length, points, buildings, loss_interaction_db,
             loss_foliage_db, gain_tx_db, gain_rx_db, phase_extra) -> dict:
    """PathBundle columns, by field name, of n paths of one kind whose
    interaction points (n, k, 3) lie on the buildings listed (k of them,
    k <= 2); points and interact_idx are padded to 2."""
    n, k = points.shape[:2]
    padded = np.full((n, 2, 3), np.nan)
    padded[:, :k] = points
    interact = np.full((n, 2), -1, np.int32)
    interact[:, :k] = buildings
    loss = np.full(n, loss_interaction_db)
    tau = length / SPEED_OF_LIGHT
    return dict(
        pose_index=pose_idx.astype(np.int32),
        kind=np.full(n, kind, dtype=np.uint8),
        length_m=length,
        gain_db=(-fspl_db(length) - loss - loss_foliage_db
                 + gain_tx_db + gain_rx_db),
        phase_rad=-2.0 * np.pi * BAND_CENTER_HZ * tau + phase_extra,
        points=padded,
        interact_idx=interact,
        loss_interaction_db=loss,
        loss_foliage_db=loss_foliage_db,
        gain_tx_db=gain_tx_db,
        gain_rx_db=gain_rx_db,
    )


def trace_paths_batch(
    scene: Scene,
    ap_positions: np.ndarray,
    headings: np.ndarray,
    ue_position: np.ndarray,
) -> PathBundle:
    """Enumerate paths for every AP pose (M, 3) against one UE position.

    Returns a PathBundle sorted by (pose, delay); within each pose, paths
    more than MIN_RELATIVE_POWER_DB below the strongest are dropped.
    Its link_class is NLOS where any building cuts the direct ray
    (grazing contact does not count); otherwise OLOS where any foliage
    sphere does; otherwise LOS.
    """
    ap = np.atleast_2d(np.asarray(ap_positions, dtype=float))
    m_poses = ap.shape[0]
    headings = np.broadcast_to(np.asarray(headings, dtype=float), (m_poses,))
    ue = np.asarray(ue_position, dtype=float)
    ue_b = np.broadcast_to(ue, ap.shape)
    all_idx = np.arange(m_poses)

    # Direct ray. Its per-building blockage decides the link class and is
    # reused for the rooftop step.
    block_by = np.zeros((len(scene.buildings), m_poses), dtype=bool)
    for bi, b in enumerate(scene.buildings):
        block_by[bi] = b.blockage_chords(ap, ue_b) > GRAZE_TOL_M
    direct_clear = ~block_by.any(axis=0)
    link_class = np.full(m_poses, LinkClass.NLOS, dtype=np.uint8)
    link_class[direct_clear] = LinkClass.LOS

    idx = all_idx[direct_clear]
    ap_d, ue_d = ap[idx], ue_b[idx]
    foliated = np.zeros(idx.size, dtype=bool)
    for f in scene.foliage:
        chords = segment_sphere_chords(ap_d, ue_d, f.center_m, f.radius_m)
        foliated |= chords > GRAZE_TOL_M
    link_class[idx[foliated]] = LinkClass.OLOS
    d = ue - ap_d
    dirs = _unit(d)
    pieces = [_columns(
        idx, KIND_DIRECT, np.linalg.norm(d, axis=1), np.empty((idx.size, 0, 3)), [],
        0.0, _foliage_loss(scene, ap_d, ue_d),
        ap_gain_db(headings[idx], dirs), ue_gain_db(-dirs), 0.0,
    )]

    def emit(found, kind, buildings, loss_db, phase_extra, skip=-1):
        """Append the paths AP -> points -> UE (found = pose indices,
        points (n, k, 3), lengths) that no building other than skip blocks
        on any leg."""
        if found is None:
            return
        idx, points, length = found
        ends = [ap[idx], *points.transpose(1, 0, 2), np.broadcast_to(ue, (idx.size, 3))]
        legs = list(zip(ends[:-1], ends[1:]))
        blocked = np.zeros(idx.size, dtype=bool)
        for p0, p1 in legs:
            blocked |= _blocked(scene, p0, p1, skip)
        if blocked.all():
            return
        keep = ~blocked
        idx, points, length = idx[keep], points[keep], length[keep]
        legs = [(p0[keep], p1[keep]) for p0, p1 in legs]
        foliage = sum(_foliage_loss(scene, p0, p1) for p0, p1 in legs)
        pieces.append(_columns(
            idx, kind, length, points, buildings, loss_db, foliage,
            ap_gain_db(headings[idx], _unit(points[:, 0] - ap[idx])),
            ue_gain_db(_unit(points[:, -1] - ue)),
            phase_extra,
        ))

    facades = _scene_facades(scene)
    for f in facades:
        emit(_reflect1(ap, ue, f), KIND_REFLECT1, [f.building_idx],
             f.reflection_loss_db, np.pi)
    for f1, f2 in _admissible_pairs(scene, facades):
        emit(_reflect2(ap, ue, f1, f2), KIND_REFLECT2,
             [f1.building_idx, f2.building_idx],
             f1.reflection_loss_db + f2.reflection_loss_db, 2.0 * np.pi)
    for bi, b in enumerate(scene.buildings):
        emit(_rooftop(ap, ue, b, all_idx[block_by[bi]]), KIND_ROOFTOP, [bi],
             b.rooftop_diffraction_loss_db, -np.pi / 4.0, skip=bi)

    cols = {name: np.concatenate([p[name] for p in pieces]) for name in pieces[0]}
    # Per-pose relative power cutoff, then (pose, length, kind) order.
    pose, gain = cols["pose_index"], cols["gain_db"]
    best = np.full(m_poses, -np.inf)
    np.maximum.at(best, pose, gain)
    keep = np.flatnonzero(gain >= best[pose] - MIN_RELATIVE_POWER_DB)
    order = keep[np.lexsort((cols["kind"][keep], cols["length_m"][keep], pose[keep]))]
    return PathBundle(**{name: c[order] for name, c in cols.items()}, link_class=link_class)


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


def _reflect1(ap, ue, f: _Facade):
    """Single-bounce candidates off facade f: (pose indices, bounce points
    (n, 1, 3), path lengths), or None."""
    s_a = (ap[:, :2] - f.q0) @ f.normal
    s_u = float((ue[:2] - f.q0) @ f.normal)
    if s_u <= _SIDE_TOL:
        return None
    valid = s_a > _SIDE_TOL
    if not valid.any():
        return None
    idx = np.nonzero(valid)[0]
    apv = ap[idx]
    image_xy = apv[:, :2] - 2.0 * s_a[idx, None] * f.normal
    t = s_a[idx] / (s_a[idx] + s_u)
    r_xy = image_xy + t[:, None] * (ue[:2] - image_xy)
    r_z = apv[:, 2] + t * (ue[2] - apv[:, 2])
    ok = _within_facade(f, r_xy, r_z)
    idx, r_xy, r_z, image_xy = idx[ok], r_xy[ok], r_z[ok], image_xy[ok]
    if idx.size == 0:
        return None
    r = np.column_stack([r_xy, r_z])
    image = np.column_stack([image_xy, ap[idx, 2]])
    return idx, r[:, None], np.linalg.norm(ue - image, axis=1)


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


def _reflect2(ap, ue, f1: _Facade, f2: _Facade):
    """Double-bounce candidates off f1 then f2: (pose indices, bounce
    points (n, 2, 3), path lengths), or None."""
    s_u2 = float((ue[:2] - f2.q0) @ f2.normal)
    if s_u2 <= _SIDE_TOL:
        return None
    s_a1 = (ap[:, :2] - f1.q0) @ f1.normal
    valid = s_a1 > _SIDE_TOL
    if not valid.any():
        return None
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
        return None
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
        return None

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
        return None
    r1 = np.column_stack([r1_xy[ok], r1_z[ok]])
    r2 = np.column_stack([r2_xy[ok], r2_z[ok]])
    img2 = np.column_stack([img2_xy[ok], z0[ok]])
    return idx, np.stack([r1, r2], axis=1), np.linalg.norm(ue - img2, axis=1)


def _rooftop(ap, ue, b, idx):
    """The bent path over the roof boundary of building b for the poses
    idx whose direct ray it blocks: (idx, edge points (n, 1, 3), path
    lengths)."""
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
    return idx, best_e[:, None], best_len


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
