"""Deterministic ray-path enumeration and per-path link budgets.

For every AP pose and UE the engine enumerates the direct ray, specular
facade reflections of first and second order, and one rooftop diffraction
per building that blocks the direct ray. One image-method routine solves
a reflection off any chain of facades: every single facade, then every
ordered pair that can host a double bounce. The chain's length gives the
path's kind, its facades' losses add, and each bounce turns the phase by
pi. Each path carries its geometric length, its interaction and foliage
losses, the gains of the campaign's one antenna pair (the AP's downtilted
patch and the UE's vertical dipole), and a complex gain referenced to the
band centre.

Every kind is assembled the same way, as a chain of interaction points
from the AP to the UE (none for the direct ray): one blockage pass per
building over the chain's legs, then losses, antenna gains and columns
for the candidates that pass. The direct ray's pass also marks the NLOS
links, whose direct ray a building cuts, and the buildings that get a
rooftop path.

The one entry point, trace_paths_batch, vectorises across AP poses and
returns a columnar PathBundle; a campaign traces one facade chain at a
time against all poses, which keeps the per-pose Python overhead out of
the 20k-pose runs. The roof edges of the rooftop step are the tops of the
same facades.
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
    all_idx = np.arange(m_poses)
    pieces = []

    def emit(found, kind, buildings, loss_db, phase_extra, skip=-1):
        """Append the paths AP -> points -> UE (found = pose indices,
        points (n, k, 3), lengths; k = 0 for the direct ray) that no
        building other than skip blocks on any leg. Returns the
        (buildings, n) cut, True where that building blocks that
        candidate. A chain with no candidate left appends nothing, except
        the first, whose piece names every column even when empty."""
        idx, points, length = found
        ends = [ap[idx], *points.transpose(1, 0, 2), np.broadcast_to(ue, (idx.size, 3))]
        legs = list(zip(ends[:-1], ends[1:]))
        cut = np.zeros((len(scene.buildings), idx.size), dtype=bool)
        for bi, b in enumerate(scene.buildings):
            if bi != skip and idx.size:
                for p0, p1 in legs:
                    cut[bi] |= b.blockage_chords(p0, p1) > GRAZE_TOL_M
        keep = ~cut.any(axis=0)
        if pieces and not keep.any():
            return cut
        idx, points, length = idx[keep], points[keep], length[keep]
        legs = [(p0[keep], p1[keep]) for p0, p1 in legs]
        foliage = sum(_foliage_loss(scene, p0, p1) for p0, p1 in legs)
        pieces.append(_columns(
            idx, kind, length, points, buildings, loss_db, foliage,
            ap_gain_db(headings[idx], _unit(legs[0][1] - legs[0][0])),
            ue_gain_db(_unit(legs[-1][0] - legs[-1][1])),
            phase_extra,
        ))
        return cut

    # The direct ray's cut decides the link class and the rooftop poses.
    block_by = emit((all_idx, np.empty((m_poses, 0, 3)), np.linalg.norm(ue - ap, axis=1)),
                    KIND_DIRECT, [], 0.0, 0.0)
    idx = all_idx[~block_by.any(axis=0)]
    link_class = np.full(m_poses, LinkClass.NLOS, dtype=np.uint8)
    link_class[idx] = LinkClass.LOS
    foliated = np.zeros(idx.size, dtype=bool)
    for f in scene.foliage:
        chords = segment_sphere_chords(ap[idx], np.broadcast_to(ue, (idx.size, 3)),
                                       f.center_m, f.radius_m)
        foliated |= chords > GRAZE_TOL_M
    link_class[idx[foliated]] = LinkClass.OLOS

    facades = _scene_facades(scene)
    for chain in [(f,) for f in facades] + _admissible_pairs(facades):
        emit(_reflect(ap, ue, chain), KIND_REFLECT1 + len(chain) - 1,
             [f.building_idx for f in chain],
             sum(f.reflection_loss_db for f in chain), np.pi * len(chain))
    for bi, b in enumerate(scene.buildings):
        walls = [f for f in facades if f.building_idx == bi]
        emit(_rooftop(ap, ue, walls, all_idx[block_by[bi]]), KIND_ROOFTOP, [bi],
             b.rooftop_diffraction_loss_db, -np.pi / 4.0, skip=bi)

    cols = {name: np.concatenate([p[name] for p in pieces]) for name in pieces[0]}
    # Per-pose relative power cutoff, then (pose, length, kind) order.
    pose, gain = cols["pose_index"], cols["gain_db"]
    best = np.full(m_poses, -np.inf)
    np.maximum.at(best, pose, gain)
    keep = np.flatnonzero(gain >= best[pose] - MIN_RELATIVE_POWER_DB)
    order = keep[np.lexsort((cols["kind"][keep], cols["length_m"][keep], pose[keep]))]
    return PathBundle(**{name: c[order] for name, c in cols.items()}, link_class=link_class)


def _side(f: _Facade, xy: np.ndarray) -> np.ndarray:
    """Signed distance of points xy (..., 2) in front of facade f."""
    return (xy - f.q0) @ f.normal


def _within_facade(f: _Facade, r_xy: np.ndarray, r_z: np.ndarray) -> np.ndarray:
    e = (f.q1 - f.q0) / f.edge_len
    lam = (r_xy - f.q0) @ e
    return (
        (lam > _SIDE_TOL)
        & (lam < f.edge_len - _SIDE_TOL)
        & (r_z > _SIDE_TOL)
        & (r_z < f.height - _SIDE_TOL)
    )


def _admissible_pairs(facades: list[_Facade]):
    """Ordered facade pairs that can host a double bounce: part of each
    facade lies strictly in front of the other. Two facades of one convex
    footprint never pass, as each lies on or behind the other's plane;
    facing facades of a non-convex one, such as an L's notch, can."""
    pairs = []
    corners = [np.stack([f.q0, f.q1]) for f in facades]
    for i, f1 in enumerate(facades):
        for j, f2 in enumerate(facades):
            if i == j:
                continue
            front2 = _side(f1, corners[j])
            front1 = _side(f2, corners[i])
            if front2.max() > _SIDE_TOL and front1.max() > _SIDE_TOL:
                pairs.append((f1, f2))
    return pairs


def _reflect(ap, ue, chain):
    """Candidates AP -> each facade of chain in turn -> UE, by the image
    method: (pose indices, bounce points (n, len(chain), 3), path lengths).

    The forward pass mirrors the AP across each facade in turn and keeps
    each mirror's signed distance; the image sits that far behind the
    facade, at the AP's height. The backward pass runs from the UE: each
    bounce point is where the line from its target (the UE, or the bounce
    after it) to its image crosses the facade. Source and target must be
    strictly in front of each facade and the bounce inside its extent.
    The path length is the distance from the UE to the last image."""
    sig_t = _side(chain[-1], ue[:2])
    if sig_t <= _SIDE_TOL:
        ap = ap[:0]  # the UE is behind the last facade: no candidate
    idx = np.arange(ap.shape[0])
    img = ap[:, :2]
    images, depths = [], []
    for f in chain:
        s = _side(f, img)
        front = s > _SIDE_TOL
        idx, img, s = idx[front], img[front], s[front]
        images = [x[front] for x in images]
        depths = [x[front] for x in depths]
        img = img - 2.0 * s[:, None] * f.normal
        images.append(img)
        depths.append(-s)
    z0 = ap[idx, 2]

    points = []
    t_xy, t_z = ue[:2], ue[2]
    for i in reversed(range(len(chain))):
        t = depths[i] / (depths[i] - sig_t)
        r_xy = images[i] + t[:, None] * (t_xy - images[i])
        r_z = z0 + t * (t_z - z0)
        ok = _within_facade(chain[i], r_xy, r_z)
        if i + 1 < len(chain):  # it is the next bounce's source
            ok &= _side(chain[i + 1], r_xy) > _SIDE_TOL
        if i > 0:  # and the previous bounce's target
            sig_t = _side(chain[i - 1], r_xy)
            ok &= sig_t > _SIDE_TOL
            sig_t = sig_t[ok]
        idx, z0, t_xy, t_z = idx[ok], z0[ok], r_xy[ok], r_z[ok]
        images = [x[ok] for x in images]
        depths = [x[ok] for x in depths[:i]]
        points = [np.column_stack([t_xy, t_z])] + [p[ok] for p in points]
    img = np.column_stack([images[-1], z0])
    return idx, np.stack(points, axis=1), np.linalg.norm(ue - img, axis=1)


def _rooftop(ap, ue, walls, idx):
    """The bent path over the roof boundary of one building, whose facades
    are walls, for the poses idx whose direct ray it blocks: (idx, edge
    points (n, 1, 3), path lengths). Each facade's top is one roof edge."""
    apv = ap[idx]
    best_len = np.full(idx.size, np.inf)
    best_e = np.zeros((idx.size, 3))
    for f in walls:
        e0 = np.array([f.q0[0], f.q0[1], f.height])
        e1 = np.array([f.q1[0], f.q1[1], f.height])
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
