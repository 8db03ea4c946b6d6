"""Planar-polygon and prism geometry primitives.

Buildings are right prisms over simple polygon footprints; foliage is
spherical. Everything here is plain numpy so the hot paths (blockage tests
for every AP pose against every facade) vectorise across segments.

One routine, segment_prism_chords, measures segments inside a building
of any footprint, convex or not. A bounding-box test gives exact zeros
to segments that cannot reach the prism, and only the rest are sliced
and probed.

Open-set semantics throughout: a segment that only grazes a boundary
(tangent, through a vertex, along a facade plane) has zero chord length and
does not count as an intersection.
"""

from __future__ import annotations

import numpy as np

# Chords shorter than this (metres) are treated as grazing contact.
GRAZE_TOL_M = 1e-9


def polygon_signed_area(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def ensure_ccw(vertices: np.ndarray) -> np.ndarray:
    """Return the footprint with counter-clockwise winding."""
    if polygon_signed_area(vertices) < 0:
        return vertices[::-1].copy()
    return vertices


def polygon_is_convex(vertices: np.ndarray) -> bool:
    """True if the CCW polygon is convex (collinear edges allowed)."""
    v = ensure_ccw(np.asarray(vertices, dtype=float))
    d = np.roll(v, -1, axis=0) - v
    cross = d[:, 0] * np.roll(d, -1, axis=0)[:, 1] - d[:, 1] * np.roll(d, -1, axis=0)[:, 0]
    return bool(np.all(cross >= -1e-12))


def _orient(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment(p, q, r):
    # r collinear with p-q: is it within the bounding box?
    return (
        min(p[0], q[0]) - 1e-12 <= r[0] <= max(p[0], q[0]) + 1e-12
        and min(p[1], q[1]) - 1e-12 <= r[1] <= max(p[1], q[1]) + 1e-12
    )


def _segments_touch(p1, q1, p2, q2) -> bool:
    o1 = _orient(p1, q1, p2)
    o2 = _orient(p1, q1, q2)
    o3 = _orient(p2, q2, p1)
    o4 = _orient(p2, q2, q1)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and 0 not in (o1, o2, o3, o4):
        return True
    if o1 == 0 and _on_segment(p1, q1, p2):
        return True
    if o2 == 0 and _on_segment(p1, q1, q2):
        return True
    if o3 == 0 and _on_segment(p2, q2, p1):
        return True
    if o4 == 0 and _on_segment(p2, q2, q1):
        return True
    return False


def polygon_is_simple(vertices: np.ndarray) -> bool:
    """True for a non-self-intersecting polygon with nonzero area.

    O(E^2) pairwise edge test; footprints are small so this is only used
    during scene validation.
    """
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    if n < 3:
        return False
    r = v.round(decimals=9)
    r = r[np.lexsort(r.T[::-1])]  # equal rows end up adjacent
    if (r[1:] == r[:-1]).all(axis=1).any():
        return False
    if abs(polygon_signed_area(v)) < 1e-12:
        return False
    for i in range(n):
        p1, q1 = v[i], v[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                # Adjacent edges share a vertex; reject only if they fold
                # back onto each other.
                if (i + 1) % n == j:
                    d1 = q1 - p1
                    d2 = v[(j + 1) % n] - v[j]
                    if abs(d1[0] * d2[1] - d1[1] * d2[0]) < 1e-12 and np.dot(d1, d2) < 0:
                        return False
                continue
            p2, q2 = v[j], v[(j + 1) % n]
            if _segments_touch(p1, q1, p2, q2):
                return False
    return True


def points_in_polygon(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Even-odd test for points (..., 2) against a simple polygon.

    One pass per edge flips a parity array, so memory stays at a few
    arrays of the points' shape whatever the edge count.
    """
    pts = np.asarray(points, dtype=float)
    v = np.asarray(vertices, dtype=float)
    x = pts[..., 0]
    y = pts[..., 1]
    inside = np.zeros(x.shape, dtype=bool)
    for (x1, y1), (x2, y2) in zip(v, np.roll(v, -1, axis=0)):
        if y1 == y2:
            continue  # a horizontal edge is never straddled
        straddle = (y1 <= y) != (y2 <= y)
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= straddle & (xint > x)
    return inside


def segment_prism_chords(
    p0: np.ndarray, p1: np.ndarray, vertices: np.ndarray, height: float
) -> np.ndarray:
    """Chord length (metres) of each segment inside a prism over any simple
    footprint, convex or not, spanning z in [0, height].

    p0, p1 shaped (n, 3); returns (n,). A segment gets an exact 0 without
    further work unless it reaches strictly into the footprint's xy
    bounding box and strictly between floor and roof; no other segment can
    have a point inside the prism. The rest are sliced at their
    footprint-edge crossings, all at once. A slice counts when two probes
    1e-9 m either side of its midpoint are both inside, so a slice running
    along a facade counts zero, matching open-set semantics. A vertical
    segment counts when four probes, 1e-9 m either side in x and in y,
    are all inside.
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    v = np.asarray(vertices, dtype=float)
    chords = np.zeros(len(p0))
    box_lo = np.append(v.min(axis=0), 0.0)
    box_hi = np.append(v.max(axis=0), height)
    near = np.flatnonzero(np.all((np.minimum(p0, p1) < box_hi)
                                 & (np.maximum(p0, p1) > box_lo), axis=1))
    if near.size == 0:
        return chords
    p0, p1 = p0[near], p1[near]
    d = p1 - p0
    e = np.roll(v, -1, axis=0) - v
    # Solve p0 + t d = v_j + s e_j on the (segments, edges) grid.
    w = v[None, :, :] - p0[:, None, :2]
    dx, dy = d[:, 0, None], d[:, 1, None]
    denom = dx * e[:, 1] - dy * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[..., 0] * e[:, 1] - w[..., 1] * e[:, 0]) / denom
        s = (w[..., 0] * dy - w[..., 1] * dx) / denom
    crossing = (denom != 0.0) & (t > 0.0) & (t < 1.0) & (s >= 0.0) & (s <= 1.0)
    # Each row holds 0, 1 and one entry per edge; an edge the segment does
    # not cross sorts to t = 1 and only adds an empty slice.
    ends = np.zeros((len(p0), 1))
    ts = np.sort(np.concatenate([ends, np.where(crossing, t, 1.0), ends + 1.0], axis=1))
    lo, hi = ts[:, :-1], ts[:, 1:]

    # Clip each slice to the parameter range where 0 <= z <= height.
    z0, dz = p0[:, 2], d[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (0.0 - z0) / dz
        tb = (height - z0) / dz
    # A level segment is inside strictly between floor and roof; along
    # either plane it only grazes.
    level = (z0 > 0.0) & (z0 < height)
    z_lo = np.where(dz == 0.0, 0.0, np.minimum(ta, tb))
    z_hi = np.where(dz == 0.0, np.where(level, 1.0, 0.0), np.maximum(ta, tb))
    part = np.minimum(hi, z_hi[:, None]) - np.maximum(lo, z_lo[:, None])

    # Probe only the slices with length left after the z clip; the padding
    # slices at t = 1 and those above the roof or below the floor add zero.
    seg, k = np.nonzero(part > 0.0)
    span = np.hypot(d[seg, 0], d[seg, 1])
    vertical = span < 1e-15
    span[vertical] = 1.0
    perp = np.stack([-d[seg, 1], d[seg, 0]], axis=1) / span[:, None] * 1e-9
    # A vertical segment has no side of its own: probe it both ways in x
    # and in y, so standing on a facade counts zero whichever way it faces.
    perp[vertical] = (1e-9, 0.0)
    mid = p0[seg, :2] + (0.5 * (lo[seg, k] + hi[seg, k]))[:, None] * d[seg, :2]
    inside = points_in_polygon(mid + perp, v) & points_in_polygon(mid - perp, v)
    if vertical.any():
        up = mid[vertical] + (0.0, 1e-9)
        down = mid[vertical] - (0.0, 1e-9)
        inside[vertical] &= points_in_polygon(up, v) & points_in_polygon(down, v)
    counted = np.zeros_like(part)
    counted[seg[inside], k[inside]] = part[seg[inside], k[inside]]
    chords[near] = np.sum(counted, axis=1) * np.linalg.norm(d, axis=1)
    return chords


def segment_sphere_chords(
    p0: np.ndarray, p1: np.ndarray, center: np.ndarray, radius: float
) -> np.ndarray:
    """Chord length (metres) of each segment inside a sphere.

    p0, p1 shaped (n, 3); returns (n,).
    """
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    d = p1 - p0
    f = p0 - np.asarray(center, dtype=float)
    a = np.einsum("ij,ij->i", d, d)
    b = 2.0 * np.einsum("ij,ij->i", f, d)
    c = np.einsum("ij,ij->i", f, f) - radius * radius
    disc = b * b - 4.0 * a * c
    valid = (disc > 0.0) & (a > 0.0)
    sq = np.sqrt(np.where(valid, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (-b - sq) / (2.0 * a)
        t1 = (-b + sq) / (2.0 * a)
    t0 = np.clip(t0, 0.0, 1.0)
    t1 = np.clip(t1, 0.0, 1.0)
    chord = np.where(valid, (t1 - t0) * np.sqrt(a), 0.0)
    return np.maximum(chord, 0.0)


def max_pairwise_distance(points: np.ndarray) -> float:
    """Largest pairwise distance among points (n, d). O(n^2), n is small."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((diff**2).sum(-1)).max())
