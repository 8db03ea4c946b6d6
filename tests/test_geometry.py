import numpy as np
import pytest

from cfmm import geometry as geo
from cfmm.geometry import points_in_polygon

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
BOWTIE = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
# U shape opening upward: interior is x in (0,1) and (4,5) at y = 2.
U_SHAPE = np.array(
    [[0, 0], [5, 0], [5, 3], [4, 3], [4, 1], [1, 1], [1, 3], [0, 3]], dtype=float
)


def test_signed_area_and_winding():
    assert geo.polygon_signed_area(SQUARE) == pytest.approx(1.0)
    cw = SQUARE[::-1]
    assert geo.polygon_signed_area(cw) == pytest.approx(-1.0)
    np.testing.assert_allclose(geo.polygon_signed_area(geo.ensure_ccw(cw)), 1.0)


def test_simple_and_convex_classification():
    assert geo.polygon_is_simple(SQUARE)
    assert not geo.polygon_is_simple(BOWTIE)
    assert geo.polygon_is_simple(U_SHAPE)
    assert not geo.polygon_is_simple(np.array([[0, 0], [1, 0]]))
    assert geo.polygon_is_convex(SQUARE)
    assert not geo.polygon_is_convex(U_SHAPE)


@pytest.mark.parametrize("offset", [(0.0, 0.0), (4e-10, -3e-10)], ids=["exact", "within-1e-9"])
def test_repeated_vertex_is_not_simple(offset):
    # The square with its second vertex given twice, the copy exactly on it
    # or within the 1e-9 rounding of the duplicate check.
    repeated = np.insert(SQUARE, 2, SQUARE[1] + offset, axis=0)
    assert not geo.polygon_is_simple(repeated)
    # The same copy anywhere else in the ring, not next to the original.
    assert not geo.polygon_is_simple(np.insert(SQUARE, 4, SQUARE[1] + offset, axis=0))


def test_close_distinct_vertices_are_simple():
    # A vertex 1e-6 off the corner is a vertex of its own.
    assert geo.polygon_is_simple(np.insert(SQUARE, 2, SQUARE[1] + (1e-6, 1e-6), axis=0))
    assert geo.polygon_is_simple(np.insert(SQUARE, 2, SQUARE[1] + (1e-6, 0.5), axis=0))


def test_points_in_polygon():
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [-0.1, 0.2], [0.2, 0.9]])
    np.testing.assert_array_equal(
        geo.points_in_polygon(pts, SQUARE), [True, False, False, True]
    )
    inside_u = geo.points_in_polygon(np.array([[0.5, 2.0], [2.5, 2.0], [4.5, 2.0]]), U_SHAPE)
    np.testing.assert_array_equal(inside_u, [True, False, True])


def test_convex_prism_clip_chords():
    p0 = np.array([[-1.0, 0.5, 0.5], [0.0, 0.0, 0.0], [-1.0, 0.5, 2.0]])
    p1 = np.array([[2.0, 0.5, 0.5], [1.0, 1.0, 1.0], [2.0, 0.5, 2.0]])
    lengths = geo.segment_prism_chords(p0, p1, SQUARE, 1.0)
    # Straight crossing: 1 m chord. Space diagonal: sqrt(3). Above the roof: 0.
    np.testing.assert_allclose(lengths, [1.0, np.sqrt(3.0), 0.0], atol=1e-12)


def test_convex_prism_grazing_is_open():
    # Riding exactly along the x = 0 facade plane.
    chord = geo.segment_prism_chords(
        np.array([[0.0, -1.0, 0.5]]), np.array([[0.0, 2.0, 0.5]]), SQUARE, 1.0
    )
    assert chord[0] <= 1e-9
    # Through a vertical corner edge.
    chord = geo.segment_prism_chords(
        np.array([[-1.0, -1.0, 0.5]]), np.array([[1.0, 1.0, 0.5]]) * [2, 0, 1],
        SQUARE, 1.0,
    )
    assert chord[0] <= 1e-9
    # Exactly along the roof plane.
    chord = geo.segment_prism_chords(
        np.array([[-1.0, 0.5, 1.0]]), np.array([[2.0, 0.5, 1.0]]), SQUARE, 1.0
    )
    assert chord[0] <= 1e-9


def test_general_polygon_intervals_two_chords():
    # Through both arms of the U: 1 m in each. The sub-segments ending
    # inside the arms pin where each interval lies.
    p0 = np.array([[-1.0, 2.0, 0.5]] * 3)
    p1 = np.array([[6.0, 2.0, 0.5], [0.5, 2.0, 0.5], [4.5, 2.0, 0.5]])
    chords = geo.segment_prism_chords(p0, p1, U_SHAPE, 1.0)
    np.testing.assert_allclose(chords, [2.0, 0.5, 1.5], atol=1e-12)


def test_general_polygon_interval_grazing_edge():
    # Along the bottom edge of the square: open semantics, no chord.
    chord = geo.segment_prism_chords(
        np.array([[-1.0, 0.0, 0.5]]), np.array([[2.0, 0.0, 0.5]]), SQUARE, 1.0
    )
    assert chord[0] <= 1e-9


def test_general_prism_matches_convex_on_box():
    rng = np.random.default_rng(3)
    p0 = rng.uniform([-2, -2, -1], [3, 3, 2], size=(50, 3))
    p1 = rng.uniform([-2, -2, -1], [3, 3, 2], size=(50, 3))
    general = geo.segment_prism_chords(p0, p1, SQUARE, 1.0)
    # Reference: clip each segment to the slabs 0 <= x, y, z <= 1 of the
    # unit box. No random segment has a zero coordinate step.
    d = p1 - p0
    near, far = -p0 / d, (1.0 - p0) / d
    t_in = np.clip(np.minimum(near, far).max(axis=1), 0.0, 1.0)
    t_out = np.clip(np.maximum(near, far).min(axis=1), 0.0, 1.0)
    box = np.maximum(t_out - t_in, 0.0) * np.linalg.norm(d, axis=1)
    np.testing.assert_allclose(general, box, rtol=0, atol=1e-9)


def _random_star(rng, m):
    """Simple non-convex polygon: m vertices at sorted angles, random radii."""
    ang = np.sort(rng.uniform(0, 2 * np.pi, m))
    r = rng.uniform(3.0, 10.0, m)
    return np.stack([10 + r * np.cos(ang), 10 + r * np.sin(ang)], axis=1)


def sampled_chords(p0, p1, vertices, height, n_samples):
    """Dense-sample oracle: the inside share of n_samples midpoint samples.

    Returns the chord estimate and the number of inside/outside changes
    along the samples. Each boundary crossing moves the count by at most
    half a sample, so the estimate is within length / n_samples of the
    chord for each pair of crossings.
    """
    t = (np.arange(n_samples) + 0.5) / n_samples
    pts = p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]
    inside = (points_in_polygon(pts[..., :2], vertices)
              & (pts[..., 2] >= 0.0) & (pts[..., 2] <= height))
    length = np.linalg.norm(p1 - p0, axis=1)
    changes = np.count_nonzero(np.diff(inside, axis=1), axis=1)
    return inside.sum(axis=1) / n_samples * length, changes


L_SHAPE = np.array([[0, 0], [8, 0], [8, 3], [3, 3], [3, 8], [0, 8]], dtype=float)
STAR24 = _random_star(np.random.default_rng(5), 24)


@pytest.mark.parametrize("v, inside_xy", [(U_SHAPE, (0.5, 0.5)), (L_SHAPE, (0.5, 0.5)),
                                          (STAR24, (10.0, 10.0))], ids=["u", "l", "star24"])
def test_prism_chords_match_dense_sampling(v, inside_xy):
    assert geo.polygon_is_simple(v) and not geo.polygon_is_convex(v)
    rng = np.random.default_rng(17)
    height = 4.0
    lo, hi = v.min(axis=0) - 2.0, v.max(axis=0) + 2.0
    p0 = np.column_stack([rng.uniform(lo, hi, (300, 2)), rng.uniform(-2, height + 2, 300)])
    p1 = np.column_stack([rng.uniform(lo, hi, (300, 2)), rng.uniform(-2, height + 2, 300)])
    # A vertical segment through the footprint and a horizontal one across it.
    x, y = inside_xy
    p0 = np.vstack([p0, [[x, y, -1.0], [lo[0], y, 1.0]]])
    p1 = np.vstack([p1, [[x, y, 10.0], [hi[0], y, 1.0]]])
    n_samples = 5000
    chords = geo.segment_prism_chords(p0, p1, v, height)
    est, changes = sampled_chords(p0, p1, v, height, n_samples)
    length = np.linalg.norm(p1 - p0, axis=1)
    bound = np.maximum(1.0, changes / 2) * length / n_samples
    assert np.all(np.abs(chords - est) <= bound)
    assert chords[-2] == pytest.approx(height, abs=1e-12)
    assert chords[-1] > 0.5
    assert np.count_nonzero(chords > 1e-9) > 50


def _chords_probing_every_slice(p0, p1, v, height):
    """Reference: segment_prism_chords as it was before it skipped empty
    slices, classifying all m + 1 slices of every segment."""
    d = p1 - p0
    e = np.roll(v, -1, axis=0) - v
    w = v[None, :, :] - p0[:, None, :2]
    dx, dy = d[:, 0, None], d[:, 1, None]
    denom = dx * e[:, 1] - dy * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[..., 0] * e[:, 1] - w[..., 1] * e[:, 0]) / denom
        s = (w[..., 0] * dy - w[..., 1] * dx) / denom
    crossing = (denom != 0.0) & (t > 0.0) & (t < 1.0) & (s >= 0.0) & (s <= 1.0)
    ends = np.zeros((len(p0), 1))
    ts = np.sort(np.concatenate([ends, np.where(crossing, t, 1.0), ends + 1.0], axis=1))
    lo, hi = ts[:, :-1], ts[:, 1:]
    span = np.hypot(d[:, 0], d[:, 1])
    span = np.where(span < 1e-15, np.inf, span)
    perp = (np.stack([-d[:, 1], d[:, 0]], axis=1) / span[:, None] * 1e-9)[:, None]
    mid = p0[:, None, :2] + (0.5 * (lo + hi))[..., None] * d[:, None, :2]
    inside = points_in_polygon(mid + perp, v) & points_in_polygon(mid - perp, v)
    z0, dz = p0[:, 2], d[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = (0.0 - z0) / dz
        tb = (height - z0) / dz
    level = (z0 > 0.0) & (z0 < height)
    z_lo = np.where(dz == 0.0, 0.0, np.minimum(ta, tb))
    z_hi = np.where(dz == 0.0, np.where(level, 1.0, 0.0), np.maximum(ta, tb))
    part = np.minimum(hi, z_hi[:, None]) - np.maximum(lo, z_lo[:, None])
    inside_t = np.sum(np.where(inside & (part > 0.0), part, 0.0), axis=1)
    return inside_t * np.linalg.norm(d, axis=1)


def _box_contact_segments(v, height):
    """Level segments that touch the footprint's bounding box from outside,
    run along its sides, or cross it just above the roof, just below the
    floor or just inside either, and sloped ones that end on the roof or
    the floor plane from outside."""
    (x0, y0), (x1, y1) = v.min(axis=0), v.max(axis=0)
    xm, ym, z = (x0 + x1) / 2, (y0 + y1) / 2, height / 2
    above, under_roof = np.nextafter(height, np.inf), np.nextafter(height, 0.0)
    below, over_floor = np.nextafter(0.0, -np.inf), np.nextafter(0.0, 1.0)
    segments = [
        [(x0 - 2, ym, z), (x0, ym, z)], [(x1 + 2, ym, z), (x1, ym, z)],
        [(xm, y0 - 2, z), (xm, y0, z)], [(xm, y1 + 2, z), (xm, y1, z)],
        [(x0 - 1, y0 - 1, z), (x0, y0, z)], [(x1 + 1, y1 + 1, z), (x1, y1, z)],
        [(x0, y0 - 1, z), (x0, y1 + 1, z)], [(x1, y0 - 1, z), (x1, y1 + 1, z)],
        [(x0 - 1, y0, z), (x1 + 1, y0, z)], [(x0 - 1, y1, z), (x1 + 1, y1, z)],
        [(x0 - 1, ym, above), (x1 + 1, ym, above)],
        [(x0 - 1, ym, below), (x1 + 1, ym, below)],
        [(x0 - 1, ym, under_roof), (x1 + 1, ym, under_roof)],
        [(x0 - 1, ym, over_floor), (x1 + 1, ym, over_floor)],
        [(x0 - 1, ym, height + 1), (xm, ym, height)], [(x0 - 1, ym, -1), (xm, ym, 0.0)],
    ]
    return np.array(segments, dtype=float).transpose(1, 0, 2)


@pytest.mark.parametrize("v, lo, hi", [
    (_random_star(np.random.default_rng(12), 12), -2.0, 22.0),
    (_random_star(np.random.default_rng(48), 48), -2.0, 22.0),
    (SQUARE, -1.0, 2.0),
    (L_SHAPE, -2.0, 10.0),
], ids=["12", "48", "square", "l"])
def test_prism_chords_bit_equal_to_probing_every_slice(v, lo, hi):
    rng = np.random.default_rng(23)
    n, height = 2000, 4.0
    p0 = np.column_stack([rng.uniform(lo, hi, (n, 2)), rng.uniform(-2, height + 2, n)])
    p1 = np.column_stack([rng.uniform(lo, hi, (n, 2)), rng.uniform(-2, height + 2, n)])
    # Vertical and level segments, and level ones in the roof and floor planes.
    p0[:4] = [[10, 10, -1], [0, 10, 1], [0, 10, height], [0, 10, 0]]
    p1[:4] = [[10, 10, 9], [20, 10, 1], [20, 10, height], [20, 10, 0]]
    # Segments on the bounding box that the prefilter skips, and the two
    # just inside the roof and the floor that it keeps.
    q0, q1 = _box_contact_segments(v, height)
    p0, p1 = np.vstack([p0, q0]), np.vstack([p1, q1])
    got = geo.segment_prism_chords(p0, p1, v, height)
    want = _chords_probing_every_slice(p0, p1, v, height)
    assert got.tobytes() == want.tobytes()
    assert np.count_nonzero(got) > n // 10
    assert np.count_nonzero(got[n:]) == 2


def test_prism_chords_lshape_special_cases():
    p0 = np.array([
        [3.0, -1.0, 1.0],   # along the internal diagonal x = 3 of the L
        [-1.0, 0.0, 1.0],   # along the y = 0 facade
        [3.0, 4.0, 1.0],    # along the inner x = 3 facade
        [0.0, 0.0, 1.0],    # corner to corner through the reflex vertex
        [1.0, 5.0, 1.0],    # across the reflex vertex, inside both arms
        [7.0, -1.0, 1.0],   # through the convex vertex (8, 0) only
        [1.0, 1.0, -1.0],   # vertical, inside
        [5.0, 5.0, -1.0],   # vertical, in the notch
        [-1.0, 1.0, 5.0],   # level, above the roof
        [-1.0, 1.0, 4.0],   # level, along the roof plane
    ])
    p1 = np.array([
        [3.0, 5.0, 1.0],
        [9.0, 0.0, 1.0],
        [3.0, 9.0, 1.0],
        [6.0, 6.0, 1.0],
        [5.0, 1.0, 1.0],
        [9.0, 1.0, 1.0],
        [1.0, 1.0, 9.0],
        [5.0, 5.0, 9.0],
        [9.0, 1.0, 5.0],
        [9.0, 1.0, 4.0],
    ])
    chords = geo.segment_prism_chords(p0, p1, L_SHAPE, 4.0)
    expected = [3.0, 0.0, 0.0, np.hypot(3.0, 3.0), np.hypot(4.0, 4.0), 0.0, 4.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(chords, expected, atol=1e-9)
    # Samples exactly on the y = 0 facade or along the roof plane read as
    # inside under the half-open rule, so the oracle skips those two.
    off = [0, 2, 3, 4, 5, 6, 7, 8]
    n_samples = 20000
    est, changes = sampled_chords(p0[off], p1[off], L_SHAPE, 4.0, n_samples)
    length = np.linalg.norm(p1[off] - p0[off], axis=1)
    assert np.all(changes <= 2)
    assert np.all(np.abs(chords[off] - est) <= length / n_samples)


def test_vertical_segments_on_facades_are_open():
    # A vertical segment has no side of its own, so it is probed both ways
    # in x and in y: one standing on a facade grazes it whichever way the
    # interior lies, and one strictly inside reads its whole z overlap.
    cases = [
        (U_SHAPE, 1.0, (4.0, 2.0), 0.0),  # the right arm's inner facade, interior +x
        (U_SHAPE, 1.0, (1.0, 2.0), 0.0),  # the left arm's inner facade, interior -x
        (U_SHAPE, 1.0, (4.5, 2.0), 1.0),  # strictly inside the right arm
        (L_SHAPE, 4.0, (3.0, 3.0), 0.0),  # the reflex corner
        (L_SHAPE, 4.0, (3.0, 5.0), 0.0),  # the inner x = 3 facade, interior -x
        (L_SHAPE, 4.0, (5.0, 3.0), 0.0),  # the inner y = 3 facade, interior -y
    ]
    for v, height, (x, y), want in cases:
        chord = geo.segment_prism_chords(np.array([[x, y, -1.0]]), np.array([[x, y, 4.0]]),
                                         v, height)
        assert chord.tolist() == [want], (x, y)


def test_sphere_chords():
    c = np.array([0.0, 0.0, 0.0])
    p0 = np.array([[-5.0, 0.0, 0.0], [-5.0, 1.0, 0.0], [-5.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    p1 = np.array([[5.0, 0.0, 0.0], [5.0, 1.0, 0.0], [5.0, 2.0, 0.0], [5.0, 0.0, 0.0]])
    chords = geo.segment_sphere_chords(p0, p1, c, 1.0)
    # Through centre: diameter. Tangent: 0. Miss: 0. Starting at centre: radius.
    np.testing.assert_allclose(chords, [2.0, 0.0, 0.0, 1.0], atol=1e-7)


def test_max_pairwise_distance():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    assert geo.max_pairwise_distance(pts) == pytest.approx(5.0)
