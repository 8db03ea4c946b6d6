import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial import ConvexHull

from cfmm import raypaths as rp
from cfmm import scene as sc
from cfmm.config import resolve_scene_path
from cfmm.constants import SPEED_OF_LIGHT
from cfmm.geometry import points_in_polygon
from conftest import first_poses, make_scene


def wall_scene():
    # One 20 m wall plane at x = 10 facing the origin half-space.
    b = sc.Building("W", np.array([[10.0, 0.0], [30.0, 0.0], [30.0, 20.0], [10.0, 20.0]]), 20.0)
    return make_scene(buildings=[b])


def empty_scene():
    return make_scene(buildings=[])


def trace_one(scene, ap, ue, heading=0.0):
    """trace_paths_batch on the single pose ap (3,)."""
    return rp.trace_paths_batch(scene, np.asarray(ap, dtype=float)[None, :],
                                np.array([heading]), ue)


def budget_db(bundle):
    """Link budget from the bundle's parts: -FSPL, losses, antenna gains."""
    return (-rp.fspl_db(bundle.length_m) - bundle.loss_interaction_db
            - bundle.loss_foliage_db + bundle.gain_tx_db + bundle.gain_rx_db)


def test_free_space_single_direct_path():
    scene = empty_scene()
    bundle = trace_one(scene, [0.0, 10.0, 1.0], np.array([100.0, 10.0, 1.0]))
    assert bundle.kind.tolist() == [rp.KIND_DIRECT]
    assert bundle.length_m[0] == pytest.approx(100.0, abs=1e-12)
    assert bundle.delay_s[0] == pytest.approx(100.0 / SPEED_OF_LIGHT, rel=1e-12)
    assert bundle.delay_s[0] == pytest.approx(333.56e-9, rel=1e-3)
    assert np.isnan(bundle.points[0]).all()
    assert bundle.interact_idx[0].tolist() == [-1, -1]


def test_no_poses_gives_empty_bundle(basic_scene):
    bundle = rp.trace_paths_batch(basic_scene, np.zeros((0, 3)), np.zeros(0),
                                  basic_scene.ue_sites[0].positions_m[0])
    assert len(bundle) == 0
    want = {"link_index": ((0,), np.int32), "kind": ((0,), np.uint8),
            "points": ((0, 2, 3), np.float64), "interact_idx": ((0, 2), np.int32),
            "link_class": ((0,), np.uint8)}
    for name in ("length_m", "gain_db", "phase_rad", "loss_interaction_db",
                 "loss_foliage_db", "gain_tx_db", "gain_rx_db"):
        want[name] = ((0,), np.float64)
    assert set(want) == {f.name for f in dataclasses.fields(rp.PathBundle)}
    for name, (shape, dtype) in want.items():
        column = getattr(bundle, name)
        assert (column.shape, column.dtype) == (shape, dtype), name


def test_fspl_reference_values():
    # 20 log10(4 pi d f / c) at 3.5 GHz.
    assert rp.fspl_db(1.0) == pytest.approx(43.329, abs=2e-3)
    assert rp.fspl_db(2.0) - rp.fspl_db(1.0) == pytest.approx(
        20 * np.log10(2), abs=1e-12
    )
    assert rp.fspl_db(100.0) == pytest.approx(83.329, abs=2e-3)


def test_path_gain_matches_complex_gain():
    scene = wall_scene()
    bundle = trace_one(scene, [0.0, 0.0, 13.0], np.array([5.0, 20.0, 1.0]))
    assert len(bundle) == 2
    np.testing.assert_allclose(20 * np.log10(np.abs(bundle.complex_gains())),
                               budget_db(bundle), rtol=0, atol=1e-9)


def test_single_reflection_image_solution():
    # Facade plane x = 10; image of the AP is at (20, 0, 13) and the
    # unfolded distance to the UE is sqrt(769).
    scene = wall_scene()
    bundle = trace_one(scene, [0.0, 0.0, 13.0], np.array([5.0, 20.0, 1.0]))
    (r,) = np.flatnonzero(bundle.kind == rp.KIND_REFLECT1)
    assert bundle.length_m[r] == pytest.approx(np.sqrt(769.0), abs=1e-9)
    np.testing.assert_allclose(bundle.points[r, 0], [10.0, 40.0 / 3.0, 5.0], atol=1e-9)
    assert bundle.interact_idx[r].tolist() == [0, -1]  # building W
    assert bundle.loss_interaction_db[r] == 6.0
    # Link budget: FSPL of the unfolded length, the facade loss and the antennas.
    assert bundle.gain_db[r] == pytest.approx(
        -rp.fspl_db(np.sqrt(769.0)) - 6.0 + bundle.gain_tx_db[r] + bundle.gain_rx_db[r],
        abs=1e-9,
    )


def test_reflection_specular_law_random_scenes():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(300):
        x_wall = rng.uniform(20.0, 60.0)
        b = sc.Building(
            "W",
            np.array([[x_wall, 0.0], [x_wall + 20.0, 0.0],
                      [x_wall + 20.0, 80.0], [x_wall, 80.0]]),
            rng.uniform(8.0, 30.0),
        )
        scene = make_scene(buildings=[b], extent=(100.0, 100.0))
        ap = np.array([rng.uniform(0.5, x_wall - 0.5), rng.uniform(1.0, 79.0), rng.uniform(4.0, 13.0)])
        ue = np.array([rng.uniform(0.5, x_wall - 0.5), rng.uniform(1.0, 79.0), 1.0])
        bundle = trace_one(scene, ap, ue)
        for r in bundle.points[bundle.kind == rp.KIND_REFLECT1, 0]:
            d_in = (r - ap) / np.linalg.norm(r - ap)
            d_out = (ue - r) / np.linalg.norm(ue - r)
            n = np.array([-1.0, 0.0, 0.0])  # outward normal of the lit facade
            # Specular: reflection flips the normal component only.
            mirrored = d_in - 2 * np.dot(d_in, n) * n
            assert np.abs(mirrored - d_out).max() < 1e-9
            # Fermat: the found point is a local minimum of the bent length.
            base = np.linalg.norm(r - ap) + np.linalg.norm(ue - r)
            for dy, dz in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)):
                q = r + np.array([0.0, dy, dz])
                assert np.linalg.norm(q - ap) + np.linalg.norm(ue - q) >= base - 1e-12
            checked += 1
    assert checked > 100


def test_reflection_length_equals_image_distance_property():
    rng = np.random.default_rng(7)
    scene = wall_scene()
    for _ in range(50):
        ap = np.array([rng.uniform(0.0, 9.0), rng.uniform(0.0, 20.0), rng.uniform(4.0, 13.0)])
        ue = np.array([rng.uniform(0.0, 9.0), rng.uniform(0.0, 20.0), 1.0])
        if np.allclose(ap[:2], ue[:2]):
            continue
        bundle = trace_one(scene, ap, ue)
        for length in bundle.length_m[bundle.kind == rp.KIND_REFLECT1]:
            image = ap.copy()
            image[0] = 20.0 - ap[0]
            assert length == pytest.approx(float(np.linalg.norm(ue - image)), abs=1e-9)


def test_double_reflection_street_canyon():
    # Two parallel walls: x = 10 (facing -x) and x = -10 (facing +x).
    b1 = sc.Building("E", np.array([[10.0, 0.0], [14.0, 0.0], [14.0, 40.0], [10.0, 40.0]]), 15.0)
    b2 = sc.Building("Wst", np.array([[-14.0, 0.0], [-10.0, 0.0], [-10.0, 40.0], [-14.0, 40.0]]), 15.0)
    scene = sc.Scene(
        extent_m=np.array([200.0, 200.0]),
        buildings=[b1, b2], foliage=[],
        ue_sites=[sc.UESite("s", np.tile([0.0, 30.0, 1.0], (8, 1)))],
        trajectory=sc.Trajectory(waypoints=[sc.Waypoint("start", x=0.0, y=0.0, height=4.5)]),
    )
    # Translate so everything is inside the extent.
    for b in scene.buildings:
        b.footprint = b.footprint + 50.0
        b.__post_init__()
    ap = np.array([50.0, 52.0, 4.5])
    ue = np.array([50.0, 80.0, 1.0])
    bundle = trace_one(scene, ap, ue)
    rows = np.flatnonzero(bundle.kind == rp.KIND_REFLECT2)
    assert rows.size >= 2  # one bounce sequence per wall order
    for row in rows:
        # Verify against the double-image construction for this geometry.
        r1, r2 = bundle.points[row]
        legs = (
            np.linalg.norm(r1 - ap) + np.linalg.norm(r2 - r1) + np.linalg.norm(ue - r2)
        )
        assert bundle.length_m[row] == pytest.approx(float(legs), abs=1e-9)
        # Specular at both points.
        for r, prev, nxt in ((r1, ap, r2), (r2, r1, ue)):
            d_in = (r - prev) / np.linalg.norm(r - prev)
            d_out = (nxt - r) / np.linalg.norm(nxt - r)
            n = np.array([1.0, 0.0, 0.0]) if r[0] > 50.0 else np.array([-1.0, 0.0, 0.0])
            mirrored = d_in - 2 * np.dot(d_in, n) * n
            assert np.abs(mirrored - d_out).max() < 1e-9
        # Two facade losses accumulated, one per wall.
        assert sorted(bundle.interact_idx[row].tolist()) == [0, 1]
        assert bundle.loss_interaction_db[row] == pytest.approx(12.0)


def _rotated_box(center, half, angle):
    """Footprint of a half[0] x half[1] half-size box turned by angle."""
    c, s = np.cos(angle), np.sin(angle)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]) * half
    return corners @ np.array([[c, s], [-s, c]]) + center


def _oracle_double_bounces(buildings, ap, ue, tol=1e-9):
    """Every double bounce AP -> facade 1 -> facade 2 -> UE of one pose,
    by the image method in scalar arithmetic over every ordered pair of
    facades of the convex buildings, with each leg clipped against every
    prism: {(facade 1, facade 2): (length, r1, r2)}, a facade named by
    its (building, footprint edge) index pair."""
    walls = []  # (name, q0, unit edge, unit outward normal, edge length, height)
    for bi, b in enumerate(buildings):
        v = [tuple(map(float, q)) for q in b.footprint]
        for ei in range(len(v)):
            (x0, y0), (x1, y1) = v[ei], v[(ei + 1) % len(v)]
            n = math.hypot(x1 - x0, y1 - y0)
            ex, ey = (x1 - x0) / n, (y1 - y0) / n
            walls.append(((bi, ei), (x0, y0), (ex, ey), (ey, -ex), n, b.height_m))

    def side(w, p):
        (x0, y0), (nx, ny) = w[1], w[3]
        return (p[0] - x0) * nx + (p[1] - y0) * ny

    def mirror(w, p):
        d = side(w, p)
        return (p[0] - 2.0 * d * w[3][0], p[1] - 2.0 * d * w[3][1], p[2])

    def bounce(w, src, img):
        """Where the segment src -> img crosses facade w strictly inside
        its extent, else None."""
        a, b = side(w, src), side(w, img)
        if not (a > tol and b < -tol):
            return None
        t = a / (a - b)
        p = tuple(src[k] + t * (img[k] - src[k]) for k in range(3))
        (x0, y0), (ex, ey), n, height = w[1], w[2], w[4], w[5]
        lam = (p[0] - x0) * ex + (p[1] - y0) * ey
        return p if tol < lam < n - tol and tol < p[2] < height - tol else None

    def chord(bi, p, q):
        """Length of p -> q inside prism bi: the segment p + t (q - p) is
        inside where a + t b < 0 for every face's (a, b)."""
        d = [q[k] - p[k] for k in range(3)]
        faces = [(side(w, p), w[3][0] * d[0] + w[3][1] * d[1])
                 for w in walls if w[0][0] == bi]
        faces += [(-p[2], -d[2]), (p[2] - buildings[bi].height_m, d[2])]
        t0, t1 = 0.0, 1.0
        for a, b in faces:
            if b < 0.0:
                t0 = max(t0, -a / b)
            elif b > 0.0:
                t1 = min(t1, -a / b)
            elif a >= 0.0:
                return 0.0
        return max(0.0, t1 - t0) * math.dist(p, q)

    ap, ue = tuple(map(float, ap)), tuple(map(float, ue))
    found = {}
    for w1 in walls:
        for w2 in walls:
            i1 = mirror(w1, ap)
            i2 = mirror(w2, i1)
            r2 = bounce(w2, ue, i2)
            r1 = bounce(w1, r2, i1) if r2 else None
            if r1 is None or side(w1, ap) <= tol or side(w2, r1) <= tol:
                continue
            legs = [(ap, r1), (r1, r2), (r2, ue)]
            if any(chord(bi, p, q) > 1e-9 for bi in range(len(buildings)) for p, q in legs):
                continue
            found[w1[0], w2[0]] = (math.dist(ue, i2), np.array(r1), np.array(r2))
    return found


def test_double_reflection_matches_scalar_image_oracle(monkeypatch):
    # Two randomly sized and turned boxes across a street, the AP and the
    # UE anywhere around them. The oracle tries every ordered facade pair
    # for every pose, so the tracer's pair pruning must not lose a double
    # bounce, and its checks must not add one.
    monkeypatch.setattr(rp, "MIN_RELATIVE_POWER_DB", np.inf)
    rng = np.random.default_rng(29)
    n_paths = 0
    for _ in range(16):
        buildings = []
        for name, sign in (("W", -1.0), ("E", 1.0)):
            half = rng.uniform([3.0, 8.0], [10.0, 30.0])
            angle = rng.uniform(-0.6, 0.6)
            reach = half[0] * abs(np.cos(angle)) + half[1] * abs(np.sin(angle))
            center = (50.0 + sign * (rng.uniform(3.0, 12.0) + reach), rng.uniform(30.0, 70.0))
            buildings.append(sc.Building(name, _rotated_box(center, half, angle),
                                         rng.uniform(8.0, 30.0)))
        scene = make_scene(buildings=buildings)
        pts = rng.uniform([20.0, 0.0, 4.0], [80.0, 100.0, 13.0], size=(120, 3))
        for b in buildings:
            pts = pts[~points_in_polygon(pts[:, :2], b.footprint)]
        ap, ues = pts[:15], pts[15:19] * (1.0, 1.0, 0.0) + (0.0, 0.0, 1.5)
        normals = {}  # unit outward normal by (building, edge)
        for bi, b in enumerate(buildings):
            e = np.roll(b.footprint, -1, axis=0) - b.footprint
            for ei, (ex, ey) in enumerate(e / np.linalg.norm(e, axis=1)[:, None]):
                normals[bi, ei] = np.array([ey, -ex, 0.0])

        def facade(bi, r):
            """The facade of building bi whose plane holds r."""
            return min((abs(np.dot(r - (*buildings[bi].footprint[ei], 0.0), n)), (bi, ei))
                       for (b, ei), n in normals.items() if b == bi)[1]

        for ue in ues:
            bundle = rp.trace_paths_batch(scene, ap, np.zeros(len(ap)), ue)
            got = {}
            for row in np.flatnonzero(bundle.kind == rp.KIND_REFLECT2):
                r1, r2 = bundle.points[row]
                b1, b2 = bundle.interact_idx[row]
                key = (int(bundle.link_index[row]), facade(b1, r1), facade(b2, r2))
                got[key] = (bundle.length_m[row], r1, r2)
            want = {(m, *pair): path for m in range(len(ap))
                    for pair, path in _oracle_double_bounces(buildings, ap[m], ue).items()}
            assert got.keys() == want.keys()
            for (m, w1, w2), (length, r1, r2) in got.items():
                want_length, want_r1, want_r2 = want[m, w1, w2]
                assert abs(length - want_length) <= 1e-9
                np.testing.assert_allclose(np.stack([r1, r2]), np.stack([want_r1, want_r2]),
                                           rtol=0, atol=1e-9)
                # Specular at both bounces: only the normal component flips.
                for r, prev, nxt, w in ((r1, ap[m], r2, w1), (r2, r1, ue, w2)):
                    d_in = (r - prev) / np.linalg.norm(r - prev)
                    d_out = (nxt - r) / np.linalg.norm(nxt - r)
                    n = normals[w]
                    assert np.abs(d_in - 2.0 * np.dot(d_in, n) * n - d_out).max() < 1e-9
            n_paths += len(got)
    assert n_paths >= 100, n_paths


def test_rooftop_path_when_direct_blocked(basic_scene):
    ap = np.array([50.0, 10.0, 4.5])
    ue = np.array([50.0, 60.0, 1.0])
    bundle = trace_one(basic_scene, ap, ue)
    assert rp.KIND_DIRECT not in bundle.kind
    (r,) = np.flatnonzero(bundle.kind == rp.KIND_ROOFTOP)
    e = bundle.points[r, 0]
    assert e[2] == pytest.approx(20.0, abs=1e-9)  # on the roof boundary
    # Independent check: scan the four roof edges densely.
    v = basic_scene.buildings[0].footprint
    best = np.inf
    for i in range(4):
        e0 = np.array([*v[i], 20.0])
        e1 = np.array([*v[(i + 1) % 4], 20.0])
        lam = np.linspace(0.0, 1.0, 20001)[:, None]
        pts = e0 + lam * (e1 - e0)
        tot = np.linalg.norm(pts - ap, axis=1) + np.linalg.norm(pts - ue, axis=1)
        best = min(best, tot.min())
    assert bundle.length_m[r] == pytest.approx(best, abs=1e-6)
    assert bundle.interact_idx[r].tolist() == [0, -1]  # building B0
    assert bundle.loss_interaction_db[r] == 20.0
    # Excess loss is charged on top of the bent-path FSPL.
    assert bundle.gain_db[r] == pytest.approx(
        -rp.fspl_db(bundle.length_m[r]) - 20.0 + bundle.gain_tx_db[r] + bundle.gain_rx_db[r],
        abs=1e-9,
    )


def test_through_building_path_never_emitted(basic_scene):
    # Sweep many poses behind the building: no returned path segment may
    # cross a building interior.
    rng = np.random.default_rng(3)
    for _ in range(40):
        ap = np.array([rng.uniform(0, 100), rng.uniform(0, 25), rng.uniform(4, 13)])
        ue = np.array([rng.uniform(0, 100), 60.0, 1.0])
        bundle = trace_one(basic_scene, ap, ue)
        for r in range(len(bundle)):
            pts = [p for p in bundle.points[r] if not np.isnan(p[0])]
            chain = [ap, *pts, ue]
            for a, b in zip(chain[:-1], chain[1:]):
                for bld in basic_scene.buildings:
                    if bundle.kind[r] == rp.KIND_ROOFTOP and bld.building_id == "B0":
                        continue  # single-knife-edge model bends over this roof
                    chord = bld.blockage_chords(a[None, :], b[None, :])[0]
                    assert chord <= 1e-6


def lshape_scene():
    """A scene of one L-shaped building, and 60 random AP positions
    outside it."""
    fp = np.array([[30, 25], [75, 25], [75, 38], [45, 38], [45, 50], [30, 50]], dtype=float)
    scene = make_scene(buildings=[sc.Building("L", fp, 20.0)])
    scene.validate()
    rng = np.random.default_rng(5)
    ap = rng.uniform([0.0, 0.0, 4.5], [100.0, 55.0, 13.0], size=(200, 3))
    return scene, ap[~points_in_polygon(ap[:, :2], fp)][:60]


def test_lshape_paths_and_link_classes_against_dense_sampling():
    # An L-shaped building: its bounding box holds a notch that blocks
    # nothing, so the bounding-box prefilter passes segments the slices
    # must then clear. The oracle samples each segment densely and counts
    # samples inside the prism, so it shares nothing with the
    # slice-and-probe routine.
    scene, ap = lshape_scene()
    bld = scene.buildings[0]
    fp = bld.footprint
    assert not bld.is_convex
    ues = scene.ue_sites[0].positions_m
    n_samples = 2000
    t = (np.arange(n_samples) + 0.5) / n_samples

    def interior_samples(a, b):
        pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        inside = points_in_polygon(pts[..., :2], fp) & (pts[..., 2] <= bld.height_m)
        return inside.sum(axis=1)

    for ue in ues:
        bundle = rp.trace_paths_batch(scene, ap, np.zeros(len(ap)), ue)
        direct = interior_samples(ap, np.broadcast_to(ue, ap.shape))
        nlos = bundle.link_class == sc.LinkClass.NLOS
        assert np.all(nlos[direct >= 2]) and not np.any(nlos[direct == 0])

        starts, ends = [], []
        for r in np.flatnonzero(bundle.kind != rp.KIND_ROOFTOP):
            pts = [p for p in bundle.points[r] if not np.isnan(p[0])]
            chain = [ap[bundle.link_index[r]], *pts, ue]
            starts += chain[:-1]
            ends += chain[1:]
        assert np.any(bundle.kind == rp.KIND_REFLECT1)
        # At most one sample, i.e. length / n_samples, inside the building.
        assert np.all(interior_samples(np.array(starts), np.array(ends)) <= 1)


def test_link_classes_against_dense_sampling():
    # The oracle samples each direct ray densely and tests the samples
    # against box and sphere interiors by coordinate arithmetic alone, so it
    # shares no code with blockage_chords or segment_sphere_chords.
    tall = sc.Building("tall", np.array([[30, 25], [50, 25], [50, 35], [30, 35]], float), 20.0)
    low = sc.Building("low", np.array([[60, 25], [80, 25], [80, 40], [60, 40]], float), 3.0)
    blobs = [
        sc.FoliageBlob(center_m=np.array([25.0, 48.0, 4.0]), radius_m=5.0, core_radius_m=2.0),
        sc.FoliageBlob(center_m=np.array([65.0, 50.0, 2.0]), radius_m=3.0),
    ]
    scene = make_scene(buildings=[tall, low], foliage=blobs)
    scene.validate()
    rng = np.random.default_rng(11)
    ap = rng.uniform([0.0, 0.0, 4.5], [100.0, 45.0, 13.0], size=(260, 3))
    for b in scene.buildings:
        ap = ap[~points_in_polygon(ap[:, :2], b.footprint)]
    ap = ap[:150]
    n_samples = 4000
    t = (np.arange(n_samples) + 0.5) / n_samples

    def most_inside(pts, solids, inside):
        """Per ray, the most samples inside any one of the solids."""
        return np.max([inside(pts, s).sum(axis=1) for s in solids], axis=0)

    def in_box(pts, b):
        lo, hi = b.footprint.min(axis=0), b.footprint.max(axis=0)
        return ((pts[..., 0] > lo[0]) & (pts[..., 0] < hi[0]) & (pts[..., 1] > lo[1])
                & (pts[..., 1] < hi[1]) & (pts[..., 2] < b.height_m))

    def in_sphere(pts, f):
        return ((pts - f.center_m) ** 2).sum(axis=-1) < f.radius_m ** 2

    checked = {c: 0 for c in sc.LinkClass}
    for ue in scene.ue_sites[0].positions_m:
        got = rp.trace_paths_batch(scene, ap, np.zeros(len(ap)), ue).link_class
        assert got.shape == (len(ap),) and got.dtype == np.uint8
        pts = ap[:, None, :] + t[None, :, None] * (ue - ap)[:, None, :]
        n_bld = most_inside(pts, scene.buildings, in_box)
        n_fol = most_inside(pts, scene.foliage, in_sphere)
        # Exactly one sample inside is a grazing pair: skipped.
        nlos, clear = n_bld >= 2, n_bld == 0
        assert np.all(got[nlos] == sc.LinkClass.NLOS)
        assert not np.any(got[clear] == sc.LinkClass.NLOS)
        olos, los = clear & (n_fol >= 2), clear & (n_fol == 0)
        assert np.all(got[olos] == sc.LinkClass.OLOS)
        assert np.all(got[los] == sc.LinkClass.LOS)
        checked[sc.LinkClass.NLOS] += int(nlos.sum())
        checked[sc.LinkClass.OLOS] += int(olos.sum())
        checked[sc.LinkClass.LOS] += int(los.sum())
    assert min(checked.values()) >= 20, checked


def test_foliage_loss_on_direct_path():
    blob = sc.FoliageBlob(
        center_m=np.array([50.0, 30.0, 1.0]), radius_m=5.0,
        attenuation_db_per_m=1.0, core_radius_m=0.0,
    )
    scene = make_scene(buildings=[], foliage=[blob])
    ap = np.array([50.0, 0.0, 1.0])
    ue = np.array([50.0, 60.0, 1.0])
    bundle = trace_one(scene, ap, ue)
    assert len(bundle) == 1
    assert bundle.loss_foliage_db[0] == pytest.approx(10.0, abs=1e-9)  # full 10 m chord at 1 dB/m
    assert bundle.gain_db[0] == pytest.approx(
        -rp.fspl_db(60.0) - 10.0 + bundle.gain_tx_db[0] + bundle.gain_rx_db[0], abs=1e-9
    )


def test_antenna_gain_patterns():
    # Panel frame for heading 0 (east) and 40 degrees downtilt: boresight
    # b looks south and down, u is its up vector, s = u x b.
    tilt = np.deg2rad(40.0)
    b = np.array([0.0, -np.cos(tilt), -np.sin(tilt)])
    u = np.array([0.0, -np.sin(tilt), np.cos(tilt)])
    s = np.cross(u, b)

    def panel(az, el):
        """World direction at azimuth az, elevation el in the panel frame."""
        return np.cos(el) * (np.cos(az) * b + np.sin(az) * s) + np.sin(el) * u

    def ap_gain(d):
        return rp.ap_gain_db(np.zeros(1), d[None, :])[0]

    def ue_gain(d):
        return rp.ue_gain_db(d[None, :])[0]

    assert ap_gain(panel(0.0, 0.0)) == pytest.approx(7.0)
    # cos^2 rolloff: at 60 degrees off boresight, -6.02 dB.
    assert ap_gain(panel(np.deg2rad(60.0), 0.0)) == pytest.approx(7.0 - 6.0206, abs=1e-3)
    # Behind the panel: floored 20 dB below peak.
    assert ap_gain(panel(np.pi, 0.0)) == pytest.approx(-13.0)
    horizon = lambda el: np.array([np.cos(el), 0.0, np.sin(el)])
    assert ue_gain(horizon(0.0)) == pytest.approx(2.15)
    assert ue_gain(horizon(np.deg2rad(60.0))) == pytest.approx(2.15 - 6.0206, abs=1e-3)
    assert ue_gain(horizon(np.pi / 2)) == pytest.approx(2.15 - 30.0)


def test_patch_mount_orientation():
    # The panel looks 90 degrees clockwise from the heading, 40 degrees
    # below the horizon: heading east (+x) looks -y, heading north looks +x.
    tilt = np.deg2rad(40.0)
    for heading in (0.0, np.pi / 2, np.pi, -np.pi / 2, 0.3):
        h = np.array([heading])
        look_xy = np.array([np.sin(heading), -np.cos(heading)])
        look = np.array([[*(np.cos(tilt) * look_xy), -np.sin(tilt)]])
        assert rp.ap_gain_db(h, look)[0] == pytest.approx(7.0, abs=1e-9)
        # Straight behind the panel: the back-lobe floor, 20 dB below peak.
        assert rp.ap_gain_db(h, -look)[0] == pytest.approx(-13.0, abs=1e-9)
        # On the horizon the look direction is 40 degrees off boresight.
        horizontal = np.array([[*look_xy, 0.0]])
        assert rp.ap_gain_db(h, horizontal)[0] == pytest.approx(
            7.0 + 20.0 * np.log10(np.cos(tilt)), abs=1e-9)


def test_reciprocity_of_path_losses(basic_scene):
    # FSPL and the interaction and foliage losses are reciprocal for any
    # antennas; the antenna gains are not, since the two ends differ.
    ap = np.array([30.0, 10.0, 4.5])
    ue = np.array([70.0, 60.0, 1.0])
    fwd = trace_one(basic_scene, ap, ue)
    rev = trace_one(basic_scene, ue, ap)
    key = lambda b: sorted(
        (int(k), round(float(length), 9), round(float(loss), 9))
        for k, length, loss in zip(
            b.kind, b.length_m,
            -rp.fspl_db(b.length_m) - b.loss_interaction_db - b.loss_foliage_db)
    )
    assert key(fwd) == key(rev)


def test_relative_power_cutoff(monkeypatch):
    scene = wall_scene()
    ap = np.array([0.0, 0.0, 13.0])
    ue = np.array([5.0, 20.0, 1.0])
    both = trace_one(scene, ap, ue)
    assert both.kind.tolist() == [rp.KIND_DIRECT, rp.KIND_REFLECT1]
    # The reflection sits ~6.9 dB below the direct ray here.
    assert both.gain_db[0] - both.gain_db[1] == pytest.approx(6.94, abs=0.01)
    monkeypatch.setattr(rp, "MIN_RELATIVE_POWER_DB", 3.0)
    assert trace_one(scene, ap, ue).kind.tolist() == [rp.KIND_DIRECT]


def test_interaction_antenna_gains_face_the_end_points():
    # Every row: the AP antenna radiates toward the first point after the
    # AP, and the UE antenna receives from the last point before the UE.
    # On the direct ray those are the UE and the AP themselves.
    canyon = sc.load_scene(resolve_scene_path("bundled:canyon"))
    pos, head, _ = sc.sample_ap_pose_arrays(canyon.trajectory)
    wall_ap = np.array([[0.0, 0.0, 13.0], [5.0, 10.0, 4.5], [40.0, 10.0, 8.0], [2.0, 18.0, 6.0]])
    wall_ue = np.array([[5.0, 20.0, 1.0], [3.0, 2.0, 1.0], [1.0, 10.0, 1.0]])
    cases = [(wall_scene(), wall_ap, np.array([0.0, 1.0, 2.5, -2.0]), ue) for ue in wall_ue]
    cases += [(canyon, pos[::7], head[::7], ue) for ue in canyon.site(0).positions_m]
    kinds = set()
    for scene, ap, headings, ue in cases:
        bundle = rp.trace_paths_batch(scene, ap, headings, ue)
        rows = np.arange(len(bundle))
        poses = bundle.link_index
        n_points = (~np.isnan(bundle.points[:, :, 0])).sum(axis=1)
        # Each row's chain AP -> points -> UE, padded after the UE.
        chain = np.concatenate([ap[poses, None], bundle.points, np.full((rows.size, 1, 3), np.nan)],
                               axis=1)
        chain[rows, n_points + 1] = ue
        out = chain[:, 1] - chain[:, 0]
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        back = chain[rows, n_points] - ue
        back /= np.linalg.norm(back, axis=1, keepdims=True)
        np.testing.assert_allclose(bundle.gain_tx_db, rp.ap_gain_db(headings[poses], out),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(bundle.gain_rx_db, rp.ue_gain_db(back), rtol=0, atol=1e-9)
        kinds.update(bundle.kind.tolist())
    assert kinds == {rp.KIND_DIRECT, rp.KIND_REFLECT1, rp.KIND_REFLECT2, rp.KIND_ROOFTOP}


def test_front_of_facade_test_alone_pairs_no_convex_facades():
    # Two facades of one convex footprint each lie on or behind the other's
    # plane, so the front-of-facade test admits no such pair without a
    # convexity check: rotated boxes and random convex hulls. The facing
    # notch facades of an L still pair, both ways round.
    rng = np.random.default_rng(41)
    footprints = [_rotated_box(rng.uniform(20.0, 80.0, 2), rng.uniform(1.0, 30.0, 2),
                               rng.uniform(-np.pi, np.pi)) for _ in range(30)]
    for _ in range(30):
        pts = rng.uniform(0.0, 100.0, size=(rng.integers(3, 40), 2))
        footprints.append(pts[ConvexHull(pts).vertices])
    for fp in footprints:
        scene = make_scene(buildings=[sc.Building("C", fp, 10.0)])
        assert rp._admissible_pairs(rp._scene_facades(scene)) == []
    fp = np.array([[20, 40], [80, 40], [80, 60], [50, 60], [50, 50], [20, 50]], dtype=float)
    facades = rp._scene_facades(make_scene(buildings=[sc.Building("L", fp, 20.0)]))
    pairs = {(tuple(f1.q0), tuple(f2.q0)) for f1, f2 in rp._admissible_pairs(facades)}
    assert pairs == {((50.0, 60.0), (50.0, 50.0)), ((50.0, 50.0), (50.0, 60.0))}


def test_batch_matches_per_pose(basic_scene):
    rng = np.random.default_rng(23)
    m = 40
    ap = np.column_stack([
        rng.uniform(5, 95, m), rng.uniform(5, 25, m), rng.uniform(4, 13, m)
    ])
    headings = rng.uniform(-np.pi, np.pi, m)
    ue = np.array([35.0, 60.0, 1.0])
    bundle = rp.trace_paths_batch(basic_scene, ap, headings, ue)
    for i in range(m):
        rows = bundle.link_index == i
        one = trace_one(basic_scene, ap[i], ue, heading=headings[i])
        assert rows.sum() == len(one)
        np.testing.assert_allclose(
            np.sort(bundle.length_m[rows]), np.sort(one.length_m), atol=1e-12,
        )
        np.testing.assert_allclose(
            np.sort(bundle.gain_db[rows]), np.sort(budget_db(one)), atol=1e-9,
        )


@pytest.mark.parametrize("case", ["canyon", "full_mixed_links", "lshape"])
def test_link_rows_match_single_ue_traces(case):
    # One call over every (pose, UE) link, rows in (pose, UE) order as
    # plan_campaign traces them, split per UE, is bitwise the single-UE
    # trace in every column: on the digest windows of canyon and of full,
    # the second with links without paths, and on the L building.
    if case == "lshape":
        scene, ap = lshape_scene()
        headings = np.linspace(-np.pi, np.pi, len(ap))
    else:
        name, n_poses, skip = {"canyon": ("canyon", 24, 0),
                               "full_mixed_links": ("full", 64, 896)}[case]
        scene = first_poses(sc.load_scene(resolve_scene_path(f"bundled:{name}")),
                            n_poses, skip=skip)
        ap, headings, _ = sc.sample_ap_pose_arrays(scene.trajectory)
    ues = scene.site(0).positions_m
    m, u = len(ap), len(ues)
    links = rp.trace_paths_batch(scene, np.repeat(ap, u, axis=0), np.repeat(headings, u),
                                 np.tile(ues, (m, 1)))
    assert links.link_class.shape == (m * u,)
    if case == "full_mixed_links":
        assert np.count_nonzero(np.bincount(links.link_index, minlength=m * u) == 0) == 302
    for j, ue in enumerate(ues):
        one = rp.trace_paths_batch(scene, ap, headings, ue)
        rows = links.link_index % u == j
        got = {f.name: getattr(links, f.name)[rows] for f in dataclasses.fields(rp.PathBundle)
               if f.name != "link_class"}
        got["link_index"] = (links.link_index[rows] // u).astype(np.int32)
        got["link_class"] = links.link_class[j::u]
        for name, column in got.items():
            want = getattr(one, name)
            assert (column.dtype, column.shape) == (want.dtype, want.shape), (j, name)
            assert column.tobytes() == want.tobytes(), (j, name)


def test_path_continuity_along_route(basic_scene):
    # 5 cm pose steps: every persisting path's length moves by less than
    # twice the pose step.
    ap0 = np.array([20.0, 10.0, 4.5])
    ue = np.array([40.0, 60.0, 1.0])
    step = np.array([0.05, 0.0, 0.0])
    prev = None
    for k in range(30):
        bundle = trace_one(basic_scene, ap0 + k * step, ue)
        paths = {
            (int(kind), round(float(loss), 6)): length
            for kind, loss, length in zip(bundle.kind, bundle.loss_interaction_db,
                                          bundle.length_m)
        }
        if prev is not None:
            for key in set(paths) & set(prev):
                assert abs(paths[key] - prev[key]) < 0.1
        prev = paths


def test_bundle_sorted_and_delay_consistent(basic_scene):
    ap = np.column_stack([
        np.linspace(10, 90, 25), np.full(25, 10.0), np.full(25, 4.5)
    ])
    bundle = rp.trace_paths_batch(basic_scene, ap, np.zeros(25), np.array([35.0, 60.0, 1.0]))
    assert np.all(np.diff(bundle.link_index) >= 0)
    for i in np.unique(bundle.link_index):
        lengths = bundle.length_m[bundle.link_index == i]
        assert np.all(np.diff(lengths) >= 0)
    np.testing.assert_allclose(bundle.delay_s, bundle.length_m / SPEED_OF_LIGHT, rtol=1e-15)


def test_rooftop_point_matches_bounded_search():
    # Random rectangular buildings with the AP close to one long facade,
    # near one end, and the UE across the roof and along the wall beyond
    # that end: the roof blocks the direct ray, and the AP's height gap
    # below the roof pushes many edge minima past the wall's end, where
    # the closed form clips to a vertex. The oracle is scipy's bounded
    # search along every roof edge, keeping the shortest bent length.
    rng = np.random.default_rng(58)
    checked, vertex_hits = 0, {-1.0: 0, 1.0: 0}
    while checked < 250:
        half = np.array([rng.uniform(0.2, 4.0), rng.uniform(5.0, 20.0)])
        th = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        fp = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]]) * half @ rot.T + 50.0
        h = rng.uniform(10.0, 30.0)
        scene = make_scene(buildings=[sc.Building("B", fp, h)])
        end = rng.choice([-1.0, 1.0])
        local = np.array([
            [half[0] + rng.uniform(0.05, 3.0), end * half[1] * rng.uniform(0.3, 1.0)],
            [-half[0] - rng.uniform(1.0, 30.0), end * half[1] * rng.uniform(0.5, 3.0)],
        ])
        xy = local @ rot.T + 50.0
        ap = np.array([*xy[0], rng.uniform(4.0, min(13.0, h - 0.5))])
        ue = np.array([*xy[1], 1.0])
        bundle = trace_one(scene, ap, ue)
        rows = np.flatnonzero(bundle.kind == rp.KIND_ROOFTOP)
        if rows.size == 0:
            continue  # the ray passed beside the wall
        corners = np.column_stack([scene.buildings[0].footprint, np.full(4, h)])
        best = np.inf
        for i in range(4):
            e0, e1 = corners[i], corners[(i + 1) % 4]

            def bent(t):
                p = e0 + t * (e1 - e0)
                return np.linalg.norm(ap - p) + np.linalg.norm(p - ue)

            r = minimize_scalar(bent, bounds=(0.0, 1.0), method="bounded",
                                options={"xatol": 1e-12})
            best = min(best, float(r.fun))
        np.testing.assert_allclose(bundle.length_m[rows[0]], best, rtol=0, atol=1e-9)
        gap = np.linalg.norm(corners - bundle.points[rows[0], 0], axis=1).min()
        vertex_hits[end] += bool(gap <= 1e-9)
        checked += 1
    # Clipped minima at both ends of the walls are among the draws.
    assert min(vertex_hits.values()) >= 20
