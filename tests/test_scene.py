import numpy as np
import pytest

from cfmm import scene as sc
from conftest import make_scene, ue_line


def test_json_round_trip(tmp_path, basic_scene):
    path = sc.save_scene(basic_scene, tmp_path / "scene.json")
    loaded = sc.load_scene(path)
    np.testing.assert_allclose(loaded.extent_m, basic_scene.extent_m)
    assert len(loaded.buildings) == 1
    b0, b1 = basic_scene.buildings[0], loaded.buildings[0]
    assert b1.building_id == b0.building_id
    np.testing.assert_allclose(b1.footprint, b0.footprint)
    assert b1.height_m == b0.height_m
    assert b1.reflection_loss_db == b0.reflection_loss_db
    np.testing.assert_allclose(
        loaded.ue_sites[0].positions_m, basic_scene.ue_sites[0].positions_m
    )
    assert [w.action for w in loaded.trajectory.waypoints] == ["start", "drive"]
    assert loaded.trajectory.speed_mps == 0.5


@pytest.mark.parametrize(
    "mutate,match",
    [
        (lambda s: s.ue_sites[0].positions_m.resize((7, 3), refcheck=False), "8 UE"),
        (
            lambda s: s.ue_sites[0].positions_m.__setitem__((0, 2), 1.5),
            "heights",
        ),
        (
            lambda s: setattr(
                s.ue_sites[0], "positions_m", ue_line(x0=10.0, spacing=9.0)
            ),
            "spread",
        ),
        (
            lambda s: setattr(
                s.buildings[0],
                "footprint",
                np.array([[0.0, 0.0], [10.0, 10.0], [10.0, 0.0], [0.0, 10.0]]),
            ),
            "simple polygon",
        ),
        (lambda s: setattr(s.buildings[0], "height_m", -1.0), "height"),
        (
            lambda s: setattr(
                s.trajectory.waypoints[0], "height", 7.0
            ),
            "height",
        ),
        (
            lambda s: s.trajectory.waypoints.append(sc.Waypoint("teleport", x=1, y=1)),
            "unknown action",
        ),
        (
            lambda s: s.trajectory.waypoints.append(sc.Waypoint("pause", duration_s=-2.0)),
            "duration",
        ),
        (lambda s: setattr(s.trajectory, "speed_mps", 0.0), "speed"),
        (
            lambda s: s.trajectory.waypoints.__setitem__(
                0, sc.Waypoint("drive", x=10.0, y=10.0)
            ),
            "start",
        ),
    ],
)
def test_validation_rejects(mutate, match):
    scene = make_scene()
    mutate(scene)
    with pytest.raises(sc.SceneError, match=match):
        scene.validate()


def test_validation_rejects_out_of_extent():
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=10.0, y=10.0, height=4.5),
        sc.Waypoint("drive", x=150.0, y=10.0),
    ])
    with pytest.raises(sc.SceneError, match="extent"):
        scene.validate()


def test_pose_sampling_drive_counts_and_spacing():
    # 10 m at 0.5 m/s is 20 s: poses at 0.0, 0.1, ..., 20.0.
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=10.0, y=10.0, height=4.5),
        sc.Waypoint("drive", x=20.0, y=10.0),
    ])
    pos, hdg, ts = sc.sample_ap_pose_arrays(scene.trajectory)
    assert len(ts) == len(pos) == len(hdg) == 201
    assert ts[0] == 0.0
    assert ts[-1] == pytest.approx(20.0)
    assert ts[137] == pytest.approx(13.7)
    steps = np.linalg.norm(np.diff(pos, axis=0), axis=1)
    np.testing.assert_allclose(steps, 0.05, atol=1e-9)  # 5 cm per capture
    np.testing.assert_allclose(pos[-1], [20.0, 10.0, 4.5], atol=1e-9)
    assert all(h == pytest.approx(0.0) for h in hdg)


def test_pose_sampling_mast_raise():
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=10.0, y=10.0, height=4.0),
        sc.Waypoint("raise", height=13.0),
    ])
    pos, _, _ = sc.sample_ap_pose_arrays(scene.trajectory)
    # Full 9 m travel at the default 40 s full-travel time.
    assert len(pos) == 401
    np.testing.assert_allclose(pos[:, 2], 4.0 + 0.225 * 0.1 * np.arange(401), atol=1e-9)
    np.testing.assert_allclose(pos[:, :2], np.tile([10.0, 10.0], (401, 1)), atol=1e-12)


def test_pose_sampling_pause_and_concatenation():
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=0.0, y=0.0, height=4.5),
        sc.Waypoint("drive", x=5.0, y=0.0),
        sc.Waypoint("pause", duration_s=2.0),
        sc.Waypoint("drive", x=5.0, y=5.0),
    ])
    pos, hdg, _ = sc.sample_ap_pose_arrays(scene.trajectory)
    assert len(pos) == 221  # 10 s + 2 s + 10 s at 10 Hz, inclusive
    np.testing.assert_allclose(pos[100:121, :2], np.tile([5.0, 0.0], (21, 1)), atol=1e-9)
    # Heading: east during the first drive, held through the pause, then north.
    np.testing.assert_allclose(hdg[:121], 0.0, atol=1e-12)
    np.testing.assert_allclose(hdg[121:], np.pi / 2, atol=1e-12)


def test_pose_on_corner_takes_completed_heading():
    scene = make_scene(waypoints=[
        sc.Waypoint("start", x=0.0, y=0.0, height=4.5),
        sc.Waypoint("drive", x=5.0, y=0.0),
        sc.Waypoint("drive", x=5.0, y=5.0),
    ])
    _, hdg, _ = sc.sample_ap_pose_arrays(scene.trajectory)
    assert hdg[100] == pytest.approx(0.0)
    assert hdg[101] == pytest.approx(np.pi / 2)


def test_empty_trajectory_rejected():
    traj = sc.Trajectory(waypoints=[sc.Waypoint("start", x=0.0, y=0.0, height=4.5)])
    with pytest.raises(sc.SceneError, match="zero duration"):
        sc.sample_ap_pose_arrays(traj)


def classify(scene, ap, ue):
    """classify_links_batch on the single AP position ap (3,)."""
    return sc.LinkClass(int(sc.classify_links_batch(scene, np.asarray(ap)[None, :], ue)[0]))


def test_classify_link_basic(basic_scene):
    ue = basic_scene.ue_sites[0].positions_m
    # Straight through the building.
    assert classify(basic_scene, np.array([50.0, 10.0, 4.5]), ue[6]) == sc.LinkClass.NLOS
    # Off to the side.
    assert classify(basic_scene, np.array([10.0, 10.0, 4.5]), ue[0]) == sc.LinkClass.LOS


def test_classify_link_foliage_and_precedence():
    blob = sc.FoliageBlob(center_m=np.array([30.0, 35.0, 5.0]), radius_m=3.0)
    scene = make_scene(foliage=[blob])
    ap = np.array([30.0, 10.0, 4.5])
    ue = np.array([30.0, 60.0, 1.0])
    assert classify(scene, ap, ue) == sc.LinkClass.OLOS
    # A building in the same line wins over foliage.
    ap2 = np.array([50.0, 10.0, 4.5])
    ue2 = np.array([50.0, 60.0, 1.0])
    scene2 = make_scene(foliage=[sc.FoliageBlob(center_m=np.array([50.0, 20.0, 4.0]), radius_m=3.0)])
    assert classify(scene2, ap2, ue2) == sc.LinkClass.NLOS


def test_classify_link_clears_low_roof():
    low = sc.Building(
        building_id="low",
        footprint=np.array([[40.0, 30.0], [60.0, 30.0], [60.0, 50.0], [40.0, 50.0]]),
        height_m=3.0,
    )
    scene = make_scene(buildings=[low])
    ap = np.array([50.0, 10.0, 13.0])
    ue = np.array([50.0, 60.0, 1.0])
    # From 13 m the ray passes over the 3 m roof (z is 8.2..3.4 m there).
    assert classify(scene, ap, ue) == sc.LinkClass.LOS
    assert classify(scene, np.array([50.0, 10.0, 4.5]), ue) == sc.LinkClass.NLOS


def test_segment_building_intersection(basic_scene):
    (b,) = basic_scene.buildings
    chord = b.blockage_chords(np.array([50.0, 10.0, 2.0]), np.array([50.0, 60.0, 2.0]))
    # In at y = 30, out at y = 50.
    np.testing.assert_allclose(chord, [20.0], atol=1e-9)


def test_segment_building_intersection_over_roof(basic_scene):
    (b,) = basic_scene.buildings
    chord = b.blockage_chords(np.array([50.0, 10.0, 25.0]), np.array([50.0, 60.0, 25.0]))
    assert chord.tolist() == [0.0]


def test_foliage_penetration_loss_split_rates():
    blob = sc.FoliageBlob(
        center_m=np.array([0.0, 0.0, 0.0]),
        radius_m=4.0,
        attenuation_db_per_m=1.0,
        core_radius_m=2.0,
        core_attenuation_db_per_m=4.0,
    )
    p0 = np.array([[-10.0, 0.0, 0.0]])
    p1 = np.array([[10.0, 0.0, 0.0]])
    # Through the centre: 8 m outer chord of which 4 m is core.
    loss = blob.penetration_loss_db(p0, p1)
    assert loss[0] == pytest.approx(1.0 * 4.0 + 4.0 * 4.0)
    # Missing the core (offset 3 m): pure shell rate.
    chord = 2.0 * np.sqrt(16.0 - 9.0)
    loss = blob.penetration_loss_db(
        np.array([[-10.0, 3.0, 0.0]]), np.array([[10.0, 3.0, 0.0]])
    )
    assert loss[0] == pytest.approx(chord, abs=1e-9)


def test_site_lookup(basic_scene):
    assert basic_scene.site(0).site_id == "site0"
    assert basic_scene.site("site0") is basic_scene.site(0)
    with pytest.raises(KeyError):
        basic_scene.site("nope")
