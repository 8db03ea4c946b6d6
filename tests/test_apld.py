"""Tests for APLD assembly, first-peak tracking, and exports."""

from types import SimpleNamespace

import numpy as np
import pytest

import cfmm.apld as ap
import cfmm.pipeline as pl
import cfmm.raypaths as rp
import cfmm.scene as sc
import cfmm.sounder as sd
import cfmm.waveform as wf
from cfmm.constants import SPEED_OF_LIGHT

from conftest import make_scene


def toy_matrix(m=6, u=2, b=50):
    rng = np.random.default_rng(11)
    values = rng.random((m, u, b)).astype(np.float32)
    mask = np.ones((m, u, b), dtype=bool)
    return pl.PDPMatrix(
        values=values, mask=mask,
        noise_level_db=np.full((m, u), -100.0),
        threshold_db=np.full((m, u), -93.0),
        bin_width_s=1e-9, oversample_factor=10,
    )


def toy_meta(m=6):
    return SimpleNamespace(
        timestamps=0.1 * np.arange(m),
        positions=np.column_stack([np.arange(m), np.zeros(m), np.full(m, 4.5)]),
        attenuation_db=np.zeros(m),
        link_class=np.tile(np.array([0, 2], dtype=np.uint8), (m, 1)),
    )


class TestAssemble:
    def test_join(self):
        mat, meta = toy_matrix(), toy_meta()
        out = ap.assemble_apld(mat, meta, ue_id=1)
        assert out.ue_id == 1
        np.testing.assert_array_equal(out.values, mat.values[:, 1])
        np.testing.assert_array_equal(out.mask, mat.mask[:, 1])
        np.testing.assert_array_equal(out.timestamps, meta.timestamps)
        np.testing.assert_array_equal(out.positions, meta.positions)
        np.testing.assert_array_equal(out.link_class, np.full(6, 2))
        np.testing.assert_array_equal(out.threshold_db, np.full(6, -93.0))
        assert out.bin_width_s == 1e-9

    def test_threshold_nan_when_absent(self):
        mat = toy_matrix()
        mat.threshold_db = None
        out = ap.assemble_apld(mat, toy_meta(), ue_id=0)
        assert np.isnan(out.threshold_db).all()

    def test_empty_campaign(self):
        mat = toy_matrix(m=0)
        with pytest.raises(ValueError, match="empty campaign"):
            ap.assemble_apld(mat, toy_meta(m=0), 0)

    def test_capture_count_mismatch_lists_gaps(self):
        with pytest.raises(ValueError, match="missing captures 4, 5"):
            ap.assemble_apld(toy_matrix(m=6), toy_meta(m=4), 0)

    def test_bad_ue(self):
        with pytest.raises(ValueError, match="ue_id 5 out of range"):
            ap.assemble_apld(toy_matrix(), toy_meta(), 5)


def flat_apld(values, mask):
    values = np.asarray(values, dtype=np.float32)[None, :]
    mask = np.asarray(mask, dtype=bool)[None, :]
    m = 1
    return ap.APLDPDP(
        ue_id=0, values=values * mask, mask=mask, bin_width_s=1e-9,
        oversample_factor=10, timestamps=np.zeros(m),
        positions=np.zeros((m, 3)), link_class=np.zeros(m, dtype=np.uint8),
        attenuation_db=np.zeros(m), threshold_db=np.zeros(m),
    )


class TestFirstPeakTrack:
    def test_earliest_local_max(self):
        v = np.zeros(20)
        v[[5, 6, 7]] = [1.0, 3.0, 1.5]  # lobe peaking at bin 6
        v[[12, 13, 14]] = [2.0, 9.0, 2.0]  # stronger later lobe
        out = flat_apld(v, v > 0)
        delays, powers = ap.first_peak_track(out)
        assert delays[0] == pytest.approx(6e-9)
        assert powers[0] == pytest.approx(3.0)

    def test_isolated_bin_is_a_peak(self):
        v = np.zeros(10)
        v[4] = 2.0
        delays, powers = ap.first_peak_track(flat_apld(v, v > 0))
        assert delays[0] == pytest.approx(4e-9)
        assert powers[0] == pytest.approx(2.0)

    def test_rising_edge_not_tracked(self):
        v = np.zeros(10)
        v[3:6] = [1.0, 2.0, 3.0]  # monotone rise peaking at 5
        delays, _ = ap.first_peak_track(flat_apld(v, v > 0))
        assert delays[0] == pytest.approx(5e-9)

    def test_empty_row_nan(self):
        delays, powers = ap.first_peak_track(flat_apld(np.zeros(10), np.zeros(10)))
        assert np.isnan(delays[0]) and np.isnan(powers[0])

    def test_below_dynamic_range_skipped(self):
        v = np.zeros(200)
        v[70] = 1.0
        v[37] = 1e-7  # -70 dB bump: window-sidelobe residue, not an arrival
        delays, _ = ap.first_peak_track(flat_apld(v, v > 0))
        assert delays[0] == pytest.approx(70e-9)

    def test_weak_arrival_inside_range_kept(self):
        v = np.zeros(200)
        v[60] = 1.0
        v[30] = 1e-2  # -20 dB, within the tracking range
        delays, powers = ap.first_peak_track(flat_apld(v, v > 0))
        assert delays[0] == pytest.approx(30e-9)
        assert powers[0] == pytest.approx(1e-2)

    def test_range_none_tracks_every_survivor(self):
        v = np.zeros(200)
        v[60] = 1.0
        v[30] = 1e-7
        delays, _ = ap.first_peak_track(flat_apld(v, v > 0), dynamic_range_db=None)
        assert delays[0] == pytest.approx(30e-9)

    def test_mask_gates_candidates(self):
        v = np.zeros(10)
        v[2] = 5.0
        v[7] = 1.0
        mask = v > 0
        mask[2] = False
        apld = flat_apld(v, mask)
        delays, powers = ap.first_peak_track(apld)
        assert delays[0] == pytest.approx(7e-9)
        assert powers[0] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def campaign():
    scene = make_scene()
    plan = sd.plan_campaign(scene, wf.WaveformSpec(), sd.ImpairmentConfig(),
                            seed=33, pose_slice=slice(0, 12))
    matrix = pl.process_campaign(pl.PlanSource(plan), pl.PipelineParams(),
                                 chunk_size=8)
    return plan, matrix


class TestOnCampaign:
    def test_los_rows_track_geometry(self, campaign):
        plan, matrix = campaign
        apld = ap.assemble_apld(matrix, plan, ue_id=0)
        delays, _ = ap.first_peak_track(apld)
        d = np.linalg.norm(plan.positions - plan.ue_positions[0], axis=1)
        los = apld.link_class == int(sc.LinkClass.LOS)
        assert los.any()
        expect = d[los] / SPEED_OF_LIGHT
        np.testing.assert_allclose(delays[los], expect, atol=1.01 * apld.bin_width_s)

    def test_first_peak_leads_survivors(self, campaign):
        plan, matrix = campaign
        params = pl.PipelineParams()
        lobe = 4 * params.pad_factor  # pre-cursor guard width, oversampled
        apld = ap.assemble_apld(matrix, plan, ue_id=0)
        delays, _ = ap.first_peak_track(apld)
        for i in range(apld.n_rows):
            surv = np.flatnonzero(apld.mask[i])
            if surv.size == 0 or np.isnan(delays[i]):
                continue
            peak_bin = int(round(delays[i] / apld.bin_width_s))
            assert surv.min() >= peak_bin - lobe

    def test_link_classes_match_scene(self, campaign):
        plan, matrix = campaign
        apld = ap.assemble_apld(matrix, plan, ue_id=2)
        expect = rp.trace_paths_batch(make_scene(), plan.positions, plan.headings,
                                      plan.ue_positions[2], rp.RaypathConfig()).link_class
        np.testing.assert_array_equal(apld.link_class, expect)


class TestExports:
    def test_heatmap_layout_and_determinism(self, tmp_path):
        v = np.zeros((3, 8), dtype=np.float32)
        mask = np.zeros((3, 8), dtype=bool)
        v[0, 2], mask[0, 2] = 1.0, True  # 0 dB: top of scale
        v[1, 4], mask[1, 4] = 1e-3, True  # -30 dB: bottom edge, still visible
        v[2, 6], mask[2, 6] = 1e-4, True  # -40 dB: clipped to black
        apld = ap.APLDPDP(
            ue_id=0, values=v, mask=mask, bin_width_s=1e-9, oversample_factor=10,
            timestamps=np.zeros(3), positions=np.zeros((3, 3)),
            link_class=np.zeros(3, dtype=np.uint8), attenuation_db=np.zeros(3),
            threshold_db=np.zeros(3),
        )
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        ap.export_heatmap(apld, p1)
        ap.export_heatmap(apld, p2)
        raw = p1.read_bytes()
        assert raw == p2.read_bytes()
        header = b"P5\n8 3\n255\n"
        assert raw.startswith(header)
        img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(3, 8)
        assert img[0, 2] == 255
        assert img[1, 4] == 1
        assert img[2, 6] == 0  # below dynamic range: black
        assert img[mask == 0].max() == 0  # masked bins black

    def test_heatmap_all_masked(self, tmp_path):
        apld = flat_apld(np.zeros(5), np.zeros(5))
        path = tmp_path / "z.pgm"
        ap.export_heatmap(apld, path)
        raw = path.read_bytes()
        assert raw.endswith(b"\x00" * 5)

    def test_annotations_csv(self, tmp_path):
        import csv as csvmod

        meta = toy_meta()
        apld = ap.assemble_apld(toy_matrix(), meta, ue_id=1)
        path = tmp_path / "ann.csv"
        ap.write_annotations(apld, path)
        with open(path) as fh:
            rows = list(csvmod.DictReader(fh))
        assert len(rows) == 6
        assert rows[0]["link_class"] == "NLOS"
        assert rows[3]["capture_index"] == "3"
        assert float(rows[3]["timestamp_s"]) == pytest.approx(0.3)
        assertion = float(rows[2]["pos_x_m"])
        assert assertion == pytest.approx(2.0)
        assert rows[1]["attenuation_db"] == "0"
        assert float(rows[0]["threshold_db"]) == pytest.approx(-93.0)
