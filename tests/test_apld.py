"""Tests for APLD assembly, first-peak tracking, and exports."""

from types import SimpleNamespace

import numpy as np
import pytest

import cfmm.apld as ap
import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.raypaths as rp
import cfmm.scene as sc
import cfmm.sounder as sd
import cfmm.waveform as wf
from cfmm.constants import SPEED_OF_LIGHT

from conftest import PlanSource, dense, first_poses, make_scene, process_matrix, write_matrix


def dense_matrix(tmp_path, values, mask, noise_db=-100.0, delta_n_db=7.0,
                 bin_width_s=1e-9) -> fm.MatrixFile:
    """Matrix file of dense (M, U, B) profiles, in tmp_path; masked bins are
    zeroed."""
    values = np.asarray(values, dtype=np.float32) * mask
    m, u, _ = values.shape
    return write_matrix(tmp_path / "dense.cfmm", values, mask, np.full((m, u), noise_db),
                        delta_n_db, bin_width_s)


def toy_matrix(tmp_path, m=6, u=2, b=50):
    rng = np.random.default_rng(11)
    return dense_matrix(tmp_path, rng.random((m, u, b)), np.ones((m, u, b), dtype=bool))


def toy_meta(m=6):
    return SimpleNamespace(
        timestamps=0.1 * np.arange(m),
        positions=np.column_stack([np.arange(m), np.zeros(m), np.full(m, 4.5)]),
        attenuation_db=np.zeros(m),
        link_class=np.tile(np.array([0, 2], dtype=np.uint8), (m, 1)),
    )


class TestAssemble:
    def test_join(self, tmp_path):
        mat, meta = toy_matrix(tmp_path), toy_meta()
        out = ap.assemble_apld(mat, meta, ue_id=1)
        assert out.ue_id == 1
        assert out.matrix is mat
        assert (out.n_rows, out.n_bins) == (6, 50)
        np.testing.assert_array_equal(out.timestamps, meta.timestamps)
        np.testing.assert_array_equal(out.positions, meta.positions)
        np.testing.assert_array_equal(out.link_class, np.full(6, 2))
        np.testing.assert_array_equal(out.threshold_db, np.full(6, -93.0))
        assert out.bin_width_s == 1e-9

    def test_threshold_owns_its_column(self, tmp_path):
        # Each UE keeps its own M thresholds, not a view that holds a whole
        # (M, U) table alive.
        mat, meta = toy_matrix(tmp_path), toy_meta()
        for j in range(mat.n_ues):
            threshold = ap.assemble_apld(mat, meta, j).threshold_db
            assert threshold.base is None and threshold.nbytes == 8 * mat.n_captures
            np.testing.assert_array_equal(threshold, mat.threshold_db[:, j])

    def test_capture_count_mismatch_lists_gaps(self, tmp_path):
        with pytest.raises(ValueError, match="missing captures 4, 5"):
            ap.assemble_apld(toy_matrix(tmp_path, m=6), toy_meta(m=4), 0)

    @pytest.mark.parametrize("n_meta", [1, 3], ids=["fewer", "more"])
    def test_ue_count_mismatch(self, tmp_path, n_meta):
        meta = toy_meta()
        meta.link_class = np.zeros((6, n_meta), dtype=np.uint8)
        with pytest.raises(ValueError, match=f"matrix has 2 UEs, metadata has {n_meta}"):
            ap.assemble_apld(toy_matrix(tmp_path), meta, 0)

    def test_bad_ue(self, tmp_path):
        with pytest.raises(ValueError, match="ue_id 5 out of range"):
            ap.assemble_apld(toy_matrix(tmp_path), toy_meta(), 5)


def one_ue_meta(m):
    return SimpleNamespace(timestamps=np.zeros(m), positions=np.zeros((m, 3)),
                           attenuation_db=np.zeros(m),
                           link_class=np.zeros((m, 1), dtype=np.uint8))


def flat_apld(tmp_path, values, mask):
    """One UE, one capture."""
    mat = dense_matrix(tmp_path, np.asarray(values)[None, None],
                       np.asarray(mask, dtype=bool)[None, None])
    return ap.assemble_apld(mat, one_ue_meta(1), 0)


def dense_track(values, mask, bin_width_s, dynamic_range_db):
    """First-peak track over dense (M, B) profiles: the bin-by-bin oracle."""
    v = values.astype(np.float64)
    padded = np.pad(v, ((0, 0), (1, 1)))
    is_max = (padded[:, 1:-1] >= padded[:, :-2]) & (padded[:, 1:-1] >= padded[:, 2:])
    cand = mask & is_max
    row_top = np.where(mask, v, 0.0).max(axis=1, keepdims=True)
    cand &= v * 10.0 ** (dynamic_range_db / 10.0) >= row_top
    delays = np.full(v.shape[0], np.nan)
    powers = np.full(v.shape[0], np.nan)
    rows = np.flatnonzero(cand.any(axis=1))
    first = cand[rows].argmax(axis=1)
    delays[rows] = first * bin_width_s
    powers[rows] = v[rows, first]
    return delays, powers


class TestFirstPeakTrack:
    def test_earliest_local_max(self, tmp_path):
        v = np.zeros(20)
        v[[5, 6, 7]] = [1.0, 3.0, 1.5]  # lobe peaking at bin 6
        v[[12, 13, 14]] = [2.0, 9.0, 2.0]  # stronger later lobe
        out = flat_apld(tmp_path, v, v > 0)
        delays, powers = ap.first_peak_track(out)
        assert delays[0] == pytest.approx(6e-9)
        assert powers[0] == pytest.approx(3.0)

    def test_isolated_bin_is_a_peak(self, tmp_path):
        v = np.zeros(10)
        v[4] = 2.0
        delays, powers = ap.first_peak_track(flat_apld(tmp_path, v, v > 0))
        assert delays[0] == pytest.approx(4e-9)
        assert powers[0] == pytest.approx(2.0)

    def test_rising_edge_not_tracked(self, tmp_path):
        v = np.zeros(10)
        v[3:6] = [1.0, 2.0, 3.0]  # monotone rise peaking at 5
        delays, _ = ap.first_peak_track(flat_apld(tmp_path, v, v > 0))
        assert delays[0] == pytest.approx(5e-9)

    def test_empty_row_nan(self, tmp_path):
        delays, powers = ap.first_peak_track(flat_apld(tmp_path, np.zeros(10), np.zeros(10)))
        assert np.isnan(delays[0]) and np.isnan(powers[0])

    def test_below_dynamic_range_skipped(self, tmp_path):
        v = np.zeros(200)
        v[70] = 1.0
        v[37] = 1e-7  # -70 dB bump: window-sidelobe residue, not an arrival
        delays, _ = ap.first_peak_track(flat_apld(tmp_path, v, v > 0))
        assert delays[0] == pytest.approx(70e-9)

    def test_weak_arrival_inside_range_kept(self, tmp_path):
        v = np.zeros(200)
        v[60] = 1.0
        v[30] = 1e-2  # -20 dB, within the tracking range
        delays, powers = ap.first_peak_track(flat_apld(tmp_path, v, v > 0))
        assert delays[0] == pytest.approx(30e-9)
        assert powers[0] == pytest.approx(1e-2)

    def test_mask_gates_candidates(self, tmp_path):
        v = np.zeros(10)
        v[2] = 5.0
        v[7] = 1.0
        mask = v > 0
        mask[2] = False
        apld = flat_apld(tmp_path, v, mask)
        delays, powers = ap.first_peak_track(apld)
        assert delays[0] == pytest.approx(7e-9)
        assert powers[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("dynamic_range_db", [30.0])  # the oracle's tracking range
    def test_matrix_file_matches_read_matrix(self, tmp_path, monkeypatch, dynamic_range_db):
        rng = np.random.default_rng(8)
        m, u, b = 7, 3, 40
        values = (10.0 ** rng.uniform(-5, 0, (m, u, b))).astype(np.float32)
        mask = rng.random((m, u, b)) < 0.5
        mask[:, 2] = False  # a UE with nothing surviving
        # Capture 4, UE 0 keeps one lobe, bins 5..9, peaking at bin 7; it is
        # stored below as the touching runs (5, 2) and (7, 3).
        mask[4, 0] = False
        mask[4, 0, 5:10] = True
        values[4, 0, 5:10] = [0.5, 0.7, 1.0, 0.7, 0.5]
        values[~mask] = 0.0
        rows = pl.SparseRows.encode(mask, values[mask], np.zeros((m, u)))
        k = int(rows.n_runs[:4 * u].sum())  # the first run of row (4, 0)
        assert (rows.starts[k], rows.lengths[k]) == (5, 5)
        rows.starts = np.insert(rows.starts, k + 1, 7)
        rows.lengths = np.insert(rows.lengths, k, 2)
        rows.lengths[k + 1] = 3
        rows.n_runs[4 * u] += 1
        path = tmp_path / "m.cfmm"
        w = fm.MatrixWriter(path, m, u, b, 1e-9, 10, 7.0)
        w.write_chunk(0, rows)
        w.close()

        stored = fm.read_matrix(path)
        assert stored.n_runs[4 * u] == 2
        back_values, back_mask = dense(stored)
        meta = toy_meta(m)
        meta.link_class = np.zeros((m, u), dtype=np.uint8)
        aplds = [ap.assemble_apld(stored, meta, j) for j in range(u)]
        whole = [ap.first_peak_track(a) for a in aplds]  # one block
        monkeypatch.setattr(fm, "BLOCK_CAPTURES", 3)  # blocks of 3, 3 and 1 captures
        for j in range(u):
            got = ap.first_peak_track(aplds[j])
            oracle = dense_track(back_values[:, j], back_mask[:, j], 1e-9, dynamic_range_db)
            for g, w_, o in zip(got, whole[j], oracle):
                np.testing.assert_array_equal(g, w_)  # NaN where the other is NaN
                np.testing.assert_array_equal(g, o)
        assert np.isnan(got[0]).all()  # UE 2 keeps nothing
        delays, _ = ap.first_peak_track(aplds[0])
        assert delays[4] == 7 * 1e-9  # the lobe peak, not the end of its first run


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    plan = sd.plan_campaign(first_poses(make_scene(), 12), wf.WaveformSpec(),
                            sd.ImpairmentConfig(), seed=33)
    matrix = process_matrix(PlanSource(plan), tmp_path_factory.mktemp("campaign"),
                            pl.PipelineParams(), chunk_size=8)
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
        mask = dense(matrix)[1]
        for i in range(apld.n_rows):
            surv = np.flatnonzero(mask[i, 0])
            if surv.size == 0 or np.isnan(delays[i]):
                continue
            peak_bin = int(round(delays[i] / apld.bin_width_s))
            assert surv.min() >= peak_bin - lobe

    def test_link_classes_match_scene(self, campaign):
        plan, matrix = campaign
        apld = ap.assemble_apld(matrix, plan, ue_id=2)
        scene = first_poses(make_scene(), 12)  # the campaign's route
        positions, headings, _ = sc.sample_ap_pose_arrays(scene.trajectory)
        np.testing.assert_array_equal(positions, plan.positions)
        expect = rp.trace_paths_batch(scene, positions, headings,
                                      plan.ue_positions[2]).link_class
        np.testing.assert_array_equal(apld.link_class, expect)


class TestExports:
    def test_heatmap_layout_and_determinism(self, tmp_path):
        v = np.zeros((3, 8), dtype=np.float32)
        mask = np.zeros((3, 8), dtype=bool)
        v[0, 2], mask[0, 2] = 1.0, True  # 0 dB: top of scale
        v[1, 4], mask[1, 4] = 1e-3, True  # -30 dB: bottom edge, still visible
        v[2, 6], mask[2, 6] = 1e-4, True  # -40 dB: clipped to black
        mat = dense_matrix(tmp_path, v[:, None], mask[:, None])
        apld = ap.assemble_apld(mat, one_ue_meta(3), 0)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        ap.export_heatmap([apld], [p1])
        ap.export_heatmap([apld], [p2])
        raw = p1.read_bytes()
        assert raw == p2.read_bytes()
        header = b"P5\n8 3\n255\n"
        assert raw.startswith(header)
        img = np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(3, 8)
        assert img[0, 2] == 255
        assert img[1, 4] == 1
        assert img[2, 6] == 0  # below dynamic range: black
        assert img[mask == 0].max() == 0  # masked bins black

    def test_heatmap_from_matrix_file_matches_dense(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(4)
        m, u, b = 7, 3, 30
        values = (10.0 ** rng.uniform(-5, 0, (m, u, b))).astype(np.float32)
        mask = rng.random((m, u, b)) < 0.4
        mask[:, 2] = False  # a UE with nothing surviving
        values[~mask] = 0.0
        stored = write_matrix(tmp_path / "m.cfmm", values, mask, np.full((m, u), -100.0))
        meta = toy_meta(m)
        meta.link_class = np.zeros((m, u), dtype=np.uint8)
        for j in range(u):  # one block
            ap.export_heatmap([ap.assemble_apld(stored, meta, j)], [tmp_path / f"d{j}.pgm"])
        monkeypatch.setattr(fm, "BLOCK_CAPTURES", 3)  # blocks of 3, 3 and 1 rows
        for j in range(u):
            a = tmp_path / f"s{j}.pgm"
            ap.export_heatmap([ap.assemble_apld(stored, meta, j)], [a])
            assert a.read_bytes() == (tmp_path / f"d{j}.pgm").read_bytes()
        # All UEs at once, as export writes them: each block is parsed once
        # in the peak pass and once in the render pass.
        reads = []
        real_rows = fm.MatrixFile.rows
        monkeypatch.setattr(fm.MatrixFile, "rows",
                            lambda self, m0, m1: reads.append(m0) or real_rows(self, m0, m1))
        together = [tmp_path / f"t{j}.pgm" for j in range(u)]
        ap.export_heatmap([ap.assemble_apld(stored, meta, j) for j in range(u)], together)
        assert reads == [0, 3, 6, 0, 3, 6]
        for j in range(u):
            assert together[j].read_bytes() == (tmp_path / f"d{j}.pgm").read_bytes()

    def test_heatmap_rejects_two_matrices(self, tmp_path):
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        a = flat_apld(tmp_path / "a", np.ones(5), np.ones(5))
        b = flat_apld(tmp_path / "b", np.ones(5), np.ones(5))
        paths = [tmp_path / "a.pgm", tmp_path / "b.pgm"]
        with pytest.raises(ValueError, match="more than one matrix"):
            ap.export_heatmap([a, b], paths)
        assert not any(p.exists() for p in paths)

    def test_heatmap_all_masked(self, tmp_path):
        apld = flat_apld(tmp_path, np.zeros(5), np.zeros(5))
        path = tmp_path / "z.pgm"
        ap.export_heatmap([apld], [path])
        raw = path.read_bytes()
        assert raw.endswith(b"\x00" * 5)

    def test_annotations_csv(self, tmp_path):
        import csv as csvmod

        meta = toy_meta()
        apld = ap.assemble_apld(toy_matrix(tmp_path), meta, ue_id=1)
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
