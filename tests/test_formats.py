"""Round-trip and header-diagnostic tests for the binary containers."""

import struct

import numpy as np
import pytest

import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.scene as sc
import cfmm.sounder as sd
import cfmm.waveform as wf

from conftest import make_scene


def small_matrix(rng, m=5, u=3, b=40) -> pl.PDPMatrix:
    values = rng.random((m, u, b)).astype(np.float32)
    mask = rng.random((m, u, b)) < 0.5
    values[~mask] = 0.0
    return pl.PDPMatrix(
        values=values, mask=mask,
        noise_level_db=rng.normal(size=(m, u)),
        threshold_db=rng.normal(size=(m, u)),
        bin_width_s=2.856122813e-9 / 10, oversample_factor=10,
    )


def write_whole(path, mat: pl.PDPMatrix) -> None:
    m, u, b = mat.values.shape
    fm.MatrixWriter(path, m, u, b, mat.bin_width_s, mat.oversample_factor).write_chunk(
        0, mat.values, mat.mask)


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = small_matrix(rng)
        path = tmp_path / "a.cfmm"
        write_whole(path, mat)
        back = fm.read_matrix(path)
        np.testing.assert_array_equal(back.values, mat.values)
        np.testing.assert_array_equal(back.mask, mat.mask)
        assert back.bin_width_s == mat.bin_width_s
        assert back.oversample_factor == 10
        assert back.noise_level_db is None
        back.validate()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0), 2, 2, 8))
        raw = path.read_bytes()
        assert raw[:4] == b"CFMM"
        assert int.from_bytes(raw[4:8], "little") == 1
        dims = np.frombuffer(raw[8:20], dtype="<u4")
        np.testing.assert_array_equal(dims, [2, 2, 8])
        width = np.frombuffer(raw[20:28], dtype="<f8")[0]
        assert width == pytest.approx(2.856122813e-10)
        assert int.from_bytes(raw[28:32], "little") == 10
        # payload: 2*2*8 float32 then ceil(32/8) mask bytes
        assert len(raw) == 32 + 32 * 4 + 4

    def test_mask_bit_order(self, tmp_path):
        mat = small_matrix(np.random.default_rng(1), 1, 1, 8)
        mat.mask[:] = [True, False, False, True, False, False, False, False]
        mat.values[~mat.mask] = 0.0
        path = tmp_path / "a.cfmm"
        write_whole(path, mat)
        assert path.read_bytes()[-1] == 0b00001001

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.FormatError, match="magic b'XXXX'"):
            fm.read_matrix(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.FormatError, match="version 9 unsupported"):
            fm.read_matrix(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])
        with pytest.raises(fm.FormatError, match="truncated mask"):
            fm.read_matrix(path)

    def test_chunked_writer_matches_one_shot(self, tmp_path):
        rng = np.random.default_rng(5)
        mat = small_matrix(rng, m=11, u=2, b=20)  # 40 entries/capture: byte aligned
        # The documented layout: header, float32 values, then the mask
        # packed least significant bit first.
        expected = (struct.pack("<4sIIIIdI", b"CFMM", 1, 11, 2, 20, mat.bin_width_s, 10)
                    + mat.values.astype("<f4").tobytes()
                    + np.packbits(mat.mask.reshape(-1), bitorder="little").tobytes())
        chunked = tmp_path / "chunked.cfmm"
        w = fm.MatrixWriter(chunked, 11, 2, 20, mat.bin_width_s, 10)
        for a, b in [(5, 11), (0, 4), (4, 5)]:
            w.write_chunk(a, mat.values[a:b], mat.mask[a:b])
        assert chunked.read_bytes() == expected

    def test_chunked_writer_rejects_misaligned_rows(self, tmp_path):
        with pytest.raises(ValueError, match="divisible by 8"):
            fm.MatrixWriter(tmp_path / "x.cfmm", 4, 3, 10, 1e-9, 10)


@pytest.fixture(scope="module")
def plan():
    scene = make_scene()
    waveform = wf.WaveformSpec()
    imp = sd.ImpairmentConfig()
    return sd.plan_campaign(scene, waveform, imp, seed=21, pose_slice=slice(0, 6))


@pytest.fixture(scope="module")
def capture_path(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("cap") / "campaign.cfmc"
    link = sc.classify_link_matrix(plan.scene, plan.positions, plan.ue_positions)
    writer = fm.CaptureWriter(path, plan, link)
    for a, b in [(0, 2), (2, 6)]:
        writer.write_chunk(a, sd.synthesize_chunk(plan, a, b))
    return path


class TestCaptureFile:
    def test_metadata_round_trip(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        assert cf.n_captures == 6
        assert cf.n_ues == plan.n_ues
        assert cf.n_reps_stored == 1
        assert cf.n_subcarriers == 2801
        assert cf.subcarrier_spacing_hz == 125e3
        assert cf.capture_interval_s == pytest.approx(0.1)
        assert cf.n_reps_averaged == 10
        assert cf.seed == 21
        assert cf.site_id == plan.site_id
        np.testing.assert_array_equal(cf.timestamps, plan.timestamps)
        np.testing.assert_array_equal(cf.positions, plan.positions)
        np.testing.assert_array_equal(cf.headings, plan.headings)
        np.testing.assert_array_equal(cf.attenuation_db, plan.attenuation_db)
        np.testing.assert_array_equal(cf.measured_power_dbm, plan.measured_power_dbm)
        np.testing.assert_array_equal(cf.ue_positions, plan.ue_positions)
        np.testing.assert_array_equal(cf.cal_response, plan.cal.response)
        np.testing.assert_array_equal(cf.reference_tones, plan.reference_tones)

    def test_link_class_stored(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        link = sc.classify_link_matrix(plan.scene, plan.positions, plan.ue_positions)
        np.testing.assert_array_equal(cf.link_class, link.astype(np.uint8))

    def test_spectra_match_synthesis(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        fresh = sd.synthesize_chunk(plan, 0, 6)
        got = cf.spectra(0, 6)
        assert got.dtype == np.complex64
        np.testing.assert_array_equal(got, fresh.astype(np.complex64))

    def test_spectra_range_read(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        np.testing.assert_array_equal(cf.spectra(2, 5), cf.spectra(0, 6)[2:5])

    def test_source_protocol_processes(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        params = pl.PipelineParams()
        from_file = pl.process_campaign(cf, params, chunk_size=4)
        from_plan = pl.process_campaign(pl.PlanSource(plan), params, chunk_size=4)
        np.testing.assert_array_equal(from_file.values, from_plan.values)
        np.testing.assert_array_equal(from_file.mask, from_plan.mask)

    def test_bad_magic(self, capture_path, tmp_path):
        raw = bytearray(capture_path.read_bytes()[: 200])
        raw[:4] = b"ZZZZ"
        bad = tmp_path / "bad.cfmc"
        bad.write_bytes(bytes(raw))
        with pytest.raises(fm.FormatError, match="magic b'ZZZZ'"):
            fm.open_captures(bad)

    def test_truncated_metadata(self, capture_path, tmp_path):
        bad = tmp_path / "short.cfmc"
        bad.write_bytes(capture_path.read_bytes()[: 60])
        with pytest.raises(fm.FormatError, match="truncated"):
            fm.open_captures(bad)
