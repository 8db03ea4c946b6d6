"""Round-trip and header-diagnostic tests for the binary containers."""

import json
import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.sounder as sd
import cfmm.waveform as wf
from cfmm.cli import _matrix_header, main
from cfmm.config import load_config

from conftest import PlanSource, dense, first_poses, make_scene, process_matrix, write_matrix


def small_matrix(rng, m=5, u=3, b=40) -> SimpleNamespace:
    """Dense profiles with the fields of a matrix file, to write and compare."""
    values = rng.random((m, u, b)).astype(np.float32)
    mask = rng.random((m, u, b)) < 0.5
    values[~mask] = 0.0
    return SimpleNamespace(
        values=values, mask=mask,
        noise_level_db=rng.normal(size=(m, u)),
        threshold_db=rng.normal(size=(m, u)),
        bin_width_s=2.856122813e-9 / 10, oversample_factor=10,
    )


def chunk_rows(mat, a: int, b: int) -> pl.SparseRows:
    mask = mat.mask[a:b]
    return pl.SparseRows.encode(mask, mat.values[a:b][mask],
                                mat.noise_level_db[a:b], mat.threshold_db[a:b])


def write_whole(path, mat) -> None:
    write_matrix(path, mat.values, mat.mask, mat.noise_level_db, mat.threshold_db,
                 mat.bin_width_s, mat.oversample_factor)


def documented_layout(mat) -> bytes:
    """The version 2 bytes of mat, built row by row from the layout in the
    formats module docstring."""
    m, u, b = mat.values.shape
    records, ends, n_runs = [], [], []
    end = 32 + 28 * m * u
    for i in range(m):
        for j in range(u):
            keep = np.flatnonzero(mat.mask[i, j])
            runs = []
            for q in keep:
                if runs and runs[-1][0] + runs[-1][1] == q:
                    runs[-1][1] += 1
                else:
                    runs.append([int(q), 1])
            rec = (np.array(runs, dtype="<u4").tobytes()
                   + mat.values[i, j, keep].astype("<f4").tobytes())
            records.append(rec)
            end += len(rec)
            ends.append(end)
            n_runs.append(len(runs))
    return (struct.pack("<4sIIIIdI", b"CFMM", 2, m, u, b, mat.bin_width_s,
                        mat.oversample_factor)
            + mat.noise_level_db.astype("<f8").tobytes()
            + mat.threshold_db.astype("<f8").tobytes()
            + np.array(ends, dtype="<u8").tobytes()
            + np.array(n_runs, dtype="<u4").tobytes()
            + b"".join(records))


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mat = small_matrix(rng)
        mat.mask[2, 1] = False  # a row that keeps nothing
        mat.values[2, 1] = 0.0
        path = tmp_path / "a.cfmm"
        write_whole(path, mat)
        back = fm.read_matrix(path)
        values, mask = dense(back)
        np.testing.assert_array_equal(values, mat.values)
        np.testing.assert_array_equal(mask, mat.mask)
        np.testing.assert_array_equal(back.noise_level_db, mat.noise_level_db)
        np.testing.assert_array_equal(back.threshold_db, mat.threshold_db)
        assert back.bin_width_s == mat.bin_width_s
        assert back.oversample_factor == 10
        back.validate()

    def test_header_layout(self, tmp_path):
        path = tmp_path / "a.cfmm"
        mat = small_matrix(np.random.default_rng(0), 2, 2, 8)
        write_whole(path, mat)
        raw = path.read_bytes()
        assert raw[:4] == b"CFMM"
        assert int.from_bytes(raw[4:8], "little") == 2
        dims = np.frombuffer(raw[8:20], dtype="<u4")
        np.testing.assert_array_equal(dims, [2, 2, 8])
        width = np.frombuffer(raw[20:28], dtype="<f8")[0]
        assert width == pytest.approx(2.856122813e-10)
        assert int.from_bytes(raw[28:32], "little") == 10
        # 4 rows x 28 table bytes, then per row 8 bytes per run and 4 per value.
        runs = np.frombuffer(raw[32 + 4 * 24:32 + 4 * 28], dtype="<u4")
        assert len(raw) == 32 + 4 * 28 + 8 * runs.sum() + 4 * mat.mask.sum()
        ends = np.frombuffer(raw[32 + 4 * 16:32 + 4 * 24], dtype="<u8")
        assert ends[-1] == len(raw)

    def test_mask_bit_order(self, tmp_path):
        # The mask is stored as runs of surviving bins, first bin and length.
        mat = small_matrix(np.random.default_rng(1), 1, 1, 8)
        mat.mask[:] = [True, False, False, True, True, False, False, True]
        mat.values[~mat.mask] = 0.0
        path = tmp_path / "a.cfmm"
        write_whole(path, mat)
        record = path.read_bytes()[32 + 28:]
        np.testing.assert_array_equal(np.frombuffer(record[:24], dtype="<u4"),
                                      [0, 1, 3, 2, 7, 1])
        np.testing.assert_array_equal(np.frombuffer(record[24:], dtype="<f4"),
                                      mat.values[0, 0, [0, 3, 4, 7]])

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
        with pytest.raises(fm.FormatError, match="truncated row records"):
            fm.read_matrix(path)

    @pytest.mark.parametrize("section,cut", [
        ("matrix header", 20), ("noise_db table", 32 + 8 * 15 - 1),
        ("threshold_db table", 32 + 16 * 15 - 1), ("record_end table", 32 + 24 * 15 - 1),
        ("n_runs table", 32 + 28 * 15 - 1), ("row records", 32 + 28 * 15 + 1),
    ])
    def test_truncated_section(self, tmp_path, section, cut):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))  # 15 rows
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(fm.FormatError, match=f"truncated {section}"):
            fm.read_matrix(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(fm.FormatError, match="4 bytes after the last row record"):
            fm.read_matrix(path)

    def test_corrupt_runs(self, tmp_path):
        path = tmp_path / "a.cfmm"
        write_whole(path, small_matrix(np.random.default_rng(0)))
        raw = bytearray(path.read_bytes())
        raw[32 + 28 * 15:32 + 28 * 15 + 4] = (39).to_bytes(4, "little")  # past 40 bins
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.FormatError, match="captures 0..4: corrupt run table"):
            fm.read_matrix(path).validate()

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_bad_stored_value(self, tmp_path, monkeypatch, bad):
        path = tmp_path / "a.cfmm"
        mat = small_matrix(np.random.default_rng(0), m=7)
        write_whole(path, mat)
        raw = bytearray(path.read_bytes())
        # The last value of the last row record: capture 6, in the third
        # block of three captures.
        raw[-4:] = np.float32(bad).tobytes()
        path.write_bytes(bytes(raw))
        monkeypatch.setattr(fm, "BLOCK_CAPTURES", 3)
        matrix = fm.read_matrix(path)
        matrix.rows(0, 6)  # the captures before it read cleanly
        with pytest.raises(fm.FormatError,
                           match=f"{path}: captures 6..6: stored values must be finite"):
            matrix.validate()

    def test_chunked_writer_matches_one_shot(self, tmp_path):
        rng = np.random.default_rng(5)
        mat = small_matrix(rng, m=11, u=3, b=20)
        mat.mask[4, 2] = False  # a row that keeps nothing
        mat.values[4, 2] = 0.0
        chunked = tmp_path / "chunked.cfmm"
        w = fm.MatrixWriter(chunked, 11, 3, 20, mat.bin_width_s, 10)
        for a, b in [(0, 4), (4, 5), (5, 11)]:
            w.write_chunk(a, chunk_rows(mat, a, b))
        w.close()
        assert chunked.read_bytes() == documented_layout(mat)

    def test_writer_rejects_chunk_out_of_order(self, tmp_path):
        mat = small_matrix(np.random.default_rng(3), m=6)
        w = fm.MatrixWriter(tmp_path / "x.cfmm", 6, 3, 40, 1e-9, 10)
        w.write_chunk(0, chunk_rows(mat, 0, 2))
        with pytest.raises(ValueError, match="chunk starts at capture 4, expected capture 2"):
            w.write_chunk(4, chunk_rows(mat, 4, 6))
        with pytest.raises(ValueError, match="expected capture 2"):
            w.write_chunk(0, chunk_rows(mat, 0, 2))

    def test_writer_close_names_missing_captures(self, tmp_path):
        mat = small_matrix(np.random.default_rng(2), m=6)
        w = fm.MatrixWriter(tmp_path / "x.cfmm", 6, 3, 40, 1e-9, 10)
        w.write_chunk(0, chunk_rows(mat, 0, 2))
        with pytest.raises(ValueError, match="captures 2..5 not written"):
            w.close()

    def test_version_1_exits_3(self, tmp_path, capture_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        v1 = struct.pack("<4sIIIIdI", b"CFMM", 1, 6, 8, 8, 2.856e-10, 10)
        (out / "matrix.cfmm").write_bytes(v1 + bytes(6 * 8 * 8 * 4 + 6 * 8))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["export", "--config", str(cfg), "--out", str(out),
                   "--captures", str(capture_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(out / "matrix.cfmm") in err and "version 1" in err
        assert "re-run process" in err

    @pytest.mark.parametrize("count", [2**20, 2**31, 2**32 - 1])
    def test_header_counts_beyond_file_exit_3(self, tmp_path, capture_path, capsys, count):
        # 96 bytes whose header claims count captures of count UEs: the row
        # tables cannot fit, so export fails before it allocates them.
        out = tmp_path / "out"
        out.mkdir()
        header = struct.pack("<4sIIIIdI", b"CFMM", 2, count, count, 8, 2.856e-10, 10)
        (out / "matrix.cfmm").write_bytes(header + bytes(64))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["export", "--config", str(cfg), "--out", str(out),
                   "--captures", str(capture_path)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{out / 'matrix.cfmm'}: truncated noise_db table (96 bytes" in err

    @pytest.mark.parametrize("field,value,message", [
        ("bin_width_s", 0.0, "header bin_width_s is 0.0, expected a finite value > 0"),
        ("bin_width_s", float("nan"), "header bin_width_s is nan"),
        ("oversample_factor", 0, "header oversample_factor is 0, expected at least 1"),
        ("n_captures", 0, "header n_captures is 0, expected at least 1"),
        ("n_ues", 0, "header n_ues is 0, expected at least 1"),
        ("n_bins", 0, "header n_bins is 0, expected at least 1"),
    ], ids=["bin-width-zero", "bin-width-nan", "oversample-zero", "captures-zero",
            "ues-zero", "bins-zero"])
    def test_bad_header_value_exit_3(self, tmp_path, capture_path, capsys, field, value,
                                     message):
        # Every other field is what process writes for the captures, and the
        # header is checked before the row tables are read, so a 32-byte
        # file reaches each check.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        source = fm.open_captures(capture_path)
        header = {"n_captures": source.n_captures, "n_ues": source.n_ues,
                  **_matrix_header(load_config(cfg).pipeline, source), field: value}
        out = tmp_path / "out"
        out.mkdir()
        (out / "matrix.cfmm").write_bytes(struct.pack(
            "<4sIIIIdI", b"CFMM", 2, *(header[k] for k in (
                "n_captures", "n_ues", "n_bins", "bin_width_s", "oversample_factor"))))
        rc = main(["export", "--config", str(cfg), "--out", str(out),
                   "--captures", str(capture_path)])
        assert rc == 3
        assert f"{out / 'matrix.cfmm'}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("table,value", [("noise_db", np.nan), ("threshold_db", -np.inf)],
                             ids=["noise-nan", "threshold-inf"])
    def test_nonfinite_level_exit_3(self, tmp_path, capture_path, capsys, table, value):
        # process never writes a level that is not finite: an empty noise
        # region reads the finite clamp floor.
        mat = small_matrix(np.random.default_rng(4), m=6, u=8)
        {"noise_db": mat.noise_level_db, "threshold_db": mat.threshold_db}[table][2, 1] = value
        out = tmp_path / "out"
        out.mkdir()
        w = fm.MatrixWriter(out / "matrix.cfmm", 6, 8, 40, mat.bin_width_s, 10)
        w.write_chunk(0, chunk_rows(mat, 0, 6))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["export", "--config", str(cfg), "--out", str(out),
                   "--captures", str(capture_path)])
        assert rc == 3
        assert (f"{out / 'matrix.cfmm'}: {table} table holds {value} at index [2, 1], "
                "expected a finite value") in capsys.readouterr().err


_SITE_ID = 56  # offset of the site id in a capture file, after the fixed header


@pytest.fixture(scope="module")
def plan():
    scene = make_scene()
    waveform = wf.WaveformSpec()
    imp = sd.ImpairmentConfig()
    return sd.plan_campaign(first_poses(scene, 6), waveform, imp, seed=21)


@pytest.fixture(scope="module")
def capture_path(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("cap") / "campaign.cfmc"
    writer = fm.CaptureWriter(path, plan)
    for a, b in [(0, 2), (2, 6)]:
        writer.write_chunk(a, sd.synthesize_chunk(plan, a, b))
    return path


class TestCaptureFile:
    def test_metadata_round_trip(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        assert cf.n_captures == 6
        assert cf.n_ues == plan.n_ues
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
        np.testing.assert_array_equal(cf.cal_response, plan.cal_response)
        np.testing.assert_array_equal(cf.reference_tones, plan.reference_tones)

    def test_link_class_stored(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        assert plan.link_class.dtype == np.uint8
        np.testing.assert_array_equal(cf.link_class, plan.link_class)

    def test_spectra_match_synthesis(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        fresh = sd.synthesize_chunk(plan, 0, 6)
        for ue in range(plan.n_ues):
            got = cf.spectra(0, 6, ue)
            assert got.dtype == np.complex64 and got.shape == (6, 2801)
            np.testing.assert_array_equal(got, fresh[:, ue])

    def test_spectra_match_file_bytes(self, plan, capture_path):
        # Oracle independent of the reader: each (capture, UE) row parsed
        # from the raw file at offset spectra_offset + ((c U + ue) N) 8.
        cf = fm.open_captures(capture_path)
        raw = capture_path.read_bytes()
        u, n = cf.n_ues, cf.n_subcarriers
        for ue in range(u):
            want = np.stack([np.frombuffer(raw, dtype="<c8", count=n,
                                           offset=cf.spectra_offset + (c * u + ue) * n * 8)
                             for c in range(1, 5)])
            np.testing.assert_array_equal(cf.spectra(1, 5, ue), want)

    def test_spectra_range_read(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        for ue in (0, plan.n_ues - 1):
            np.testing.assert_array_equal(cf.spectra(2, 5, ue), cf.spectra(0, 6, ue)[2:5])

    def test_spectra_ue_out_of_range(self, plan, capture_path):
        cf = fm.open_captures(capture_path)
        for ue in (-1, plan.n_ues):
            with pytest.raises(ValueError, match=f"UE {ue} is not one of the file's "
                                                 f"{plan.n_ues} UEs"):
                cf.spectra(0, 6, ue)

    def test_spectra_of_shrunk_file_name_file_and_range(self, capture_path, tmp_path):
        # The file is cut inside capture 5's row of the last UE after
        # open_captures checked its size: ranges it still holds read, the
        # others raise FormatError naming the file, the range and the UE.
        path = tmp_path / "shrinks.cfmc"
        path.write_bytes(capture_path.read_bytes())
        cf = fm.open_captures(path)
        os.truncate(path, os.path.getsize(path) - 4096)
        whole = fm.open_captures(capture_path)
        for ue in range(8):
            np.testing.assert_array_equal(cf.spectra(1, 5, ue), whole.spectra(1, 5, ue))
        for ue in range(7):  # the cut row is UE 7's
            np.testing.assert_array_equal(cf.spectra(3, 6, ue), whole.spectra(3, 6, ue))
        want = 3 * 2801 * 8
        with pytest.raises(fm.FormatError) as exc:
            cf.spectra(3, 6, 7)
        assert str(exc.value) == (
            f"{path}: captures 3..5: truncated spectra (read {want - 4096} of {want} "
            "bytes of UE 7); the file shrank after it was opened")

    def test_spectra_close_their_descriptor(self, capture_path, tmp_path, monkeypatch):
        # Every path through the reader closes the one descriptor it opens:
        # a good read, a short read, an all-zero row and a NaN row.
        cf = fm.open_captures(capture_path)
        row = cf.n_ues * cf.n_subcarriers * 8
        raw = bytearray(capture_path.read_bytes())
        zeroed = tmp_path / "zeroed.cfmc"
        zeroed.write_bytes(raw[:cf.spectra_offset + 2 * row] + bytes(row)
                           + raw[cf.spectra_offset + 3 * row:])
        nan = tmp_path / "nan.cfmc"
        tone = cf.spectra_offset + ((1 * 8 + 1) * 2801 + 100) * 8  # capture 1, UE 1
        raw[tone:tone + 8] = np.array([np.nan], dtype="<c8").tobytes()
        nan.write_bytes(raw)
        short = tmp_path / "short.cfmc"
        short.write_bytes(capture_path.read_bytes())
        short_file = fm.open_captures(short)
        os.truncate(short, os.path.getsize(short) - 4096)
        opened, closed = [], []
        real_open, real_close = os.open, os.close

        def counted_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def counted_close(fd):
            closed.append(fd)
            real_close(fd)

        monkeypatch.setattr(os, "open", counted_open)
        monkeypatch.setattr(os, "close", counted_close)
        cf.spectra(0, 6, 3)
        for source, ue, message in ((short_file, 7, "truncated spectra"),
                                    (fm.open_captures(zeroed), 0, "capture 2, UE 0: "
                                     "spectra are all zero"),
                                    (fm.open_captures(nan), 1, "capture 1, UE 1: "
                                     "spectra hold NaN")):
            with pytest.raises(fm.FormatError, match=message):
                source.spectra(0, 6, ue)
        with pytest.raises(ValueError):
            cf.spectra(0, 6, 8)
        assert len(opened) == 4 and closed == opened

    def test_writer_places_chunks_by_capture(self, plan, capture_path, tmp_path):
        path = tmp_path / "reordered.cfmc"
        writer = fm.CaptureWriter(path, plan)
        for a, b in [(4, 6), (0, 4)]:
            writer.write_chunk(a, sd.synthesize_chunk(plan, a, b))
        assert path.read_bytes() == capture_path.read_bytes()
        with pytest.raises(ValueError, match=r"\(2, 8, 2801\) at capture 5 do not fit"):
            writer.write_chunk(5, sd.synthesize_chunk(plan, 0, 2))

    def test_writer_reserves_spectra_on_disk(self, plan, tmp_path):
        path = tmp_path / "reserved.cfmc"
        writer = fm.CaptureWriter(path, plan)
        st = os.stat(path)
        assert st.st_size == writer.spectra_offset + 6 * plan.n_ues * 2801 * 8
        # Allocated before any chunk is written: the file is not sparse.
        assert st.st_blocks * 512 >= st.st_size

    def test_source_protocol_processes(self, plan, capture_path, tmp_path):
        cf = fm.open_captures(capture_path)
        params = pl.PipelineParams()
        from_file = dense(process_matrix(cf, tmp_path, params, chunk_size=4))
        from_plan = dense(process_matrix(PlanSource(plan), tmp_path, params, chunk_size=4))
        np.testing.assert_array_equal(from_file[0], from_plan[0])
        np.testing.assert_array_equal(from_file[1], from_plan[1])

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

    @pytest.mark.parametrize("offset,patch,message", [
        (8, struct.pack("<I", 2**32 - 1), "truncated timestamps block"),  # captures
        (20, struct.pack("<I", 2**32 - 1), "truncated cal_response block"),  # tones
        (52, struct.pack("<I", 2**32 - 1), "truncated site id"),  # site id length
        (_SITE_ID, b"\xff", "site id is not UTF-8"),
        (_SITE_ID, None, "truncated site id"),  # the file ends inside the site id
        (24, struct.pack("<d", 0.0), "header subcarrier_spacing_hz is 0.0, expected a finite"),
        (24, struct.pack("<d", float("nan")), "header subcarrier_spacing_hz is nan"),
        (24, struct.pack("<d", -125e3), "header subcarrier_spacing_hz is -125000.0"),
        (32, struct.pack("<d", float("inf")), "header capture_interval_s is inf"),
        (32, struct.pack("<d", -0.5), "header capture_interval_s is -0.5, expected a finite"),
        (16, struct.pack("<I", 10), "header n_reps_stored is 10, expected 1"),
        (8, struct.pack("<I", 0), "header n_captures is 0, expected at least 1"),
        (12, struct.pack("<I", 0), "header n_ues is 0, expected at least 1"),
        (20, struct.pack("<I", 0), "header n_subcarriers is 0, expected at least 1"),
    ], ids=["captures", "tones", "site-id-length", "site-id-not-utf8", "site-id-cut",
            "spacing-zero", "spacing-nan", "spacing-negative", "interval-inf",
            "interval-negative", "reps-stored", "captures-zero", "ues-zero", "tones-zero"])
    def test_corrupt_header_exit_3(self, capture_path, tmp_path, capsys, offset, patch,
                                   message):
        raw = bytearray(capture_path.read_bytes())
        if patch is None:
            del raw[offset + 1:]
        else:
            raw[offset:offset + len(patch)] = patch
        bad = tmp_path / "bad.cfmc"
        bad.write_bytes(bytes(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["process", "--config", str(cfg), "--captures", str(bad),
                   "--out", str(tmp_path / "p")])
        assert rc == 3
        assert f"{bad}: {message}" in capsys.readouterr().err

    def test_zero_capture_file_exit_3(self, capture_path, tmp_path, capsys):
        """A header of no captures, with metadata blocks sized to match, is
        rejected: read, it published an empty matrix that export could not
        use."""
        cf = fm.open_captures(capture_path)
        raw = bytearray(capture_path.read_bytes()[:_SITE_ID + len(cf.site_id.encode())])
        raw[8:12] = struct.pack("<I", 0)
        for name, dtype, shape in fm._meta_layout(0, cf.n_ues, cf.n_subcarriers):
            raw += np.asarray(getattr(cf, name), dtype)[tuple(map(slice, shape))].tobytes()
        bad = tmp_path / "empty.cfmc"
        bad.write_bytes(bytes(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["process", "--config", str(cfg), "--captures", str(bad),
                   "--out", str(tmp_path / "p")])
        assert rc == 3
        assert f"{bad}: header n_captures is 0, expected at least 1" in capsys.readouterr().err
        assert not (tmp_path / "p" / "matrix.cfmm").exists()

    @pytest.mark.parametrize("block,index,value,message", [
        ("timestamps", 4, np.inf, "timestamps block holds inf at index [4], expected a finite"),
        ("positions", 7, np.nan, "positions block holds nan at index [2, 1], expected a finite"),
        ("headings", 0, -np.inf, "headings block holds -inf at index [0], expected a finite"),
        ("attenuation_db", 5, np.nan, "attenuation_db block holds nan at index [5], expected"),
        ("measured_power_dbm", 13, np.nan, "measured_power_dbm block holds nan at index [1, 5]"),
        ("link_class", 12, 9, "link_class block holds 9 at index [1, 4], expected a LinkClass"),
        ("ue_positions", 11, np.nan, "ue_positions block holds nan at index [3, 2], expected"),
        ("cal_response", 1400, np.nan, "cal_response block holds (nan+0j) at index [1400]"),
        ("cal_response", 3, 0.0, "cal_response block holds 0j at index [3], expected a finite, "
                                 "non-zero value"),
        ("reference_tones", 7, np.nan, "reference_tones block holds (nan+0j) at index [7]"),
        ("reference_tones", 2800, 0.0, "reference_tones block holds 0j at index [2800]"),
    ], ids=["timestamp-inf", "position-nan", "heading-inf", "attenuation-nan",
            "power-nan", "link-class-9", "ue-position-nan", "cal-nan", "cal-zero",
            "reference-nan", "reference-zero"])
    def test_corrupt_metadata_exit_3(self, capture_path, tmp_path, capsys, block, index,
                                     value, message):
        """A metadata value that no acquisition writes makes process exit 3,
        naming the file and the block. Read unchecked, a NaN attenuation or
        position, or a NaN or zero tone, spread NaN noise levels or numpy
        warnings through a matrix that process wrote with exit 0, and an
        unknown link class failed only in export."""
        cf = fm.open_captures(capture_path)
        m, u, n = cf.n_captures, cf.n_ues, cf.n_subcarriers
        # The blocks follow the site id in this order: name, item type, items.
        layout = [("timestamps", "<f8", m), ("positions", "<f8", 3 * m),
                  ("headings", "<f8", m), ("attenuation_db", "<f8", m),
                  ("measured_power_dbm", "<f8", m * u), ("link_class", "u1", m * u),
                  ("ue_positions", "<f8", 3 * u), ("cal_response", "<c16", n),
                  ("reference_tones", "<c16", n)]
        offset = _SITE_ID + len(cf.site_id.encode())
        offsets = {}
        for name, dtype, count in layout:
            offsets[name] = (offset, dtype)
            offset += np.dtype(dtype).itemsize * count
        assert offset == cf.spectra_offset
        at, dtype = offsets[block]
        raw = bytearray(capture_path.read_bytes())
        item = np.dtype(dtype).itemsize
        raw[at + index * item:at + (index + 1) * item] = np.array([value], dtype=dtype).tobytes()
        bad = tmp_path / "bad.cfmc"
        bad.write_bytes(bytes(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scene": "bundled:canyon"}))
        rc = main(["process", "--config", str(cfg), "--captures", str(bad),
                   "--out", str(tmp_path / "p"), "--workers", "1"])
        assert rc == 3
        assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p" / "matrix.cfmm").exists()
