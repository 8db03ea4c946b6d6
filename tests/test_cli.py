"""CLI stage tests: config handling, exit codes, stage files, determinism."""

import errno
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cfmm
import cfmm.apld as ap
import cfmm.config as cfgmod
import cfmm.formats as fm
import cfmm.pipeline as pl
import cfmm.scene as sc
import cfmm.sounder as sd
import cfmm.waveform as wf
from cfmm.cli import main

from conftest import dense, first_poses, make_scene, set_first_value, ue_line


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene + config + one simulated campaign shared by the stage tests."""
    d = tmp_path_factory.mktemp("cli")
    scene = make_scene(waypoints=[sc.Waypoint("start", 10, 10, 4.5),
                                  sc.Waypoint("drive", 14, 10)])
    sc.save_scene(scene, d / "scene.json")
    cfg = {"scene": str(d / "scene.json"), "seed": 5, "output_dir": str(d / "out")}
    (d / "cfg.json").write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(d / "cfg.json"), "--workers", "1"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def finished_run(workspace, tmp_path_factory):
    """An output directory holding a finished simulate, process and export."""
    out = tmp_path_factory.mktemp("finished")
    for stage in ("simulate", "process", "export"):
        assert main([stage, "--config", str(workspace / "cfg.json"), "--out", str(out),
                     "--workers", "1"]) == 0
    return out


@pytest.fixture(scope="module")
def processed_24(tmp_path_factory):
    """Config, captures and matrix of a processed 24-pose campaign."""
    d = tmp_path_factory.mktemp("p24")
    scene = first_poses(make_scene(waypoints=[sc.Waypoint("start", 10, 10, 4.5),
                                              sc.Waypoint("drive", 14, 10)]), 24)
    sc.save_scene(scene, d / "scene.json")
    (d / "cfg.json").write_text(json.dumps(
        {"scene": str(d / "scene.json"), "seed": 3, "output_dir": str(d / "out")}))
    for stage in ("simulate", "process"):
        assert main([stage, "--config", str(d / "cfg.json"), "--workers", "1"]) == 0
    assert fm.read_matrix(d / "out" / "matrix.cfmm").n_captures == 24
    return d


@pytest.fixture(scope="module")
def mixed_links(tmp_path_factory):
    """Config and simulated captures (one worker, chunks of 128) of poses
    896-959 of the bundled full route, where 302 of the 512 links have no
    traced path: captures 0-18 have none, and UEs 6 and 7 none at all."""
    d = tmp_path_factory.mktemp("mixed")
    full = sc.load_scene(cfgmod.resolve_scene_path("bundled:full"))
    sc.save_scene(first_poses(full, 64, skip=896), d / "scene.json")
    (d / "cfg.json").write_text(json.dumps(
        {"scene": str(d / "scene.json"), "seed": 7, "output_dir": str(d / "out")}))
    assert main(["simulate", "--config", str(d / "cfg.json"), "--workers", "1",
                 "--chunk-size", "128"]) == 0
    return d


def digests(out):
    """sha256 of every file in out, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def zero_capture(path, m):
    """Zero capture m's spectra, as an interrupted simulate leaves them."""
    src = fm.open_captures(path)
    row = src.n_ues * src.n_subcarriers * 8
    with open(path, "r+b") as fh:
        fh.seek(src.spectra_offset + m * row)
        fh.write(bytes(row))


def write_captures(path, plan):
    """Write the captures of plan to path, as simulate does; returns path."""
    with fm.CaptureWriter(path, plan) as writer:
        writer.write_chunk(0, sd.synthesize_chunk(plan, 0, plan.n_captures))
    return path


def test_cli_import_loads_no_scipy():
    code = ("import sys, cfmm.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(cfmm.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, check=True, timeout=120)
    assert r.stdout.strip() == "[]"


def numpy_simd() -> list[str]:
    """The SIMD dispatch targets numpy runs here, in numpy's order."""
    umath = np._core._multiarray_umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


def test_simulate_record_leaves_out_disabled_simd_targets(workspace, tmp_path):
    # Targets that NPY_DISABLE_CPU_FEATURES turns off for a run, as an older
    # CPU lacks them, leave the record's numpy_simd.
    simd = numpy_simd()
    if len(simd) < 2:
        pytest.skip(f"numpy dispatches to {simd} here; the check needs two targets")
    env = {**os.environ, "PYTHONPATH": str(Path(cfmm.__file__).parents[1]),
           "NPY_DISABLE_CPU_FEATURES": " ".join(simd[1:])}
    r = subprocess.run([sys.executable, "-m", "cfmm.cli", "simulate", "--config",
                        str(workspace / "cfg.json"), "--out", str(tmp_path), "--workers", "1"],
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    record = json.loads((tmp_path / "manifest.json").read_text())["stages"]["simulate"]
    assert record["numpy_simd"] == simd[:1]


@pytest.mark.parametrize("stage", ["validate", "export"])
def test_stage_without_pool_skips_its_imports(stage, workspace, finished_run, tmp_path):
    # Neither stage runs a pool, so neither pays for importing one; scene
    # validation needs no numpy.ma either.
    argv = ["validate", "--config", str(workspace / "cfg.json")]
    if stage == "export":
        shutil.copytree(finished_run, tmp_path / "out")
        argv = ["export", "--config", str(workspace / "cfg.json"),
                "--out", str(tmp_path / "out"), "--workers", "1"]
    code = ("import sys; from cfmm.cli import main; rc = main(sys.argv[1:]); "
            "print(sorted(m for m in ('numpy.ma', 'multiprocessing', "
            "'concurrent.futures.process') if m in sys.modules)); sys.exit(rc)")
    env = {**os.environ, "PYTHONPATH": str(Path(cfmm.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"


class TestConfig:
    def test_defaults(self):
        cfg = cfgmod.config_from_dict({})
        assert cfg.pipeline.kaiser_beta == 3.0
        assert cfg.pipeline.pad_factor == 10
        assert cfg.pipeline.ssa_window == 9
        assert cfg.pipeline.delta_n_db == 7.0
        assert cfg.pipeline.gate_native_bins == 400
        assert cfg.pipeline.guard_native_bins == 4
        assert cfg.waveform.n_subcarriers == 2801
        assert cfg.impairments.crosstalk_coupling_db == -60.0

    def test_section_override(self):
        cfg = cfgmod.config_from_dict({
            "pipeline": {"kaiser_beta": 2.5},
            "impairments": {"crosstalk_coupling_db": None},
            "waveform": {"n_subcarriers": 101},
        })
        assert cfg.pipeline.kaiser_beta == 2.5
        assert cfg.impairments.crosstalk_coupling_db is None
        assert cfg.impairments.thermal_dbm_per_hz == -174.0  # untouched default
        assert cfg.waveform.n_subcarriers == 101

    def test_unknown_keys_named(self):
        with pytest.raises(cfgmod.ConfigError, match="waveform: unknown key 'bogus'"):
            cfgmod.config_from_dict({"waveform": {"bogus": 1}})
        with pytest.raises(cfgmod.ConfigError, match="unknown top-level key 'extra'"):
            cfgmod.config_from_dict({"extra": 1})

    def test_range_error_named(self):
        cfg = cfgmod.config_from_dict({"pipeline": {"kaiser_beta": -1}})
        with pytest.raises(cfgmod.ConfigError, match="pipeline"):
            cfg.validate()

    def test_hash_semantic_only(self):
        base = cfgmod.RunConfig()
        h = cfgmod.semantic_hash
        assert h(base) == h(replace(base, output_dir="elsewhere", workers=7))
        assert h(base) != h(replace(base, seed=base.seed + 1))
        assert h(base) != h(replace(
            base, pipeline=replace(base.pipeline, kaiser_beta=2.0)))
        assert h(base) != h(replace(base, scene="other.json"))

    def test_hash_pinned(self):
        # Numbers keep their JSON type, so an int given for a float field
        # hashes as that int, not as the float it equals: the pin below is
        # of the ints given here.
        cfg = cfgmod.config_from_dict({
            "scene": "scene.json", "site": "site0", "seed": 3, "output_dir": "o",
            "workers": 2,
            "waveform": {"n_subcarriers": 101, "subcarrier_spacing_hz": 125000},
            "impairments": {"thermal_dbm_per_hz": -170, "crosstalk_coupling_db": -50},
            "pipeline": {"kaiser_beta": 3, "delta_n_db": 6,
                         "noise_region_native": [450, None]},
        })
        cfg.validate()
        assert cfgmod.semantic_hash(cfg) == (
            "9d37d67d2f1434505f18c0e17b44938bff5d39db12d4202f01c28e68f284b91a")
        as_floats = replace(cfg, waveform=replace(cfg.waveform, subcarrier_spacing_hz=125000.0))
        assert cfgmod.semantic_hash(as_floats) != cfgmod.semantic_hash(cfg)

    def test_bundled_scene_resolution_error(self):
        with pytest.raises(cfgmod.ConfigError, match="no bundled scene"):
            cfgmod.resolve_scene_path("bundled:no-such-scene")


class TestValidate:
    def test_ok(self, workspace, capsys):
        rc = main(["validate", "--config", str(workspace / "cfg.json")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid, 81 poses" in out
        assert "site 'site0': 8 UEs" in out
        assert "config hash:" in out

    def test_prints_bytes_each_stage_writes(self, workspace, finished_run, capsys):
        # The workspace config's simulate and export outputs, against the
        # files a finished run of the same config wrote.
        assert main(["validate", "--config", str(workspace / "cfg.json")]) == 0
        out = capsys.readouterr().out
        writes = next(line for line in out.splitlines() if line.startswith("simulate writes"))
        capture_b, heatmap_b = (int(s.replace(",", "")) for s in
                                re.findall(r"([0-9,]+) B", writes))
        assert capture_b == (workspace / "out" / "captures.cfmc").stat().st_size
        assert capture_b == (finished_run / "captures.cfmc").stat().st_size
        assert heatmap_b == sum(p.stat().st_size for p in finished_run.glob("apld_ue*.pgm"))
        # The free space moves with every write to the file system.
        free = re.search(rf"free space on the file system of "
                         rf"{re.escape(str(workspace / 'out'))}: ([0-9,]+) B", out)
        assert 0 < int(free.group(1).replace(",", "")) <= shutil.disk_usage(workspace).total

    def test_free_space_of_nearest_existing_parent(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["output_dir"] = str(tmp_path / "a" / "b")
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(tmp_path / "cfg.json")]) == 0
        assert f"free space on the file system of {tmp_path}: " in capsys.readouterr().out
        assert sorted(tmp_path.iterdir()) == [tmp_path / "cfg.json"]

    def test_bad_param_named(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["pipeline"] = {"kaiser_beta": -1.0}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(p)])
        assert rc == 1
        assert "kaiser" in capsys.readouterr().err.lower()

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc = main(["validate", "--config", str(p)])
        assert rc == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_malformed_scene_json(self, tmp_path, capsys):
        (tmp_path / "scene.json").write_text("{not json")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scene": str(tmp_path / "scene.json")}))
        assert main(["validate", "--config", str(p)]) == 1
        assert f"{tmp_path / 'scene.json'}: malformed JSON" in capsys.readouterr().err

    def test_missing_scene_file(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scene": str(tmp_path / "absent.json")}))
        rc = main(["validate", "--config", str(p)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_even_tone_count_named(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["waveform"] = {"n_subcarriers": 2800}
        p = tmp_path / "even.json"
        p.write_text(json.dumps(cfg))
        rc = main(["validate", "--config", str(p)])
        assert rc == 1
        assert "waveform.n_subcarriers = 2800: must be odd" in capsys.readouterr().err

    def test_wrong_ue_count_named(self, tmp_path, capsys):
        scene = make_scene(ue_positions=ue_line(n=7))
        sc.save_scene(scene, tmp_path / "scene7.json")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"scene": str(tmp_path / "scene7.json")}))
        rc = main(["validate", "--config", str(p)])
        assert rc == 1
        assert "exactly 8 UE positions" in capsys.readouterr().err

    def _config_with_manifest(self, workspace, tmp_path, manifest):
        """A config for the workspace scene whose output directory holds
        manifest (a string is written as is); its path."""
        out = tmp_path / "out"
        out.mkdir()
        if manifest is not None:
            text = manifest if isinstance(manifest, str) else json.dumps(manifest)
            (out / "manifest.json").write_text(text)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({**json.loads((workspace / "cfg.json").read_text()),
                                    "output_dir": str(out)}))
        return cfgp

    @pytest.mark.parametrize("manifest", [
        None,
        {"stages": {"simulate": {"n_captures": 10, "n_ues": 8}}},
        {"stages": {"simulate": {"cpu_s": 60.0, "n_captures": 10, "n_ues": 8}}},
    ], ids=["no-manifest", "no-cpu", "no-process"])
    def test_estimate_without_records_uses_fixed_rate(self, workspace, tmp_path, capsys,
                                                      manifest):
        cfgp = self._config_with_manifest(workspace, tmp_path, manifest)
        assert main(["validate", "--config", str(cfgp)]) == 0
        est_s = 81 * 8 * 2.2e-4
        line = [x for x in capsys.readouterr().out.splitlines() if "runtime" in x][0]
        assert line.startswith(f"estimated single-core runtime: {est_s / 60:.1f} min "
                               "(from a fixed 0.22 ms per capture-UE;")
        assert str(tmp_path / "out" / "manifest.json") in line

    def test_estimate_from_records(self, workspace, tmp_path, capsys):
        # 60 s over 10 x 8 capture-UEs and 120 s over 20 x 4: 0.75 + 1.5 s
        # per capture-UE, times this config's 81 poses x 8 UEs.
        cfgp = self._config_with_manifest(workspace, tmp_path, {"stages": {
            "simulate": {"cpu_s": 60.0, "n_captures": 10, "n_ues": 8},
            "process": {"cpu_s": 120, "n_captures": 20, "n_ues": 4}}})
        assert main(["validate", "--config", str(cfgp)]) == 0
        manifest = tmp_path / "out" / "manifest.json"
        assert (f"estimated single-core runtime: {81 * 8 * 2.25 / 60:.1f} min (from the "
                f"CPU time of the simulate and process records in {manifest})"
                in capsys.readouterr().out.splitlines())

    def test_estimate_from_a_finished_run(self, workspace, finished_run, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({**json.loads((workspace / "cfg.json").read_text()),
                                    "output_dir": str(out)}))
        assert main(["validate", "--config", str(cfgp)]) == 0
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        # The records are of this campaign, so the estimate is their CPU time.
        est_s = stages["simulate"]["cpu_s"] + stages["process"]["cpu_s"]
        assert (f"estimated single-core runtime: {est_s / 60:.1f} min (from the CPU time "
                f"of the simulate and process records in {out / 'manifest.json'})"
                in capsys.readouterr().out.splitlines())

    @pytest.mark.parametrize("manifest,message", [
        ('{"stages": ', "malformed JSON"),
        ('{"stages": []}', "must be an object whose stages are objects"),
        ({"stages": {"simulate": {"cpu_s": "1", "n_captures": 10, "n_ues": 8},
                     "process": {"cpu_s": 1.0, "n_captures": 10, "n_ues": 8}}},
         "stages.simulate: cpu_s must be a finite number >= 0"),
        ({"stages": {"simulate": {"cpu_s": 1.0, "n_captures": 10, "n_ues": 8},
                     "process": {"cpu_s": 1.0, "n_captures": 0, "n_ues": 8}}},
         "stages.process: cpu_s must be a finite number >= 0"),
    ], ids=["truncated", "stages-list", "cpu-string", "no-captures"])
    def test_estimate_malformed_manifest_exit_3(self, workspace, tmp_path, capsys,
                                                manifest, message):
        cfgp = self._config_with_manifest(workspace, tmp_path, manifest)
        assert main(["validate", "--config", str(cfgp)]) == 3
        err = capsys.readouterr().err
        assert f"{tmp_path / 'out' / 'manifest.json'}: " in err and message in err


_DROP = object()


@pytest.mark.parametrize("doc,keys,value,message", [
    ("config", ("seed",), 7.5, "seed = 7.5: must be an integer"),
    ("config", ("seed",), "7", 'seed = "7": must be an integer'),
    ("config", ("seed",), True, "seed = true: must be an integer"),
    ("config", ("seed",), 2**64, "seed = 18446744073709551616: must be in [0, 2**64)"),
    ("config", ("scene",), 5, "scene = 5: must be a string"),
    ("config", ("pipeline",), 7, "pipeline = 7: must be an object"),
    ("config", ("pipeline", "pad_factor"), 2.5, "pipeline.pad_factor = 2.5: must be an integer"),
    ("config", ("pipeline", "ssa_window"), 3.0, "pipeline.ssa_window = 3.0: must be an integer"),
    ("config", ("pipeline", "noise_region_native"), [450],
     "pipeline.noise_region_native = [450]: must be a list of 2 values"),
    ("scene", ("buildings",), 5, "buildings = 5: must be a list"),
    ("config", ("impairments", "crosstalk_coupling_db"), 5,
     "impairments.crosstalk_coupling_db = 5: must be <= 0 or null"),
    ("config", ("waveform", "oversampling_factor"), 1,
     "waveform: unknown key 'oversampling_factor'"),
    ("config", ("waveform", "phase_rule"), "quadratic-zc",
     "waveform: unknown key 'phase_rule'"),
    ("config", ("impairments", "n_repetitions"), 10,
     "impairments: unknown key 'n_repetitions'"),
    ("config", ("impairments", "store_repetitions"), False,
     "impairments: unknown key 'store_repetitions'"),
    *[("config", ("impairments", key), value, f"impairments: unknown key '{key}'")
      for key, value in (("agc", {}), ("chain", {}), ("tx_power_dbm", 42.0),
                         ("base_noise_figure_db", 5.0), ("nf_penalty_per_att_db", 0.5),
                         ("nf_penalty_cap_db", 20.0))],
    ("scene", ("buildings", 0, "heigth_m"), 20.0, "buildings[0]: unknown key 'heigth_m'"),
    ("scene", ("buildings", 0, "height_m"), float("nan"),
     "buildings[0].height_m = NaN: must be finite"),
    ("scene", ("trajectory", "speed_mps"), float("inf"),
     "trajectory.speed_mps = Infinity: must be finite"),
    ("scene", ("buildings", 0, "footprint"), 5,
     "buildings[0].footprint = 5: must be an array of numbers"),
    ("scene", ("buildings", 0, "footprint"), [[40, 30, 0], [60, 30, 0], [60, 50, 0]],
     "building 'B0': footprint has shape (3, 3)"),
    ("scene", ("trajectory", "waypoints", 1, "x"), "a",
     'trajectory.waypoints[1].x = "a": must be a number or null'),
    ("scene", ("buildings", 0, "id"), _DROP, "buildings[0].id: required key is missing"),
], ids=["seed-float", "seed-string", "seed-bool", "seed-uint64-overflow", "scene-int",
        "pipeline-int", "pad-float", "ssa-float", "noise-region-short", "buildings-int",
        "crosstalk-positive", "oversampling-factor", "phase-rule", "n-repetitions",
        "store-repetitions", "agc", "chain", "tx-power", "base-noise-figure",
        "nf-penalty-per-att", "nf-penalty-cap", "scene-key-typo", "height-nan", "speed-inf",
        "footprint-int", "footprint-3-columns", "waypoint-x-string", "building-no-id"])
def test_malformed_document_exit_1(workspace, finished_run, tmp_path, capsys,
                                   doc, keys, value, message):
    """A malformed config or scene makes validate exit 1, with the dotted key
    and no traceback, and simulate exit 1 before it removes any output."""
    docs = {"config": {**json.loads((workspace / "cfg.json").read_text()),
                       "scene": str(tmp_path / "scene.json"), "pipeline": {}, "waveform": {},
                       "impairments": {}},
            "scene": json.loads((workspace / "scene.json").read_text())}
    *parents, last = keys
    target = docs[doc]
    for k in parents:
        target = target[k]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    (tmp_path / "scene.json").write_text(json.dumps(docs["scene"]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(docs["config"]))

    env = {**os.environ, "PYTHONPATH": str(Path(cfmm.__file__).parents[1])}
    r = subprocess.run([sys.executable, "-m", "cfmm.cli", "validate", "--config", str(cfg)],
                       env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 1
    assert message in r.stderr and "Traceback" not in r.stderr

    before = digests(finished_run)
    assert main(["simulate", "--config", str(cfg), "--out", str(finished_run),
                 "--workers", "1"]) == 1
    assert message in capsys.readouterr().err
    assert digests(finished_run) == before


class TestStages:
    def test_simulate_outputs(self, workspace):
        out = workspace / "out"
        assert (out / "captures.cfmc").exists()
        cf = fm.open_captures(out / "captures.cfmc")
        assert cf.n_captures == 81
        assert cf.seed == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["simulate"]["n_captures"] == 81
        assert len(manifest["stages"]["simulate"]["config_hash"]) == 64

    def test_simulate_records_link_class_mix(self, workspace):
        out = workspace / "out"
        record = json.loads((out / "manifest.json").read_text())["stages"]["simulate"]
        mix = record["link_classes"]
        cf = fm.open_captures(out / "captures.cfmc")
        assert sorted(mix) == ["LOS", "NLOS", "OLOS"]
        assert sum(mix.values()) == cf.n_captures * cf.n_ues
        counts = np.bincount(cf.link_class.ravel(), minlength=3)
        assert [mix[c.name] for c in sc.LinkClass] == counts.tolist()
        assert mix["LOS"] > 0 and mix["NLOS"] > 0

    def test_simulate_records_agc_steps_and_paths_per_link(self, workspace):
        record = json.loads((workspace / "out" / "manifest.json").read_text())
        record = record["stages"]["simulate"]
        cfg = cfgmod.load_config(workspace / "cfg.json")
        plan = sd.plan_campaign(sc.load_scene(cfg.scene), cfg.waveform, cfg.impairments,
                                cfg.seed, site=cfg.site)
        steps = record["agc_steps"]
        assert list(steps) == ["0", "10", "20", "30"]
        assert sum(steps.values()) == record["n_captures"] == plan.n_captures
        values, counts = np.unique(plan.attenuation_db, return_counts=True)
        assert {k: n for k, n in steps.items() if n} == {
            f"{a:g}": int(n) for a, n in zip(values, counts)}
        assert plan.row_splits.shape == (plan.n_captures * 8 + 1,)
        paths = plan.path_delays.size
        assert record["paths_per_link"] == pytest.approx(paths / (plan.n_captures * 8))
        assert record["paths_per_link"] > 1

    def test_simulate_decides_link_classes_once(self, workspace, tmp_path, monkeypatch):
        # Every direct ray is tested against every building once, by the
        # tracer; simulate adds no second classification pass.
        real = sc.Building.blockage_chords
        rows = []

        def counted(self, p0, p1):
            rows.append(np.atleast_2d(p0).shape[0])
            return real(self, p0, p1)

        monkeypatch.setattr(sc.Building, "blockage_chords", counted)
        cfgp = workspace / "cfg.json"
        assert main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "s"),
                     "--workers", "1"]) == 0
        during_simulate = sum(rows)
        rows.clear()
        cfg = cfgmod.load_config(cfgp)
        sd.plan_campaign(sc.load_scene(cfg.scene), cfg.waveform, cfg.impairments,
                         cfg.seed, site=cfg.site)
        assert during_simulate == sum(rows) > 0

    def test_process_and_rerun_idempotent(self, workspace):
        cfgp = str(workspace / "cfg.json")
        assert main(["process", "--config", cfgp, "--workers", "1"]) == 0
        out = workspace / "out"
        h1 = hashlib.sha256((out / "matrix.cfmm").read_bytes()).hexdigest()
        s1 = (out / "summary.csv").read_bytes()
        record = json.loads((out / "manifest.json").read_text())["stages"]["process"]
        rows = [line.split(",") for line in s1.decode().splitlines()[1:]]
        assert record["rows_no_surviving_bins"] == sum(r[-1] == "0" for r in rows)
        assert record["rows_noise_at_floor"] == 0
        kept = sum(int(r[-1]) for r in rows)
        assert record["matrix_kept_bins"] == kept > 0
        assert sum(r[-1] != "0" for r in rows) <= record["matrix_runs"] <= kept
        # The counts explain the file size: row tables, runs and values.
        assert (out / "matrix.cfmm").stat().st_size == \
            40 + 16 * len(rows) + 8 * record["matrix_runs"] + 4 * kept
        assert main(["process", "--config", cfgp, "--workers", "1"]) == 0
        h2 = hashlib.sha256((out / "matrix.cfmm").read_bytes()).hexdigest()
        assert h1 == h2
        assert s1 == (out / "summary.csv").read_bytes()
        mat = fm.read_matrix(out / "matrix.cfmm")
        assert dense(mat)[0].shape == (81, 8, 4000)

    def test_worker_and_chunk_invariance(self, workspace, tmp_path):
        cfgp = str(workspace / "cfg.json")
        cap = str(workspace / "out" / "captures.cfmc")
        a, b = tmp_path / "wa", tmp_path / "wb"
        assert main(["process", "--config", cfgp, "--captures", cap,
                     "--out", str(a), "--workers", "3", "--chunk-size", "16"]) == 0
        assert main(["process", "--config", cfgp, "--captures", cap,
                     "--out", str(b), "--workers", "1", "--chunk-size", "128"]) == 0
        assert (a / "matrix.cfmm").read_bytes() == (b / "matrix.cfmm").read_bytes()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_simulate_worker_invariance(self, workspace, tmp_path):
        cfgp = str(workspace / "cfg.json")
        ref = (workspace / "out" / "captures.cfmc").read_bytes()  # 1 worker, chunks of 128
        for workers, chunk in (("2", "16"), ("3", "16"), ("2", "128")):
            a = tmp_path / f"s{workers}-{chunk}"
            assert main(["simulate", "--config", cfgp, "--out", str(a),
                         "--workers", workers, "--chunk-size", chunk]) == 0
            assert (a / "captures.cfmc").read_bytes() == ref

    def test_simulate_worker_invariance_with_empty_links(self, mixed_links, tmp_path):
        # Chunks of 7 captures hold links without paths only, or both kinds.
        ref = (mixed_links / "out" / "captures.cfmc").read_bytes()
        assert main(["simulate", "--config", str(mixed_links / "cfg.json"),
                     "--out", str(tmp_path), "--workers", "2", "--chunk-size", "7"]) == 0
        assert (tmp_path / "captures.cfmc").read_bytes() == ref

    def test_process_worker_invariance_with_empty_links(self, mixed_links, tmp_path):
        # Chunks of 7 captures put chunk edges inside the small-scale
        # average's halo, and send rows of links without paths, and rows
        # that keep no bin, through the pool.
        cfgp = str(mixed_links / "cfg.json")
        cap = str(mixed_links / "out" / "captures.cfmc")
        outs = {}
        for workers, chunk in (("1", "128"), ("2", "7")):
            out = tmp_path / f"p{workers}-{chunk}"
            assert main(["process", "--config", cfgp, "--captures", cap, "--out", str(out),
                         "--workers", workers, "--chunk-size", chunk]) == 0
            outs[chunk] = [(out / name).read_bytes() for name in ("matrix.cfmm", "summary.csv")]
        assert outs["7"] == outs["128"]
        rows = [line.split(",") for line in outs["7"][1].decode().splitlines()[1:]]
        assert len(rows) == 512 and any(r[-1] == "0" for r in rows)

    def test_simulate_records_links_without_paths(self, mixed_links):
        record = json.loads((mixed_links / "out" / "manifest.json").read_text())
        record = record["stages"]["simulate"]
        cfg = cfgmod.load_config(mixed_links / "cfg.json")
        plan = sd.plan_campaign(sc.load_scene(cfg.scene), cfg.waveform, cfg.impairments,
                                cfg.seed, site=cfg.site)
        rs = plan.row_splits
        empty = int(np.sum(rs[1:] == rs[:-1]))
        assert record["links_without_paths"] == empty == 302
        assert record["n_captures"] * record["n_ues"] == 512

    def test_stage_records_run_measurements(self, workspace, tmp_path):
        # Simulate runs 6 spans on 3 workers; process runs its one span of
        # 81 captures here, whatever --workers asks.
        cfgp, out = str(workspace / "cfg.json"), tmp_path / "out"
        flags = {"simulate": ["--workers", "3", "--chunk-size", "16"],
                 "process": ["--workers", "2", "--chunk-size", "128"],
                 "export": ["--workers", "2"]}
        measured = {}
        for stage, extra in flags.items():
            kids0 = os.times()
            t0 = time.perf_counter()
            assert main([stage, "--config", cfgp, "--out", str(out), *extra]) == 0
            wall = time.perf_counter() - t0
            kids1 = os.times()
            measured[stage] = (wall, (kids1.children_user - kids0.children_user)
                               + (kids1.children_system - kids0.children_system))
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert {s: r["workers"] for s, r in stages.items()} == \
            {"simulate": 3, "process": 1, "export": 1}
        for stage, (wall, children_cpu) in measured.items():
            r = stages[stage]
            assert 0 < r["wall_s"] <= wall
            # The stage's CPU includes that of its reaped workers.
            assert r["cpu_s"] >= children_cpu >= 0
        assert measured["simulate"][1] > 0
        sim = stages["simulate"]
        assert 0 <= sim["capture_sync_wait_s"] <= sim["wall_s"]
        assert (stages["process"]["n_captures"], stages["process"]["n_ues"]) == (81, 8)
        assert "capture_sync_wait_s" not in stages["process"]

    def test_stage_records_peak_rss(self, workspace, tmp_path, monkeypatch):
        # The stage process's peak RSS in every record; the largest worker
        # reading only when a pool ran the chunks; neither where no reading
        # can be made.
        cfgp, cap = str(workspace / "cfg.json"), str(workspace / "out" / "captures.cfmc")

        def record(workers: str, out: Path) -> dict:
            assert main(["process", "--config", cfgp, "--captures", cap, "--out", str(out),
                         "--workers", workers, "--chunk-size", "16"]) == 0
            stage = json.loads((out / "manifest.json").read_text())["stages"]["process"]
            assert stage["workers"] == int(workers)
            return stage

        pool = record("2", tmp_path / "pool")
        assert 0 < pool["peak_rss_mb"] < math.inf
        assert 0 < pool["worker_peak_rss_mb"] < math.inf
        serial = record("1", tmp_path / "serial")
        assert 0 < serial["peak_rss_mb"] < math.inf
        assert "worker_peak_rss_mb" not in serial
        monkeypatch.setattr(pl, "peak_rss_mb", lambda: None)  # forked workers too
        unread = record("2", tmp_path / "unread")
        assert "peak_rss_mb" not in unread and "worker_peak_rss_mb" not in unread

    def test_export_outputs(self, workspace):
        cfgp = str(workspace / "cfg.json")
        assert main(["process", "--config", cfgp, "--workers", "1"]) == 0
        assert main(["export", "--config", cfgp]) == 0
        out = workspace / "out"
        for j in range(8):
            pgm = out / f"apld_ue{j}.pgm"
            assert pgm.exists()
            assert pgm.read_bytes().startswith(b"P5\n4000 81\n255\n")
            ann = (out / f"annotations_ue{j}.csv").read_text().splitlines()
            assert len(ann) == 82
            assert ann[0].startswith("capture_index,timestamp_s")
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["stages"]["export"]["heatmaps"]) == 8
        scene_sha = hashlib.sha256((workspace / "scene.json").read_bytes()).hexdigest()
        for stage in ("simulate", "process", "export"):
            assert manifest["stages"][stage]["scene_sha256"] == scene_sha
            assert manifest["stages"][stage]["numpy"] == np.__version__
            assert manifest["stages"][stage]["numpy_simd"] == numpy_simd()

    def test_unknown_site_exit_1_keeps_captures(self, workspace, tmp_path, capsys):
        cfg = json.loads((workspace / "cfg.json").read_text())
        out = tmp_path / "out"
        cfg["output_dir"] = str(out)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        assert main(["simulate", "--config", str(cfgp), "--workers", "1"]) == 0
        before = digests(out)
        for site in ("nope", 3, -1):
            cfgp.write_text(json.dumps({**cfg, "site": site}))
            capsys.readouterr()
            for stage in ("validate", "simulate"):
                assert main([stage, "--config", str(cfgp)]) == 1
                err = capsys.readouterr().err
                assert f"site {site!r}" in err and "'site0'" in err
            assert digests(out) == before

    def test_scene_edit_changes_manifest(self, tmp_path):
        scene = make_scene(waypoints=[sc.Waypoint("start", 10, 10, 4.5),
                                      sc.Waypoint("drive", 11, 10)])
        sc.save_scene(scene, tmp_path / "scene.json")
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"scene": str(tmp_path / "scene.json"),
                                    "output_dir": str(tmp_path / "out")}))

        def simulate():
            assert main(["simulate", "--config", str(cfgp), "--workers", "1"]) == 0
            return json.loads((tmp_path / "out" / "manifest.json").read_text())

        before = simulate()
        data = json.loads((tmp_path / "scene.json").read_text())
        data["buildings"][0]["height_m"] += 1.0
        (tmp_path / "scene.json").write_text(json.dumps(data))
        after = simulate()
        # The config names the same path, so only the content hash tells.
        assert after["stages"]["simulate"]["config_hash"] == \
            before["stages"]["simulate"]["config_hash"]
        assert after["stages"]["simulate"]["scene_sha256"] != \
            before["stages"]["simulate"]["scene_sha256"]

    def test_each_stage_records_its_own_run(self, workspace, tmp_path):
        # simulate at seed 7, then process the same captures at seed 8: the
        # manifest says which stage ran with which seed and config.
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfgp, out = tmp_path / "cfg.json", tmp_path / "out"
        for stage, seed in (("simulate", 7), ("process", 8)):
            cfgp.write_text(json.dumps({**cfg, "seed": seed}))
            assert main([stage, "--config", str(cfgp), "--out", str(out),
                         "--workers", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest) == ["stages"]
        sim, proc = manifest["stages"]["simulate"], manifest["stages"]["process"]
        assert (sim["seed"], proc["seed"]) == (7, 8)
        assert sim["config_hash"] != proc["config_hash"]
        assert sim["scene"] == proc["scene"] == cfg["scene"]

    def test_failed_process_leaves_nothing_export_accepts(self, workspace, tmp_path,
                                                          capsys):
        out = tmp_path / "o"
        out.mkdir()
        (out / "captures.cfmc").write_bytes((workspace / "out" / "captures.cfmc").read_bytes())

        def run(stage, *flags):
            return main([stage, "--config", str(workspace / "cfg.json"),
                         "--out", str(out), "--workers", "1", *flags])

        assert run("process") == 0 and run("export") == 0
        zero_capture(out / "captures.cfmc", 17)
        capsys.readouterr()
        # The failure reaches the parent from a pool worker.
        assert run("process", "--workers", "2", "--chunk-size", "16") == 3
        assert "capture 17" in capsys.readouterr().err
        assert run("export") == 2
        assert "matrix.cfmm" in capsys.readouterr().err
        assert not (out / "matrix.cfmm").exists()
        assert not (out / "summary.csv").exists()
        assert not list(out.glob("*.partial"))

    def test_failed_process_drops_later_results(self, workspace, tmp_path, capsys):
        out = tmp_path / "s"
        out.mkdir()
        (out / "captures.cfmc").write_bytes((workspace / "out" / "captures.cfmc").read_bytes())

        def run(stage):
            return main([stage, "--config", str(workspace / "cfg.json"),
                         "--out", str(out), "--workers", "1"])

        (out / "manifest.json").write_text(json.dumps(
            {"stages": {"simulate": {"captures": "captures.cfmc"}}}))
        assert run("process") == 0 and run("export") == 0
        assert len(list(out.glob("apld_ue*.pgm"))) == 8
        zero_capture(out / "captures.cfmc", 17)
        assert run("process") == 3
        stages = json.loads((out / "manifest.json").read_text())["stages"]
        assert set(stages) == {"simulate"}
        assert not list(out.glob("apld_ue*.pgm"))
        assert not list(out.glob("annotations_ue*.csv"))
        assert (out / "captures.cfmc").exists()

    @pytest.mark.parametrize("kind", ["absolute", "dotdot"])
    def test_stage_deletes_no_path_from_manifest(self, workspace, tmp_path, kind):
        victim = tmp_path / "victim.txt"
        victim.write_text("keep\n")
        out = tmp_path / "out"
        out.mkdir()
        named = str(victim) if kind == "absolute" else "../victim.txt"
        (out / "manifest.json").write_text(json.dumps({"stages": {
            "simulate": {"captures": named},
            "process": {"matrix": named, "summary": named},
            "export": {"heatmaps": [named], "annotations": [named]}}}))
        assert main(["simulate", "--config", str(workspace / "cfg.json"),
                     "--out", str(out), "--workers", "1"]) == 0
        assert victim.read_text() == "keep\n"

    def test_simulate_without_manifest_removes_later_outputs(self, workspace, finished_run,
                                                              tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        (out / "manifest.json").unlink()
        # Outputs of a run with more UEs, and files no stage writes.
        for name in ("apld_ue12.pgm", "annotations_ue12.csv", "notes.txt",
                     "apld_ue1.pgm.bak", "apld_uex.pgm"):
            (out / name).write_text("x\n")
        cfgp = str(workspace / "cfg.json")
        assert main(["simulate", "--config", cfgp, "--out", str(out), "--workers", "1"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "apld_ue1.pgm.bak", "apld_uex.pgm", "captures.cfmc", "manifest.json",
            "notes.txt"]
        capsys.readouterr()
        assert main(["export", "--config", cfgp, "--out", str(out)]) == 2
        assert "matrix.cfmm" in capsys.readouterr().err

    def test_stage_removes_stale_partials(self, workspace, finished_run, tmp_path):
        # A killed stage leaves its partial files. A starting stage removes
        # those of its own and the later stages' outputs and of the
        # manifest, but never the partial of an earlier stage's output.
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        (out / "manifest.json").unlink()
        zero_capture(out / "captures.cfmc", 17)  # process fails inside its stage

        def run(stage):
            return main([stage, "--config", str(workspace / "cfg.json"),
                         "--out", str(out), "--workers", "1"])

        stale = ["apld_ue3.pgm.partial", "matrix.cfmm.partial", "manifest.json.partial"]
        for name in stale + ["captures.cfmc.partial"]:
            (out / name).write_text("x\n")
        assert run("process") == 3
        assert [p.name for p in out.glob("*.partial")] == ["captures.cfmc.partial"]
        for name in stale:
            (out / name).write_text("x\n")
        assert run("simulate") == 0
        assert not list(out.glob("*.partial"))

    @pytest.mark.parametrize("manifest", [None, "[]", '{"stages": []}',
                                          '{"stages": {"process": 1}}'],
                             ids=["truncated", "list", "stages-list", "record-int"])
    def test_malformed_manifest_exit_3(self, workspace, finished_run, tmp_path, manifest):
        out = tmp_path / "out"
        shutil.copytree(finished_run, out)
        path = out / "manifest.json"
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2] if manifest is None else manifest.encode())
        before = digests(out)
        env = {**os.environ, "PYTHONPATH": str(Path(cfmm.__file__).parents[1])}
        for stage in ("simulate", "process", "export"):
            r = subprocess.run([sys.executable, "-m", "cfmm.cli", stage, "--config",
                                str(workspace / "cfg.json"), "--out", str(out),
                                "--workers", "1"],
                               env=env, capture_output=True, text=True, timeout=120)
            assert r.returncode == 3, r.stderr
            assert str(path) in r.stderr and "Traceback" not in r.stderr
            assert digests(out) == before

    def test_failed_pool_run_clears_worker_task(self, workspace, tmp_path,
                                                monkeypatch, capsys):
        real = sd.synthesize_chunk

        def fail_on_span_32(plan, m0, m1):
            if m0 == 32:
                raise ValueError("synthesis failed on span 32")
            return real(plan, m0, m1)

        monkeypatch.setattr(sd, "synthesize_chunk", fail_on_span_32)
        rc = main(["simulate", "--config", str(workspace / "cfg.json"),
                   "--out", str(tmp_path / "f"), "--workers", "2", "--chunk-size", "16"])
        assert rc == 1
        assert "span 32" in capsys.readouterr().err
        # The pool's worker global no longer holds the plan.
        assert pl._WORKER_TASK is None

    def test_failed_pool_run_cancels_pending_spans(self, workspace, tmp_path,
                                                   monkeypatch):
        real = sd.synthesize_chunk
        calls = tmp_path / "calls.txt"

        def fail_on_span_0(plan, m0, m1):
            with open(calls, "a") as fh:
                fh.write(f"{m0}\n")
            if m0 == 0:
                raise ValueError("synthesis failed on span 0")
            time.sleep(0.05)  # the parent cancels while the rest are pending
            return real(plan, m0, m1)

        monkeypatch.setattr(sd, "synthesize_chunk", fail_on_span_0)
        out = tmp_path / "f"
        out.mkdir()
        # An earlier run's captures, and a partial file an earlier killed run left.
        (out / "captures.cfmc").write_bytes((workspace / "out" / "captures.cfmc").read_bytes())
        (out / "captures.cfmc.partial").write_bytes(b"stale")
        rc = main(["simulate", "--config", str(workspace / "cfg.json"),
                   "--out", str(out), "--workers", "2", "--chunk-size", "4"])
        assert rc == 1
        # Of the 21 spans, those already handed to the workers still run.
        assert len(calls.read_text().split()) < 21
        assert not (out / "captures.cfmc").exists()
        assert not list(out.glob("*.partial"))

    @staticmethod
    def logged_simulate(workspace, tmp_path, monkeypatch, workers):
        """Run simulate on 81 captures in chunks of 16 and return the output
        directory and the events of every process, in the order they were
        logged: ("write", pid, m0), ("fadvise", pid, offset, length, advice),
        ("open", pid, fd, flags) of the partial capture file, ("sync", pid,
        fd) and ("replace", pid, name). Pool workers write the chunks, so
        every process appends its events to one log file."""
        log = tmp_path / "events.log"
        real_write, real_fadvise, real_open, real_sync, real_replace = (
            fm.CaptureWriter.write_chunk, os.posix_fadvise, os.open, os.fdatasync,
            os.replace)

        def event(*fields):
            fd = real_open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, " ".join(map(str, (fields[0], os.getpid(), *fields[1:])))
                         .encode() + b"\n")
            finally:
                os.close(fd)

        def write_chunk(self, m0, spectra):
            event("write", m0)
            real_write(self, m0, spectra)

        def fadvise(fd, offset, length, advice):
            event("fadvise", offset, length, advice)
            real_fadvise(fd, offset, length, advice)

        def open_(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            if Path(os.fsdecode(path)).name == "captures.cfmc.partial":
                event("open", fd, flags)
            return fd

        def sync(fd):
            event("sync", fd)
            real_sync(fd)

        def replace(src, dst):
            event("replace", Path(src).name)
            real_replace(src, dst)

        monkeypatch.setattr(fm.CaptureWriter, "write_chunk", write_chunk)
        monkeypatch.setattr(os, "posix_fadvise", fadvise)
        monkeypatch.setattr(os, "open", open_)
        monkeypatch.setattr(os, "fdatasync", sync)
        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(workspace / "cfg.json"), "--out", str(out),
                     "--workers", workers, "--chunk-size", "16"]) == 0
        events = [(kind, int(pid), *(int(f) if f.lstrip("-").isdigit() else f for f in rest))
                  for kind, pid, *rest in (e.split() for e in log.read_text().splitlines())]
        return out, events

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_capture_writeback_started_per_chunk(self, workspace, tmp_path, monkeypatch,
                                                 workers):
        out, events = self.logged_simulate(workspace, tmp_path, monkeypatch, workers)
        src = fm.open_captures(out / "captures.cfmc")
        row = src.n_ues * src.n_subcarriers * 8
        want = {m0: (src.spectra_offset + m0 * row, (min(m0 + 16, 81) - m0) * row,
                     os.POSIX_FADV_DONTNEED) for m0 in range(0, 81, 16)}
        # In each process, every write is followed by the fadvise of its own
        # range before that process writes again.
        writes = {}
        for pid in {e[1] for e in events if e[0] == "write"}:
            mine = [e for e in events if e[1] == pid and e[0] in ("write", "fadvise")]
            assert [e[0] for e in mine] == ["write", "fadvise"] * (len(mine) // 2)
            for w, f in zip(mine[::2], mine[1::2]):
                assert f[2:] == want[w[2]]
                writes[w[2]] = pid
        assert sorted(writes) == sorted(want)
        if workers == "2":
            assert os.getpid() not in writes.values()
        # No sync runs until the last chunk is written and advised.
        last_advice = max(i for i, e in enumerate(events) if e[0] == "fadvise")
        assert all(i > last_advice for i, e in enumerate(events) if e[0] == "sync")
        assert (out / "captures.cfmc").read_bytes() == \
            (workspace / "out" / "captures.cfmc").read_bytes()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_captures_synced_before_publish(self, workspace, tmp_path, monkeypatch,
                                            workers):
        out, events = self.logged_simulate(workspace, tmp_path, monkeypatch, workers)
        kinds = [e[0] for e in events]
        syncs = [i for i, k in enumerate(kinds) if k == "sync"]
        assert len(syncs) == 1  # the barrier, and nothing before it
        writes = [i for i, k in enumerate(kinds) if k == "write"]
        assert len(writes) == 6
        published = events.index(("replace", os.getpid(), "captures.cfmc.partial"))
        assert writes[-1] < syncs[0] < published
        # The synced descriptor is the partial's, opened write-only by the
        # stage process before the first write.
        _, pid, fd = events[syncs[0]]
        opens = [i for i, e in enumerate(events[:syncs[0]])
                 if e[:3] == ("open", pid, fd)]
        assert pid == os.getpid() and opens
        assert opens[-1] < writes[0]
        assert events[opens[-1]][3] & os.O_ACCMODE == os.O_WRONLY

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sync_error_exit_2_publishes_nothing(self, workspace, finished_run, tmp_path,
                                                 monkeypatch, capsys, workers):
        calls = []

        def failing_sync(fd):
            calls.append(fd)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        out = tmp_path / "o"
        shutil.copytree(finished_run, out)  # an earlier run's outputs and records
        fds = sorted(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fdatasync", failing_sync)
        rc = main(["simulate", "--config", str(workspace / "cfg.json"), "--out", str(out),
                   "--workers", workers, "--chunk-size", "16"])
        assert rc == 2
        assert len(calls) == 1
        err = capsys.readouterr().err
        assert f"{out / 'captures.cfmc.partial'}: cannot sync" in err
        assert os.strerror(errno.EIO) in err
        assert not (out / "captures.cfmc").exists()
        assert not list(out.glob("*.partial"))
        assert "simulate" not in json.loads((out / "manifest.json").read_text())["stages"]
        assert sorted(os.listdir("/proc/self/fd")) == fds

    def test_full_disk_fails_at_creation_exit_2(self, workspace, tmp_path, monkeypatch,
                                                 capsys):
        out = tmp_path / "full"

        def no_space(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", no_space)
        monkeypatch.setattr(sd, "synthesize_chunk", None)  # no span may start
        assert main(["simulate", "--config", str(workspace / "cfg.json"),
                     "--out", str(out), "--workers", "1"]) == 2
        err = capsys.readouterr().err
        n_bytes = 81 * 8 * 2801 * 8  # captures x UEs x tones x complex64
        assert "captures.cfmc.partial" in err and f"{n_bytes} bytes" in err
        assert "No space left on device" in err
        assert sorted(p.name for p in out.iterdir()) == []

    def test_failed_export_leaves_no_heatmap(self, workspace, tmp_path, monkeypatch,
                                              capsys):
        out = tmp_path / "e"

        def run(stage):
            return main([stage, "--config", str(workspace / "cfg.json"), "--out", str(out),
                         "--captures", str(workspace / "out" / "captures.cfmc"),
                         "--workers", "1"])

        assert run("process") == 0 and run("export") == 0
        assert len(list(out.glob("apld_ue*.pgm"))) == 8
        real = ap.export_heatmap

        def fail_on_ue_3(aplds, paths):
            real(aplds[:3], paths[:3])
            raise ValueError(f"heatmap failed on UE {aplds[3].ue_id}")

        monkeypatch.setattr(ap, "export_heatmap", fail_on_ue_3)
        assert run("export") == 1
        assert "UE 3" in capsys.readouterr().err
        assert not list(out.glob("apld_ue*.pgm"))
        assert not list(out.glob("annotations_ue*.csv"))
        assert not list(out.glob("*.partial"))

    @staticmethod
    def export_rejects(finished_run, tmp_path, capsys, config, captures, message):
        """export with config and the captures at captures, over a copy of
        a finished run: exit 3 with message, and every file and the export
        record kept."""
        out = shutil.copytree(finished_run, tmp_path / "e")
        before = digests(out)
        assert "export" in json.loads((out / "manifest.json").read_text())["stages"]
        capsys.readouterr()
        assert main(["export", "--config", str(config), "--out", str(out),
                     "--captures", str(captures)]) == 3
        err = capsys.readouterr().err
        assert f"{out / 'matrix.cfmm'}: {message}, the value process writes" in err
        assert "Traceback" not in err
        assert digests(out) == before

    def test_export_rejects_captures_of_other_ue_count(self, workspace, finished_run,
                                                       tmp_path, capsys):
        # A capture file of the same 81 poses but only the first 4 UEs,
        # against the 8-UE matrix.
        cfg = cfgmod.load_config(workspace / "cfg.json")
        plan = sd.plan_campaign(sc.load_scene(cfg.scene), cfg.waveform, cfg.impairments,
                                cfg.seed, site=cfg.site)
        counts = np.diff(plan.row_splits).reshape(plan.n_captures, 8)
        paths = np.repeat(np.tile(np.arange(8) < 4, plan.n_captures), counts.ravel())
        plan = replace(plan, ue_positions=plan.ue_positions[:4],
                       path_gains=plan.path_gains[paths], path_delays=plan.path_delays[paths],
                       row_splits=np.concatenate([[0], np.cumsum(counts[:, :4])]),
                       measured_power_dbm=plan.measured_power_dbm[:, :4],
                       link_class=plan.link_class[:, :4])
        self.export_rejects(finished_run, tmp_path, capsys, workspace / "cfg.json",
                            write_captures(tmp_path / "other.cfmc", plan),
                            "header n_ues is 8, expected 4")

    def test_export_rejects_captures_of_other_capture_count(self, workspace, finished_run,
                                                            tmp_path, capsys):
        # A capture file of the first 20 of the 81 poses.
        cfg = cfgmod.load_config(workspace / "cfg.json")
        plan = sd.plan_campaign(first_poses(sc.load_scene(cfg.scene), 20), cfg.waveform,
                                cfg.impairments, cfg.seed, site=cfg.site)
        assert plan.n_captures == 20
        self.export_rejects(finished_run, tmp_path, capsys, workspace / "cfg.json",
                            write_captures(tmp_path / "other.cfmc", plan),
                            "header n_captures is 81, expected 20")

    def test_export_rejects_matrix_of_other_delta_n(self, workspace, finished_run,
                                                    tmp_path, capsys):
        # The run processed at the default delta_n_db of 7 dB.
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["pipeline"] = {"delta_n_db": 8.0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        self.export_rejects(finished_run, tmp_path, capsys, tmp_path / "cfg.json",
                            finished_run / "captures.cfmc",
                            "header delta_n_db is 7.0, expected 8.0")

    @pytest.mark.parametrize("bad", [-1.0, np.nan], ids=["negative", "nan"])
    def test_corrupt_matrix_value_exit_3(self, workspace, tmp_path, capsys, bad):
        out = tmp_path / "v"

        def run(stage):
            return main([stage, "--config", str(workspace / "cfg.json"), "--out", str(out),
                         "--captures", str(workspace / "out" / "captures.cfmc"),
                         "--workers", "1"])

        assert run("process") == 0
        path = out / "matrix.cfmm"
        row = set_first_value(path, bad)
        capsys.readouterr()
        assert run("export") == 3
        err = capsys.readouterr().err
        block = row // 8 // fm.BLOCK_CAPTURES * fm.BLOCK_CAPTURES
        assert f"{path}: captures {block}.." in err
        assert "stored values must be finite and non-negative" in err
        assert not list(out.glob("apld_ue*.pgm"))
        assert not list(out.glob("*.partial"))

    @pytest.mark.parametrize("byte", range(16, 40))
    def test_export_checks_matrix_header(self, processed_24, tmp_path, capsys, byte):
        # Bytes 16-39 hold n_bins, bin_width_s, oversample_factor and
        # delta_n_db. Any change to one exits 3, naming the file and the
        # field, before export writes or deletes anything.
        field = ("n_bins" if byte < 20 else "bin_width_s" if byte < 28
                 else "oversample_factor" if byte < 32 else "delta_n_db")
        out = tmp_path / "x"
        out.mkdir()
        pristine = (processed_24 / "out" / "matrix.cfmm").read_bytes()
        for flip in (0x01, 0xFF):
            (out / "matrix.cfmm").write_bytes(
                pristine[:byte] + bytes([pristine[byte] ^ flip]) + pristine[byte + 1:])
            capsys.readouterr()
            assert main(["export", "--config", str(processed_24 / "cfg.json"), "--out",
                         str(out), "--captures",
                         str(processed_24 / "out" / "captures.cfmc")]) == 3
            err = capsys.readouterr().err
            assert f"{out / 'matrix.cfmm'}: header {field} is " in err
            assert "Traceback" not in err
            assert sorted(p.name for p in out.iterdir()) == ["matrix.cfmm"]

    def test_export_rejects_matrix_of_other_pipeline(self, processed_24, tmp_path, capsys):
        cfg = json.loads((processed_24 / "cfg.json").read_text())
        cfg["pipeline"] = {"gate_native_bins": 300}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = processed_24 / "out"
        before = digests(out)
        assert main(["export", "--config", str(tmp_path / "cfg.json")]) == 3
        err = capsys.readouterr().err
        assert (f"{out / 'matrix.cfmm'}: header n_bins is 4000, expected 3000, the value "
                "process writes for this config's pipeline") in err
        assert digests(out) == before

    def test_export_has_no_chunk_size(self, workspace, finished_run, capsys):
        before = digests(finished_run)
        with pytest.raises(SystemExit) as exit_:
            main(["export", "--config", str(workspace / "cfg.json"),
                  "--out", str(finished_run), "--chunk-size", "16"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --chunk-size 16" in capsys.readouterr().err
        assert digests(finished_run) == before

    @pytest.mark.parametrize("size", ["0", "-16"])
    def test_bad_chunk_size_exit_1(self, workspace, finished_run, capsys, size):
        before = digests(finished_run)
        rc = main(["process", "--config", str(workspace / "cfg.json"),
                   "--out", str(finished_run), "--workers", "1", "--chunk-size", size])
        assert rc == 1
        assert f"chunk_size = {size}: must be >= 1" in capsys.readouterr().err
        # The previous run's matrix, summary, heatmaps and manifest survive.
        assert digests(finished_run) == before

    @pytest.mark.parametrize("stage,flag,value,message", [
        ("simulate", "--workers", "-1", "workers = -1: must be >= 0"),
        ("process", "--workers", "-1", "workers = -1: must be >= 0"),
        ("export", "--workers", "-1", "workers = -1: must be >= 0"),
        ("simulate", "--chunk-size", "0", "chunk_size = 0: must be >= 1"),
    ], ids=["simulate-workers", "process-workers", "export-workers", "simulate-chunk"])
    def test_bad_flag_exit_1_before_any_work(self, workspace, finished_run, capsys,
                                             monkeypatch, stage, flag, value, message):
        def no_plan(*args, **kwargs):
            raise AssertionError("planned a campaign before checking the flags")

        monkeypatch.setattr(sd, "plan_campaign", no_plan)
        before = digests(finished_run)
        rc = main([stage, "--config", str(workspace / "cfg.json"),
                   "--out", str(finished_run), flag, value])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert digests(finished_run) == before

    def test_pipeline_flag_override(self, workspace, tmp_path):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["pipeline"] = {"gate_native_bins": 200}
        cfgp = tmp_path / "gate.json"
        cfgp.write_text(json.dumps(cfg))
        cap = str(workspace / "out" / "captures.cfmc")
        o = tmp_path / "gated"
        assert main(["process", "--config", str(cfgp), "--captures", cap,
                     "--out", str(o), "--workers", "1"]) == 0
        mat = fm.read_matrix(o / "matrix.cfmm")
        assert dense(mat)[0].shape[2] == 2000

    @pytest.mark.parametrize("stage,flag,value", [
        ("simulate", "--seed", "6"), ("process", "--beta", "2.5"),
        ("process", "--pad", "8"), ("process", "--ssa", "5"),
        ("process", "--delta-n", "6"), ("process", "--gate", "200"),
        ("process", "--guard", "3"),
    ])
    def test_removed_parameter_flags_exit_2(self, workspace, tmp_path, capsys,
                                            stage, flag, value):
        # Run parameters come from the config file only, so the manifest's
        # seed and config hash are the ones that made the outputs.
        with pytest.raises(SystemExit) as exc:
            main([stage, "--config", str(workspace / "cfg.json"),
                  "--out", str(tmp_path / "x"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_captures_exit_2(self, workspace, tmp_path, capsys):
        cfgp = str(workspace / "cfg.json")
        rc = main(["process", "--config", cfgp, "--captures",
                   str(tmp_path / "nowhere.cfmc"), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "run simulate first" in capsys.readouterr().err

    def test_version_mismatch_exit_3(self, workspace, tmp_path, capsys):
        raw = bytearray((workspace / "out" / "captures.cfmc").read_bytes())
        raw[4:8] = (250).to_bytes(4, "little")
        bad = tmp_path / "bad.cfmc"
        bad.write_bytes(bytes(raw))
        rc = main(["process", "--config", str(workspace / "cfg.json"),
                   "--captures", str(bad), "--out", str(tmp_path / "y")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "version 250" in err and "expected 2" in err

    def test_version_1_captures_exit_3(self, workspace, finished_run, tmp_path, capsys):
        # Neither stage reads an older capture file, and neither touches an
        # earlier run's files or records.
        out = shutil.copytree(finished_run, tmp_path / "o")
        with open(out / "captures.cfmc", "r+b") as fh:
            fh.seek(4)  # the u32 version after the magic
            fh.write(np.uint32(1).tobytes())
        before = digests(out)
        assert {"simulate", "process", "export"} <= json.loads(
            (out / "manifest.json").read_text())["stages"].keys()
        for stage in ("process", "export"):
            capsys.readouterr()
            assert main([stage, "--config", str(workspace / "cfg.json"), "--out", str(out),
                         "--workers", "1"]) == 3
            err = capsys.readouterr().err
            assert (f"{out / 'captures.cfmc'}: capture format version 1 is no longer read "
                    "(expected 2); re-run simulate to rewrite it") in err
            assert "Traceback" not in err
            assert digests(out) == before

    def test_truncated_spectra_exit_3(self, workspace, tmp_path, capsys):
        raw = (workspace / "out" / "captures.cfmc").read_bytes()
        bad = tmp_path / "short.cfmc"
        bad.write_bytes(raw[:-4096])
        rc = main(["process", "--config", str(workspace / "cfg.json"),
                   "--captures", str(bad), "--out", str(tmp_path / "z")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "truncated spectra" in err
        assert not (tmp_path / "z" / "matrix.cfmm").exists()

    def test_capture_file_shrunk_after_open_exit_3(self, workspace, tmp_path, capsys,
                                                    monkeypatch):
        # open_captures checks the file's size; a file cut short after that
        # fails at the read of the first capture range it no longer holds.
        bad = tmp_path / "shrunk.cfmc"
        bad.write_bytes((workspace / "out" / "captures.cfmc").read_bytes())
        opened = fm.open_captures
        n_captures = opened(bad).n_captures
        assert n_captures <= 128  # one chunk, which reads every capture

        def open_then_shrink(path):
            source = opened(path)
            os.truncate(path, os.path.getsize(path) - 4096)
            return source

        monkeypatch.setattr(fm, "open_captures", open_then_shrink)
        rc = main(["process", "--config", str(workspace / "cfg.json"), "--captures",
                   str(bad), "--out", str(tmp_path / "z"), "--workers", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{bad}: captures 0..{n_captures - 1}: truncated spectra" in err
        assert not (tmp_path / "z" / "matrix.cfmm").exists()

    def test_trailing_bytes_after_spectra_exit_3(self, workspace, tmp_path, capsys):
        raw = (workspace / "out" / "captures.cfmc").read_bytes()
        bad = tmp_path / "long.cfmc"
        bad.write_bytes(raw + bytes(8))
        rc = main(["process", "--config", str(workspace / "cfg.json"),
                   "--captures", str(bad), "--out", str(tmp_path / "z")])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "8 bytes after the spectra" in err
        assert not (tmp_path / "z" / "matrix.cfmm").exists()

    def test_zero_filled_capture_exit_3(self, workspace, tmp_path, capsys):
        # An interrupted simulate leaves pre-sized, zero-filled spectra.
        bad = tmp_path / "zeroed.cfmc"
        bad.write_bytes((workspace / "out" / "captures.cfmc").read_bytes())
        zero_capture(bad, 17)
        rc = main(["process", "--config", str(workspace / "cfg.json"),
                   "--captures", str(bad), "--out", str(tmp_path / "z"), "--workers", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "capture 17" in err and "all zero" in err

    def test_nan_tone_exit_3(self, tmp_path, capsys):
        # One NaN tone in capture 30, UE 2 of a 64-capture canyon plan. Read
        # unchecked, it makes that row's noise level NaN, and the small-scale
        # average spreads it so captures 26-34 of UE 2 keep no bins while
        # process exits 0.
        scene = sc.load_scene(cfgmod.resolve_scene_path("bundled:canyon"))
        plan = sd.plan_campaign(first_poses(scene, 64), wf.WaveformSpec(),
                                sd.ImpairmentConfig(), seed=7)
        bad = tmp_path / "nan.cfmc"
        fm.CaptureWriter(bad, plan).write_chunk(0, sd.synthesize_chunk(plan, 0, 64))
        src = fm.open_captures(bad)
        tone = (30 * src.n_ues + 2) * src.n_subcarriers + 1400
        with open(bad, "r+b") as fh:
            fh.seek(src.spectra_offset + tone * 8)
            fh.write(np.array([np.nan + 0j], dtype="<c8").tobytes())
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"scene": "bundled:canyon", "seed": 7}))
        rc = main(["process", "--config", str(cfgp), "--captures", str(bad),
                   "--out", str(tmp_path / "n"), "--workers", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "capture 30, UE 2" in err and "NaN" in err
        assert not (tmp_path / "n" / "matrix.cfmm").exists()

    def test_out_of_memory_exit_4(self, workspace, tmp_path, monkeypatch, capsys):
        out = tmp_path / "m"
        out.mkdir()
        (out / "matrix.cfmm").write_bytes(b"")

        def no_memory(path):
            raise MemoryError("Unable to allocate 2.6 GiB")

        monkeypatch.setattr(fm, "read_matrix", no_memory)
        rc = main(["export", "--config", str(workspace / "cfg.json"), "--out", str(out),
                   "--captures", str(workspace / "out" / "captures.cfmc")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error: export: out of memory" in err and "2.6 GiB" in err

    @pytest.mark.parametrize("region", [[450, 2802], [2801, None]])
    def test_noise_region_outside_profile_exit_1(self, workspace, tmp_path,
                                                 capsys, region):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["pipeline"] = {"noise_region_native": region}
        p = tmp_path / "region.json"
        p.write_text(json.dumps(cfg))
        rc = main(["process", "--config", str(p), "--captures",
                   str(workspace / "out" / "captures.cfmc"),
                   "--out", str(tmp_path / "r"), "--workers", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "pipeline.noise_region_native" in err and "2801" in err
        assert not (tmp_path / "r" / "matrix.cfmm").exists()

    def test_out_root_env(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("CFMM_OUT_ROOT", str(tmp_path / "root"))
        scene_path = workspace / "scene.json"
        p = tmp_path / "rel.json"
        p.write_text(json.dumps({"scene": str(scene_path), "seed": 5,
                                 "output_dir": "runs/demo"}))
        cap = str(workspace / "out" / "captures.cfmc")
        assert main(["process", "--config", str(p), "--captures", cap,
                     "--workers", "1"]) == 0
        assert (tmp_path / "root" / "runs" / "demo" / "matrix.cfmm").exists()

    def test_seed_flag_changes_captures(self, workspace, tmp_path):
        cfg = json.loads((workspace / "cfg.json").read_text())
        cfg["seed"] = 6
        cfgp = tmp_path / "seed6.json"
        cfgp.write_text(json.dumps(cfg))
        o = tmp_path / "seeded"
        assert main(["simulate", "--config", str(cfgp), "--out", str(o),
                     "--workers", "1"]) == 0
        assert (o / "captures.cfmc").read_bytes() != \
            (workspace / "out" / "captures.cfmc").read_bytes()
        assert fm.open_captures(o / "captures.cfmc").seed == 6
