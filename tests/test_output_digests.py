"""Pinned output digests: simulate, process and export through the CLI at
seed 7 on two fixed windows must write the same bytes as when the pins
were taken.

A change that moves an output byte fails here, naming each file that
differs. Such a change updates the pins in the same diff and says so in
CHANGES.md. The pins were taken with numpy 2.4.6: the bytes depend on
numpy's FFT and its float32 log, sin and cos, so another numpy version
may fail here too, and the failure names both versions.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cfmm import scene as sc
from cfmm.cli import main
from cfmm.config import resolve_scene_path

from conftest import first_poses

PINNED_NUMPY = "2.4.6"
TOOLS = Path(__file__).resolve().parent.parent / "tools"

# Window name -> (bundled scene, poses, first pose).
WINDOWS = {
    "canyon": ("canyon", 24, 0),
    # 302 of its 512 links have no traced path.
    "full_mixed_links": ("full", 64, 896),
}

# Window -> output file -> sha256; every output but manifest.json.
PINNED_FILES = {
    "canyon": {
        "annotations_ue0.csv":
            "490c16de0ae0defec1591622b6f86e1ee07836204e38d71fc2b176997e4325e4",
        "annotations_ue1.csv":
            "b9cb325e93ab649d8f90a9627f22c99e4e0782603de3e098397bf21332566ebe",
        "annotations_ue2.csv":
            "d55f63d2d5329950ea91010ded59eacec42d952d8e5073eb6882f1cff29ca21a",
        "annotations_ue3.csv":
            "ba9e27aee24c5a98fadb7fb58e70011969e76959ac665dac72c290dce0a63aa7",
        "annotations_ue4.csv":
            "ad996bc6724770acdf3c56eb803d5924ad6ba113f1872e732e66306bb754ca17",
        "annotations_ue5.csv":
            "775d30579950bc86fc32a14f17e20d0d9d0b1f339e54d8503c83da4108fe12e9",
        "annotations_ue6.csv":
            "a3da549ff9df0048c757ac945220cea137b8694a7d5fcb77a03ea9478a99f1ba",
        "annotations_ue7.csv":
            "3a363f170d2b2d524536c0a4be098dbfeb5dcb816c04cc92d87003f56c59ffca",
        "apld_ue0.pgm":
            "d51ed6c22b46465f22d1fe727b7890b67be798cc3ad53c5051dcea2c8af25d62",
        "apld_ue1.pgm":
            "b7aec624e7fa189ab153fa698c591bd4a768614fb45699db8bd1cf4cd6856a7f",
        "apld_ue2.pgm":
            "885f17a9b9a1621df0fb4af3d2e98649fe37bc858ee3ec8d833d9e6b81e41ebd",
        "apld_ue3.pgm":
            "9210362ea2a18b2c2b7bb37bce394c22fe82e48286f58a4998d549aa20541c26",
        "apld_ue4.pgm":
            "1ff0c5ff0de3830421986cab92b399a01e6ac8095bf62be006166042092978dd",
        "apld_ue5.pgm":
            "3e63af2105ee31d0827baede6413d221f0ad20768e5d45eb0e52e69c74f4c4eb",
        "apld_ue6.pgm":
            "73304cf22dea17df430590a908aa05db5026b62e2be61c78771fc6ee41e1ad89",
        "apld_ue7.pgm":
            "ad67c23571243fddf20421a7945ec15d57fa05cf0036f1b7544c6cf5ea7abdd6",
        "captures.cfmc":
            "ae7251deff4835356e3a010cbfb3a8989b190f6e646509632ffb5bc2858ced67",
        "matrix.cfmm":
            "7585b39b49c1945dbd4a9ab2ee3f6c0287e2e3a2deb825ffe408e7bfcfd2654a",
        "summary.csv":
            "440ca7ffb6705b3b2655732521d72b47827c798932525602e596350e885ca0d9",
    },
    "full_mixed_links": {
        "annotations_ue0.csv":
            "265b17ae3d6f59fd98ac63bb283ac47b848acf65b3bfc7e58f63951b3d72d840",
        "annotations_ue1.csv":
            "07accd97e2cdb3c6319b67550181009f1e2c7633644fb6c8480b166860a94bd5",
        "annotations_ue2.csv":
            "d5319ea7fff1e6ff1ff16ea5d6da8abb43bd5069326dbf466fe2400397cd114d",
        "annotations_ue3.csv":
            "18a033a0c4a7dafde20f258b06496e479d1cfe832912185c03190cf5d1d275d4",
        "annotations_ue4.csv":
            "fa3bfe11ffff0cd8dfb02ebadcc0e38a2b30b37a3cdace5ce86648be239283e6",
        "annotations_ue5.csv":
            "cff8e934f6bcbb3a264c9b9d8a609a8f29f84fda206fcb01ed8a8a39627cd4b1",
        "annotations_ue6.csv":
            "5962e6b30525abc00071f0afdebb4026c3a69a6b5cabf6cb379fb4bd37ca082f",
        "annotations_ue7.csv":
            "d76c1130de927d341c071cd10c8009cbdadca5f2d9dd1ad10c70a9ddc898f299",
        "apld_ue0.pgm":
            "c72cee3b3598c7cbba5e89be40f66ace812cfd9dacca67fa523ea3878c0618db",
        "apld_ue1.pgm":
            "b704462e47a87a95ce0077336bded82ac52c172013c76ea6ae70b72c3aeb8f71",
        "apld_ue2.pgm":
            "1df9c26577ecb9ab5242f71573d4fcabe8705644a84ac26f06173d2e80ab88e6",
        "apld_ue3.pgm":
            "5ad69e056949a4e561acb89cff413e344c06c9131c81fee87206296083c5c02e",
        "apld_ue4.pgm":
            "d928328860f68d9894883c235363064d9454c9f8d033563f931a2c44a37d8cbc",
        "apld_ue5.pgm":
            "7638191f7a2ad0e0d3b7ba79ad83b5cc7335302344d39e4e52a5273c78184332",
        "apld_ue6.pgm":
            "fbbee69f37ca1fbac8a8020d4adc97cf7491842efa9652b12a004bbf99298d71",
        "apld_ue7.pgm":
            "fbbee69f37ca1fbac8a8020d4adc97cf7491842efa9652b12a004bbf99298d71",
        "captures.cfmc":
            "6672bbb31ab8a9a07f4821cb82fce734a68ff768c750b9b139b553d179ac2995",
        "matrix.cfmm":
            "809d6efc3c8e7be744566bb54f721a5df85b7d8352b734b8209415924cf9ef09",
        "summary.csv":
            "d36c7f0f5c9d3ef8c3e514304f0b16bad8e1800b69e4a8ab60df9a7cdce397fc",
    },
}

# Window -> the lines tools/trace_digest.py prints for its scene.
PINNED_TRACES = {
    "canyon": [
        "ue 0 76620836fe0f6d71b1f4dc0314b73d5d151428227e9ab6db2842b35f903ed973",
        "ue 1 bd5a211a9223348102bcb5c8aaa899b8a3211381e6ecc7cd98fd02b4743fd753",
        "ue 2 2278737b3939e249a44c17db3714c74d8e18c2b1e75aa897ac9e097dfaeeb493",
        "ue 3 c1b57db528b39b7edb27edd81191a761d5a3eea6413048da5cdf65519a4f9fc1",
        "ue 4 303fd066dba555ba9aeab1ab28e6cb347b6ca810b5fa3b78b4e76e1c568ac91b",
        "ue 5 128b3e9909ca939366941d35e798cb497e1b242d21b78f769b6a0e0c802ce1c4",
        "ue 6 8c36ec51dd80b31137ec610dd21aa62aa8a6ebd6a4f29dac24906cb94d83ee9c",
        "ue 7 6b6c8ea6ff9663e53fe6121264d51f154b26f42739748fc52877dbb844f355aa",
    ],
    "full_mixed_links": [
        "ue 0 36e5a415a6f6a79f5caf62c68d21013e8bc96ac77ff5c5cb1c49ddb75ef94c2a",
        "ue 1 d81abccfba42ac06a59b161ddc55136b90126d8b7e5cacde4d3f9d934e1e1053",
        "ue 2 19d0558ea44e3d7164aceaf49779c7a764980a23ae9618acc2849b28837024f2",
        "ue 3 ca932d89f25eb76d1f7a07751e31092c8e1caa04929023a7fc6bd68575b26cab",
        "ue 4 4ac2369a6a5aeddd9995ebb2c3ccdf0836c7d4a396b1c9bbb5d9e993e76f0de8",
        "ue 5 eb037909f07241aa3359c964bbad6673d44f2df00e4aaf1f5f176b2f5e7c0f6c",
        "ue 6 f83b332be4e6a5a4b1c56aaf6db52657da495e149870057d8590ab9d7a6167ad",
        "ue 7 f83b332be4e6a5a4b1c56aaf6db52657da495e149870057d8590ab9d7a6167ad",
    ],
}


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module", params=list(WINDOWS))
def window(request, tmp_path_factory):
    """(name, directory): the window's scene.json and cfg.json, and out/
    holding its simulate, process and export outputs."""
    name = request.param
    bundled, n_poses, skip = WINDOWS[name]
    d = tmp_path_factory.mktemp(name)
    full = sc.load_scene(resolve_scene_path(f"bundled:{bundled}"))
    sc.save_scene(first_poses(full, n_poses, skip=skip), d / "scene.json")
    (d / "cfg.json").write_text(json.dumps(
        {"scene": str(d / "scene.json"), "seed": 7, "output_dir": str(d / "out")}))
    for stage in ("simulate", "process", "export"):
        assert main([stage, "--config", str(d / "cfg.json"), "--workers", "1"]) == 0
    return name, d


def _versions() -> str:
    return f"Pinned with numpy {PINNED_NUMPY}; running numpy {np.__version__}."


def test_output_files_match_pins(window):
    name, d = window
    out = d / "out"
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.iterdir()) if p.name != "manifest.json"}
    pinned = PINNED_FILES[name]
    differ = sorted(f for f in got.keys() | pinned.keys() if got.get(f) != pinned.get(f))
    assert not differ, (
        f"{name}: outputs differ from the pins: {', '.join(differ)}. Run the window's "
        f"config {d / 'cfg.json'} on a tree that matches the pins and explain the "
        f"difference with `PYTHONPATH=src python3 tools/compare_outputs.py {out} "
        f"<that tree's output dir>`. " + _versions())


def test_trace_digests_match_pins(window, capsys):
    name, d = window
    assert _load_tool("trace_digest").main([str(d / "scene.json")]) == 0
    got = capsys.readouterr().out.splitlines()
    pinned = PINNED_TRACES[name]
    differ = [f"ue {j}" for j in range(max(len(got), len(pinned)))
              if got[j:j + 1] != pinned[j:j + 1]]
    assert not differ, (
        f"{name}: trace digests differ from the pins: {', '.join(differ)}. Compare "
        f"`PYTHONPATH=src python3 tools/trace_digest.py {d / 'scene.json'}` on a tree "
        f"that matches the pins. " + _versions())
