"""Pinned output digests: simulate, process and export through the CLI at
seed 7 on two fixed windows must write the same bytes as when the pins
were taken.

A change that moves an output byte fails here, naming each file that
differs. Such a change updates the pins in the same diff and says so in
CHANGES.md. The pins were taken with numpy 2.4.6 at its AVX512_SPR SIMD
level: the bytes depend on numpy's FFT and on its float64 and float32
transcendental functions, which round differently on each SIMD level, so
another numpy version or CPU may fail here too, and the failure names
the version and level of the pins and of the run.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cfmm import scene as sc
from cfmm.formats import open_captures
from cfmm.cli import main
from cfmm.config import resolve_scene_path

from conftest import first_poses

PINNED_NUMPY = "2.4.6"
PINNED_SIMD = "AVX512_SPR"  # the highest dispatch target numpy ran
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
            "5abfd8f42261670bb94b91f75f2af3d7b1917b470bd661d62115601bd1c8813d",
        "annotations_ue1.csv":
            "b88a7f5c2ffcf267b5c2a1c8fa16734442dd519e0ad8ab6f1d386575a0396854",
        "annotations_ue2.csv":
            "83076a60bfb8129d0a300117f260a486bd9e7daada506a199484ad7e7be5794d",
        "annotations_ue3.csv":
            "8abc34e20f2a35e4f9d0f161b0fa1b0e11e4b056d4df477ad8a84cee8432aa08",
        "annotations_ue4.csv":
            "659273d2e23e6e7c57c61a4a454ccae1f68b0ba01c4e2cf8576987c594e09ace",
        "annotations_ue5.csv":
            "41182fb29f43ec83a6bc0952317addff014acba5c3f0ed51ae2215600ba98810",
        "annotations_ue6.csv":
            "80e9c83ddfdb98f3d12395deb6242d221af46aba7c5a1691b77c1bb00b1fcd00",
        "annotations_ue7.csv":
            "a2c950fb714637d1ab1b4f0a87cc771c87f828d280fda0e63bfcdcabb63f8566",
        "apld_ue0.pgm":
            "20207e1321f9ec453cfdf289d35d795ce6cb253e0bc5490253c60715a1a8c29b",
        "apld_ue1.pgm":
            "b63951453512251af9d1a1d9b2e3c041bad14ec39e38281338586e264f701f95",
        "apld_ue2.pgm":
            "5beb25d0acdc06a9d5ccd87893c603cdd3e13561302be06d204b2ed186201ef4",
        "apld_ue3.pgm":
            "6a7d931d6a73f2dbb7a853661665da2d6cbfa3bb411e3195a58e031af50e08f8",
        "apld_ue4.pgm":
            "cd97184e70dfe0c4b6e15c8fcd136f3cbdd8f5dec0a4f6204e6e01820378e097",
        "apld_ue5.pgm":
            "182f0940d8a4d0c870b58d392ba397e0ac1b2688148e8e98be77f8653c36f231",
        "apld_ue6.pgm":
            "0c9ad7515bffcaa2a898e38327a732a7519a3fe905326852d82eb25596d315ec",
        "apld_ue7.pgm":
            "f64290e6cd8224f57818e963f36269e30bc39421c3a09c3e531af2aa7737908f",
        "captures.cfmc":
            "af984dba9df7246a07a91da3b51691c1c9d079019d209d15a8c39ebfd7a0186b",
        "matrix.cfmm":
            "87a74445f21f3b4a61bc3cc8b4b80a6e11dd83a3aa4bc5e9a0d8ee141502386e",
        "summary.csv":
            "ec53dc62aa5aa94d42290c7f39796ddd3489919c55823d3ad80942a38804429b",
    },
    "full_mixed_links": {
        "annotations_ue0.csv":
            "b95bdb065d8f07d6f1a09e5ef36775e6dc4f9a844dd52b619de1f2d778fbb284",
        "annotations_ue1.csv":
            "7a4838f9b783579744bb76ff375c33dffb081b074a843c79e4f4412e17a86fde",
        "annotations_ue2.csv":
            "1641dadf971d5b69320b46c229028c34647561277d3f3ca06f93b9d87e8dcae3",
        "annotations_ue3.csv":
            "f4e88a6bd13a08a27939f9b08f53123586c8a84f21f2fda56d308b039e0a9fb9",
        "annotations_ue4.csv":
            "89aa97b642f7babafcdf60af2f538a263b25fef846f0310e9819d8a40d1eddb6",
        "annotations_ue5.csv":
            "aac8d08cef9b37e21b162ed3f208397042880e7a8a823d8eb5ae16723460588a",
        "annotations_ue6.csv":
            "bd8ef02b99bd6a623506bcc8f96482483104d9c5ed1f12cc2898ad554370c7aa",
        "annotations_ue7.csv":
            "0108a466ce2d728b46a79378fa31c97515e7c72193a204f19cbc18f81af10b37",
        "apld_ue0.pgm":
            "5fa08b6e6e8f1c2fec0601f0a51818cfaa85725897a44c08b362e230d3f25269",
        "apld_ue1.pgm":
            "30fb1cca218e6d7803d60e9da117cd638c26f17879b371e969fad11a85041ba3",
        "apld_ue2.pgm":
            "3f9692d25e571696992baf106507f987950903ad5e22df072bb5fc799fca3e4d",
        "apld_ue3.pgm":
            "fa52fe7c9cf1778e553b72deebc1657888c15bc7132bde419fdbdd57f13e83fd",
        "apld_ue4.pgm":
            "6d950d709c5229398dd7cb3afa2ee2ccd791bb4e5ab3c0ba174ca42afa5720b0",
        "apld_ue5.pgm":
            "b6d85a267e9e10d86c0ee26f4e1c436a7303c9de34629b8b6b7753e3edcc65aa",
        "apld_ue6.pgm":
            "fbbee69f37ca1fbac8a8020d4adc97cf7491842efa9652b12a004bbf99298d71",
        "apld_ue7.pgm":
            "fbbee69f37ca1fbac8a8020d4adc97cf7491842efa9652b12a004bbf99298d71",
        "captures.cfmc":
            "641ad842b691c0e16ddf3f150066397022b4bf859f89d902628e746d02cf6915",
        "matrix.cfmm":
            "db06f0666bc780f0b6952df034925144bce0908e5ddc5f38199dea3dd42bcdf5",
        "summary.csv":
            "5c3be7b97fddb8b637d954b0d426b273a578312e180639121c54f0b453907f4a",
    },
}

# Window -> sha256 of captures.cfmc from spectra_offset to the end: the
# recorded spectra alone. A change to the capture layout moves the
# whole-file pin above but not this one.
PINNED_SPECTRA = {
    "canyon": "84f181f0e2df949e5a237027a020ef9a60e5e14e85b10518d73d917219fd7aae",
    "full_mixed_links": "190446ada05bd9f81a93a54dd26b6c91fd365ad377076f6d6a2be3c943966fec",
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
    umath = np._core._multiarray_umath
    level = [t for t in umath.__cpu_baseline__ + umath.__cpu_dispatch__
             if umath.__cpu_features__.get(t)][-1]
    return (f"Pinned with numpy {PINNED_NUMPY} at SIMD level {PINNED_SIMD}; "
            f"running numpy {np.__version__} at SIMD level {level}.")


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


def test_capture_spectra_match_pin(window):
    name, d = window
    path = d / "out" / "captures.cfmc"
    offset = open_captures(path).spectra_offset
    got = hashlib.sha256(path.read_bytes()[offset:]).hexdigest()
    assert got == PINNED_SPECTRA[name], (
        f"{name}: the spectra of {path} (from byte {offset} on) differ from the pin. Run "
        f"the window's config {d / 'cfg.json'} on a tree that matches the pins and explain "
        f"the difference with `PYTHONPATH=src python3 tools/compare_outputs.py {d / 'out'} "
        "<that tree's output dir>`. " + _versions())


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
