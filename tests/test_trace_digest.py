"""tools/trace_digest.py: one digest per UE, stable for a scene and changed
by an edit to it."""

import importlib.util
import json
import re
from pathlib import Path

from cfmm import scene as sc

from conftest import make_scene

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_digest_per_ue_follows_the_scene(tmp_path, capsys):
    tool = load_tool()
    scene = make_scene(waypoints=[sc.Waypoint("start", 10, 10, 4.5),
                                  sc.Waypoint("drive", 40, 10)])
    path = sc.save_scene(scene, tmp_path / "scene.json")

    def digests(*args):
        assert tool.main([str(path), *args]) == 0
        return capsys.readouterr().out.splitlines()

    before = digests()
    assert len(before) == 8
    for j, line in enumerate(before):
        assert re.fullmatch(rf"ue {j} [0-9a-f]{{64}}", line)
    assert digests() == before
    assert digests("--site", "site0") == digests("--site", "0") == before

    # Building B0 stands between the route and the UEs: its height moves
    # the rooftop paths.
    data = json.loads(path.read_text())
    data["buildings"][0]["height_m"] += 1.0
    path.write_text(json.dumps(data))
    after = digests()
    assert len(after) == 8 and after != before


def test_bad_scene_or_site(tmp_path, capsys):
    tool = load_tool()
    path = sc.save_scene(make_scene(), tmp_path / "scene.json")
    assert tool.main(["bundled:nope"]) == 1
    assert tool.main([str(path), "--site", "nope"]) == 1
    assert tool.main([str(tmp_path / "missing.json")]) == 2
    assert capsys.readouterr().out == ""
