"""Prints one sha256 per UE over the traced paths of a whole route.

    PYTHONPATH=src python3 tools/trace_digest.py SCENE [--site S]

SCENE is a scene file or `bundled:NAME`; S is a UE site id or index
(default 0). The tool traces every (pose, UE) link of the route and the
site in one `raypaths.trace_paths_batch` call, rows in (pose, UE) order
as `sounder.plan_campaign` traces them. For each UE it prints
`ue <j> <sha256>`, the digest of the bytes of every `PathBundle` column
of that UE's rows, in field order, with link_index restated as int32 pose
indices. Two source trees that print the same lines trace the same paths
bit for bit.

Exits 0 on success, 1 when the scene or site is invalid, 2 when the
scene file cannot be read.
"""

import argparse
import hashlib
import sys
from dataclasses import fields

import numpy as np

from cfmm.config import ConfigError, resolve_scene_path
from cfmm.raypaths import PathBundle, trace_paths_batch
from cfmm.scene import SceneError, load_scene, sample_ap_pose_arrays


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scene", help="scene file or bundled:NAME")
    parser.add_argument("--site", default="0", help="UE site id or index (default 0)")
    args = parser.parse_args(argv)
    try:
        scene = load_scene(resolve_scene_path(args.scene))
        site = scene.site(int(args.site) if args.site.isdigit() else args.site)
    except (ConfigError, SceneError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    positions, headings, _ = sample_ap_pose_arrays(scene.trajectory)
    ues = site.positions_m
    n_ues = ues.shape[0]
    bundle = trace_paths_batch(scene, np.repeat(positions, n_ues, axis=0),
                               np.repeat(headings, n_ues), np.tile(ues, (len(positions), 1)))
    for j in range(n_ues):
        rows = bundle.link_index % n_ues == j
        h = hashlib.sha256()
        for f in fields(PathBundle):
            if f.name == "link_index":
                column = (bundle.link_index[rows] // n_ues).astype(np.int32)
            elif f.name == "link_class":
                column = bundle.link_class[j::n_ues]
            else:
                column = getattr(bundle, f.name)[rows]
            h.update(np.ascontiguousarray(column).tobytes())
        print(f"ue {j} {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
