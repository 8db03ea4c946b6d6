"""Run configuration: JSON schema, validation, and semantic hashing.

A run config names the scene, the acquisition settings, and the pipeline
parameters. Every field has a default matching the reference sounder
design (Kaiser-Bessel 3, pad 10, SSA 9, threshold offset 7 dB, gate 400,
guard 4), so an empty JSON object is a valid config for a given scene.

The semantic hash covers everything that affects output bytes (scene,
seed, waveform, impairments, pipeline) and excludes plumbing (output
directory, worker count), so the manifest hash changes iff a semantic
parameter does. It names the scene by its path only: process and export
may run on captures made elsewhere, where the scene file is absent and
its content cannot be hashed, so every stage can compute it. The
manifest pins the scene content beside it, as each stage's
scene_sha256 (None where the file is absent).
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from .document import read, write
from .pipeline import PipelineParams
from .sounder import ImpairmentConfig
from .waveform import WaveformSpec

BUNDLED_PREFIX = "bundled:"
_PLUMBING = ("output_dir", "workers")  # fields that change no output byte


class ConfigError(ValueError):
    """Config rejection; message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    scene: str = BUNDLED_PREFIX + "full"
    site: str | int = 0
    seed: int = 1
    output_dir: str = "out"
    workers: int = 0  # 0 = all available cores
    waveform: WaveformSpec = field(default_factory=WaveformSpec)
    impairments: ImpairmentConfig = field(default_factory=ImpairmentConfig)
    pipeline: PipelineParams = field(default_factory=PipelineParams)

    def validate(self) -> None:
        if not self.scene:
            raise ConfigError("scene: must not be empty")
        if not 0 <= self.seed < 2**64:  # the capture header stores it as a uint64
            raise ConfigError(f"seed = {self.seed}: must be in [0, 2**64)")
        if self.workers < 0:
            raise ConfigError(f"workers = {self.workers}: must be >= 0")
        for f in fields(self):  # each section by its own rules, named by its key
            section = getattr(self, f.name)
            if is_dataclass(section):
                try:
                    section.validate()
                except ValueError as e:
                    raise ConfigError(f"{f.name}.{e}") from e


def config_from_dict(data: dict) -> RunConfig:
    return read(RunConfig, data, "", ConfigError)


def load_config(path) -> RunConfig:
    """Parse and validate a config file: the one source of a run's parameters."""
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: malformed JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    cfg = config_from_dict(data)
    cfg.validate()
    return cfg


def semantic_hash(cfg: RunConfig) -> str:
    """sha256 over every output-affecting parameter, hex digest; the scene
    by its path, not its content (see the module docstring)."""
    payload = {k: v for k, v in write(cfg).items() if k not in _PLUMBING}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_scene_path(spec: str) -> Path:
    """Map a scene reference to a file: plain path, or bundled:<name>."""
    if spec.startswith(BUNDLED_PREFIX):
        name = spec[len(BUNDLED_PREFIX):]
        ref = importlib.resources.files("cfmm") / "data" / f"scene_{name}.json"
        with importlib.resources.as_file(ref) as p:
            if not p.exists():
                raise ConfigError(f"scene: no bundled scene '{name}'")
            return Path(p)
    return Path(spec)
