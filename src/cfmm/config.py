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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .pipeline import PipelineParams
from .sounder import AGCConfig, ChainRippleConfig, ImpairmentConfig
from .waveform import WaveformSpec

BUNDLED_PREFIX = "bundled:"


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
        if self.seed < 0:
            raise ConfigError(f"seed = {self.seed}: must be >= 0")
        if self.workers < 0:
            raise ConfigError(f"workers = {self.workers}: must be >= 0")
        try:
            self.waveform.validate()
        except ValueError as e:
            raise ConfigError(f"waveform: {e}") from e
        try:
            self.pipeline.validate()
        except ValueError as e:
            raise ConfigError(f"pipeline: {e}") from e
        imp = self.impairments
        if imp.n_repetitions < 1:
            raise ConfigError(f"impairments.n_repetitions = {imp.n_repetitions}: must be >= 1")
        if imp.crosstalk_coupling_db is not None and imp.crosstalk_coupling_db > 0:
            raise ConfigError(
                f"impairments.crosstalk_coupling_db = {imp.crosstalk_coupling_db}: must be <= 0 or null"
            )
        try:
            imp.agc.validate()
        except ValueError as e:
            raise ConfigError(f"impairments.agc.{e}") from e


def _apply_section(obj, data: dict, section: str, casts: dict | None = None):
    """replace() dataclass fields from a dict, rejecting unknown keys."""
    valid = set(obj.__dataclass_fields__)
    out = obj
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(f"{section}: unknown key '{key}'")
        if casts and key in casts:
            value = casts[key](value)
        out = replace(out, **{key: value})
    return out


def config_from_dict(data: dict) -> RunConfig:
    known = {"scene", "site", "seed", "output_dir", "workers",
             "waveform", "impairments", "pipeline"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown top-level key '{sorted(unknown)[0]}'")
    cfg = RunConfig()
    for key in ("scene", "site", "seed", "output_dir", "workers"):
        if key in data:
            cfg = replace(cfg, **{key: data[key]})
    if "waveform" in data:
        cfg = replace(cfg, waveform=_apply_section(
            cfg.waveform, data["waveform"], "waveform"))
    if "impairments" in data:
        imp = dict(data["impairments"])
        chain = imp.pop("chain", None)
        agc = imp.pop("agc", None)
        new_imp = _apply_section(cfg.impairments, imp, "impairments")
        if chain is not None:
            new_imp = replace(new_imp, chain=_apply_section(
                ChainRippleConfig(), chain, "impairments.chain"))
        if agc is not None:
            new_imp = replace(new_imp, agc=_apply_section(
                AGCConfig(), agc, "impairments.agc",
                casts={"attenuation_steps_db": tuple, "target_output_window_dbm": tuple}))
        cfg = replace(cfg, impairments=new_imp)
    if "pipeline" in data:
        cfg = replace(cfg, pipeline=_apply_section(
            cfg.pipeline, data["pipeline"], "pipeline",
            casts={"noise_region_native": tuple}))
    return cfg


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
    payload = {
        "scene": cfg.scene,
        "site": cfg.site,
        "seed": cfg.seed,
        "waveform": asdict(cfg.waveform),
        "impairments": asdict(cfg.impairments),
        "pipeline": asdict(cfg.pipeline),
    }
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
