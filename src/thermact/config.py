"""Pipeline configuration: defaults, JSON loading, dotted-key overrides.

One configuration object covers the whole pipeline; the effective config is
embedded in every model file and report so a run can be reproduced from its
own output. Unknown keys are rejected. `features.sequence_len` is not a
config key: it always equals `preprocess.target_len` so the two cannot
disagree.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .classifier import SvmConfig
from .features import DEFAULT_SPATIAL_BLOCK, DEFAULT_TEMPORAL_K, FeatureConfig
from .preprocess import DEFAULT_TARGET_LEN

PROTOCOLS = ("loso", "kfold")


@dataclass(frozen=True)
class PreprocessSettings:
    target_len: int = DEFAULT_TARGET_LEN

    def __post_init__(self):
        if self.target_len < 1:
            raise ValueError("preprocess.target_len must be >= 1")


@dataclass(frozen=True)
class FeatureSettings:
    temporal_k: int = DEFAULT_TEMPORAL_K
    spatial_block: int = DEFAULT_SPATIAL_BLOCK


@dataclass(frozen=True)
class EvalSettings:
    protocol: str = "loso"
    k: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"eval.protocol must be one of {PROTOCOLS}")
        if self.k < 2:
            raise ValueError("eval.k must be >= 2")


@dataclass(frozen=True)
class PipelineConfig:
    preprocess: PreprocessSettings = field(default_factory=PreprocessSettings)
    features: FeatureSettings = field(default_factory=FeatureSettings)
    svm: SvmConfig = field(default_factory=SvmConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def feature_config(self) -> FeatureConfig:
        """The full feature configuration, sequence length included."""
        return FeatureConfig(
            temporal_k=self.features.temporal_k,
            spatial_block=self.features.spatial_block,
            sequence_len=self.preprocess.target_len,
        )

    def to_dict(self) -> dict:
        """Section by section, each field in declaration order."""
        return asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


_SECTIONS = {f.name: f.default_factory for f in fields(PipelineConfig)}


def config_keys() -> list[tuple[str, type]]:
    """Every dotted config key ("svm.seed") with its value's type, in `to_dict` order."""
    keys = []
    for section, cls in _SECTIONS.items():
        hints = typing.get_type_hints(cls)
        keys += [(f"{section}.{f.name}", hints[f.name]) for f in fields(cls)]
    return keys


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from nested dicts, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config section(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} must be an object")
        bad = set(section) - {f.name for f in fields(cls)}
        if bad:
            raise ValueError(f"unknown key(s) in config section {name!r}: {sorted(bad)}")
        kwargs[name] = cls(**section)
    return PipelineConfig(**kwargs)


def load_config(path: str | Path) -> PipelineConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def apply_overrides(config: PipelineConfig, overrides: dict[str, object]) -> PipelineConfig:
    """Apply dotted-key overrides like {"features.temporal_k": 7}."""
    data = config.to_dict()
    for key, value in overrides.items():
        if value is None:
            continue
        section, _, name = key.partition(".")
        if section not in data or name not in data[section]:
            raise ValueError(f"unknown config key: {key}")
        data[section][name] = value
    return config_from_dict(data)
