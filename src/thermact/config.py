"""Pipeline configuration: defaults, JSON loading, dotted-key overrides.

One configuration object covers the whole pipeline; the effective config is
embedded in every model file and report so a run can be reproduced from its
own output. Every section is read by `core.from_json`: unknown keys are
rejected, each value must have its field's JSON type (an integer, a finite
number or a string), and every error names the file or flag and the dotted
key. The feature length is not a config key: it is the number of frames
preprocessing leaves, `preprocess.target_len`.
"""

from __future__ import annotations

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .classifier import SvmConfig
from .core import from_json, from_json_file
from .features import FeatureConfig
from .preprocess import DEFAULT_TARGET_LEN

PROTOCOLS = ("loso", "kfold")


@dataclass(frozen=True)
class PreprocessSettings:
    target_len: int = DEFAULT_TARGET_LEN

    def __post_init__(self):
        if not self.target_len >= 1:
            raise ValueError("target_len must be >= 1")


@dataclass(frozen=True)
class EvalSettings:
    protocol: str = "loso"
    k: int = 10
    seed: int = 42

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}")
        if not self.k >= 2:
            raise ValueError("k must be >= 2")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class PipelineConfig:
    preprocess: PreprocessSettings = field(default_factory=PreprocessSettings)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        k, n = self.features.temporal_k, self.preprocess.target_len
        if k > n:
            raise ValueError(f"features.temporal_k ({k}) cannot exceed preprocess.target_len ({n})")

    def feature_config(self) -> FeatureConfig:
        return self.features

    def to_dict(self) -> dict:
        """Section by section, each field in declaration order."""
        return asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def config_keys() -> list[tuple[str, type]]:
    """Every dotted config key ("svm.seed") with its value's type, in `to_dict` order."""
    keys = []
    for section in fields(PipelineConfig):
        cls = section.default_factory
        hints = typing.get_type_hints(cls)
        keys += [(f"{section.name}.{f.name}", hints[f.name]) for f in fields(cls)]
    return keys


def config_from_dict(data: dict, where: str = "config") -> PipelineConfig:
    """Build a config from nested dicts; errors name `where` and the key."""
    return from_json(PipelineConfig, data, where)


def load_config(path: str | Path) -> PipelineConfig:
    return from_json_file(PipelineConfig, path)


def apply_overrides(config: PipelineConfig, overrides: dict[str, object]) -> PipelineConfig:
    """Apply dotted-key overrides like {"features.temporal_k": 7}; None means unset."""
    data = config.to_dict()
    flags = []
    for key, value in overrides.items():
        if value is not None:
            section, _, name = key.partition(".")
            data.setdefault(section, {})[name] = value
            flags.append(f"--{key}")
    return config_from_dict(data, "override " + ", ".join(flags))
