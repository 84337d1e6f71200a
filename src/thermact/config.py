"""Pipeline configuration: every section with its defaults and checks, and overrides.

Every section of the one configuration object that covers the pipeline lives
here; `features` and `classifier` import theirs from this module. The effective
config is embedded in every model file and report so a run can be reproduced
from its own output. Every section is read by `core.from_json`: unknown keys
are rejected, each value must have its field's JSON type (an integer, a finite
number or a string), and every error names the file or flag and the dotted
key. The feature length is not a config key: it is `preprocess.target_len`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

from .core import GRID_SIZE, _type_hints, from_json

PROTOCOLS = ("loso", "kfold")
DEFAULT_TARGET_LEN = 20  # frames per recording after resampling
MAX_TARGET_LEN = 1000  # the features' (target_len, target_len) DCT basis is then at most 8 MB


@dataclass(frozen=True)
class PreprocessSettings:
    target_len: int = DEFAULT_TARGET_LEN

    def __post_init__(self):
        if not self.target_len >= 1:
            raise ValueError("target_len must be >= 1")
        if not self.target_len <= MAX_TARGET_LEN:
            raise ValueError(f"target_len must be at most {MAX_TARGET_LEN}")


@dataclass(frozen=True)
class FeatureConfig:
    """How many coefficients to keep."""

    temporal_k: int = 5
    spatial_block: int = 3

    def __post_init__(self):
        if not self.temporal_k >= 1:
            raise ValueError("temporal_k must be >= 1")
        if not 1 <= self.spatial_block <= GRID_SIZE:
            raise ValueError(f"spatial_block must be in [1, {GRID_SIZE}]")


@dataclass(frozen=True)
class SvmConfig:
    regularization_c: float = 1.0
    max_epochs: int = 200
    tolerance: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if not self.regularization_c > 0:
            raise ValueError("regularization_c must be positive")
        if not self.max_epochs >= 1:
            raise ValueError("max_epochs must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not self.seed >= 0:
            raise ValueError("seed must be >= 0")


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
        hints = _type_hints(cls)
        keys += [(f"{section.name}.{f.name}", hints[f.name]) for f in fields(cls)]
    return keys


def apply_overrides(config: PipelineConfig, overrides: dict[str, object]) -> PipelineConfig:
    """Apply dotted-key overrides like {"features.temporal_k": 7}; None means unset."""
    data = config.to_dict()
    flags = []
    for key, value in overrides.items():
        if value is not None:
            section, _, name = key.partition(".")
            data.setdefault(section, {})[name] = value
            flags.append(f"--{key}")
    return from_json(PipelineConfig, data, "override " + ", ".join(flags))
