import json
import sys
from dataclasses import dataclass, fields

import pytest

from thermact.classifier import SvmConfig
from thermact.cli import build_parser
from thermact.config import (
    MAX_TARGET_LEN,
    EvalSettings,
    PipelineConfig,
    PreprocessSettings,
    apply_overrides,
)
from thermact.core import ConfigError, from_json
from thermact.features import FeatureConfig
from thermact.synth import SceneParams

DEFAULT_DICT = {
    "preprocess": {"target_len": 20},
    "features": {"temporal_k": 5, "spatial_block": 3},
    "svm": {"regularization_c": 1.0, "max_epochs": 200, "tolerance": 0.0001, "seed": 42},
    "eval": {"protocol": "loso", "k": 10, "seed": 42},
}


def every_field():
    """(section, field) for every field of every configuration section."""
    return [
        (section.name, f)
        for section in fields(PipelineConfig)
        for f in fields(section.default_factory)
    ]


def test_to_dict_and_hash_are_unchanged():
    # Model files and reports embed both, so neither may change its bytes.
    config = PipelineConfig()
    assert json.dumps(config.to_dict()) == json.dumps(DEFAULT_DICT)
    assert config.config_hash() == "c002373ec26ffc9a"
    assert from_json(PipelineConfig, config.to_dict(), "config") == config


@pytest.mark.parametrize("section, f", every_field(), ids=lambda v: getattr(v, "name", v))
def test_every_field_has_a_flag_and_a_key(section, f):
    key = f"{section}.{f.name}"
    assert f.name in PipelineConfig().to_dict()[section]
    value = {"protocol": "kfold"}.get(f.name, f.default * 2)
    args = build_parser().parse_args(["evaluate", "--data", "m.json", f"--{key}", str(value)])
    assert getattr(args, key) == value
    overridden = apply_overrides(PipelineConfig(), {key: value})
    assert getattr(getattr(overridden, section), f.name) == value


def test_unknown_override_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(PipelineConfig(), {"svm.momentum": 0.9})


def test_values_pass_through_unchanged():
    # An integer in a float field stays an integer, so the embedded bytes and
    # the hash are those the configuration had before it was read.
    data = {
        "svm": {"regularization_c": 1, "tolerance": 1e-3},
        "features": {"temporal_k": 4},
        "preprocess": {"target_len": 16},
    }
    config = from_json(PipelineConfig, data, "config")
    assert type(config.svm.regularization_c) is int
    assert config.config_hash() == "29008d8271a6881d"


@pytest.mark.parametrize(
    "data, message",
    [
        ({"svm": {"max_epochs": 2.0}}, "svm.max_epochs must be an integer"),
        ({"eval": {"k": False}}, "eval.k must be an integer"),
        ({"svm": {"tolerance": float("inf")}}, "svm.tolerance must be a finite number"),
        ({"svm": {"regularization_c": 10**400}}, "svm.regularization_c must be a finite number"),
        ({"eval": {"protocol": 1}}, "eval.protocol must be a string"),
        ({"svm": {"regularization_c": float("nan")}}, "svm.regularization_c must be a finite"),
        ({"features": []}, "features must be a JSON object"),
        ({"features": {"spatial_block": 9}}, r"features.spatial_block must be in \[1, 8\]"),
        ({"features": {"temporal_k": 21}}, r"features.temporal_k \(21\) cannot exceed"),
        ({"svm": {"seed": 1, "momentum": 0.9}}, r"unknown config key\(s\) \['svm.momentum'\]"),
    ],
)
def test_malformed_values_name_where_and_key(data, message):
    with pytest.raises(ConfigError, match=f"^here: {message}"):
        from_json(PipelineConfig, data, "here")


@dataclass(frozen=True)
class Reading:
    value: float = 0.0


@pytest.mark.parametrize(
    "value", [0, -3, 2.5, sys.float_info.max, -sys.float_info.max, 10**308, -(10**308)]
)
def test_finite_numbers_read(value):
    assert from_json(Reading, {"value": value}, "here").value == value


@pytest.mark.parametrize(
    "value", [float("inf"), float("-inf"), float("nan"), 10**309, -(10**309), True, False]
)
def test_other_values_are_not_finite_numbers(value):
    with pytest.raises(ConfigError, match="here: value must be a finite number"):
        from_json(Reading, {"value": value}, "here")


def test_largest_finite_number_is_a_finite_number():
    config = from_json(PipelineConfig, {"svm": {"tolerance": sys.float_info.max}}, "here")
    assert config.svm.tolerance == sys.float_info.max


def test_range_checks_refuse_nan():
    for make in (
        lambda: SvmConfig(tolerance=float("nan")),
        lambda: SvmConfig(regularization_c=float("nan")),
        lambda: PreprocessSettings(target_len=float("nan")),
        lambda: EvalSettings(k=float("nan")),
        lambda: FeatureConfig(temporal_k=float("nan")),
        lambda: SceneParams(noise_std=float("nan")),
        lambda: SceneParams(frame_rate_hz=float("nan")),
        lambda: SceneParams(quantize_step=float("nan")),
    ):
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize(
    "section, key, valid, invalid, message",
    [
        (SvmConfig, "regularization_c", 5e-324, 0.0, "regularization_c must be positive"),
        (SvmConfig, "max_epochs", 1, 0, "max_epochs must be >= 1"),
        (SvmConfig, "tolerance", 5e-324, 0.0, "tolerance must be positive"),
        (SvmConfig, "seed", 0, -1, "seed must be >= 0"),
        (FeatureConfig, "temporal_k", 1, 0, "temporal_k must be >= 1"),
        (FeatureConfig, "spatial_block", 1, 0, r"spatial_block must be in \[1, 8\]"),
        (FeatureConfig, "spatial_block", 8, 9, r"spatial_block must be in \[1, 8\]"),
        (PreprocessSettings, "target_len", 1, 0, "target_len must be >= 1"),
        (PreprocessSettings, "target_len", MAX_TARGET_LEN, 1001, "target_len must be at most 1000"),
        (EvalSettings, "protocol", "kfold", "lodo", "protocol must be one of"),
        (EvalSettings, "k", 2, 1, "k must be >= 2"),
        (EvalSettings, "seed", 0, -1, "seed must be >= 0"),
    ],
)
def test_range_checks_at_their_bounds(section, key, valid, invalid, message):
    # The last valid value builds and the first invalid one is refused.
    assert getattr(section(**{key: valid}), key) == valid
    with pytest.raises(ValueError, match=f"^{message}"):
        section(**{key: invalid})
