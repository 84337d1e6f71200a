import json
from dataclasses import fields

import pytest

from thermact.cli import build_parser
from thermact.config import PipelineConfig, apply_overrides, config_from_dict

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
    assert config_from_dict(config.to_dict()) == config


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
