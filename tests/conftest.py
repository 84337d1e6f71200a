import os

import numpy as np
import pytest
from hypothesis import settings

# CI runs set HYPOTHESIS_PROFILE=ci so that a failing example reproduces on
# the next run; local runs keep the randomised default.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from thermact.core import load_manifest
from thermact.synth import generate_corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """3 subjects x 1 rep x 7 activities: enough for LOSO and 3-fold."""
    out = tmp_path_factory.mktemp("small_corpus")
    summary = generate_corpus(out, subjects=3, reps=1, seed=7)
    return load_manifest(summary.manifest_path)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
