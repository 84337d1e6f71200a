"""Activity and fall recognition from 8x8 thermal sensor array recordings."""

__version__ = "0.1.0"

from .core import (
    ADL7_LABELS,
    DatasetManifest,
    ManifestEntry,
    BackgroundEntry,
    ConfigError,
    ManifestError,
    SequenceFormatError,
    ThermactError,
    ThermalSequence,
    load_manifest,
    load_sequences,
    parse_sequence,
    read_sequence,
    serialize_sequence,
    write_manifest,
    write_sequence,
)
from .preprocess import estimate_background, resample_equal_interval, subtract_background
from .features import (
    FeatureConfig,
    dct_matrix,
    extract_features,
    feature_matrix,
)
from .classifier import (
    ModelFormatError,
    SvmConfig,
    SvmModel,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    fall_metrics,
    loso_split,
    run_pipeline_cv,
    stratified_kfold_split,
)
from .synth import (
    ActivityScript,
    SceneParams,
    ScriptKey,
    SubjectProfile,
    builtin_scripts,
    generate_corpus,
)
from .config import EvalSettings, PipelineConfig, apply_overrides

__all__ = [name for name in dir() if not name.startswith("_")]
