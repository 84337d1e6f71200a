"""A mutation sweep: one-line changes to the validators that the tests should notice.

Each mutant is one exact string edit in one source file under src/thermact.
The sweep copies src/ and tests/ to a temporary directory, applies one
mutant at a time there (the checkout is never edited), runs the tests that
belong to the touched module with `-x`, and puts the file back. A mutant
survives when those tests still pass; a survivor is a rule no test checks.

Usage, from the repository root (standard library only, besides what the
tests themselves import):

    python tools/mutation_sweep.py              # every mutant
    python tools/mutation_sweep.py --list       # check every anchor, print the mutant names
    python tools/mutation_sweep.py core.number_max evaluate.kfold_rotation

Exit status: 0 if every mutant was killed, 1 if any survived, 2 if a mutant
no longer matches its source (the code moved on; update the mutant) or the
unmutated tests fail. `--list` checks the anchors too, so it exits 2 on a
stale mutant and runs no tests.
Each mutant costs one test run of its module, about 1 to 15 s.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The tests that check each module. core's JSON number rule is tested through
# config, core and classifier read files, which test_fuzz.py exercises, and
# test_cli.py checks the error line of a file that cannot be read and of a
# corpus too large to generate.
TESTS = {
    "core": (
        "tests/test_core.py", "tests/test_config.py", "tests/test_fuzz.py", "tests/test_cli.py"
    ),
    "classifier": ("tests/test_classifier.py", "tests/test_fuzz.py", "tests/test_cli.py"),
    "config": ("tests/test_config.py",),
    "preprocess": ("tests/test_preprocess.py",),
    "evaluate": ("tests/test_evaluate.py",),
    "synth": ("tests/test_synth.py", "tests/test_cli.py"),
    "cli": ("tests/test_cli.py",),
}

# A mutant whose tests run longer than this is counted as killed (it hangs).
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str  # "<module>.<what changes>"
    old: str  # must occur exactly once in src/thermact/<module>.py
    new: str

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


MUTANTS = (
    # core._first_bad_frame: one mutant per validity rule.
    Mutant(
        "core.pixels_per_frame", "pixels.shape[1] != PIXEL_COUNT", "pixels.shape[1] < PIXEL_COUNT"
    ),
    Mutant(
        "core.one_stamp_per_frame",
        "timestamps.shape != (len(pixels),)",
        "len(timestamps) < len(pixels)",
    ),
    Mutant("core.stamp_non_negative", "(timestamps >= 0)", "(timestamps >= -1)"),
    Mutant("core.stamp_below_2_63", "timestamps < 2.0**63", "timestamps <= 2.0**63"),
    Mutant(
        "core.stamp_integer",
        "(timestamps < 2.0**63) & (timestamps == np.floor(timestamps))",
        "(timestamps < 2.0**63)",
    ),
    Mutant(
        "core.stamp_order",
        "timestamps[1:] < timestamps[:-1]",
        "timestamps[1:] < timestamps[:-1] - 1",
    ),
    Mutant(
        "core.finite_pixels", "~np.isfinite(pixels).all(axis=1)", "np.isnan(pixels).any(axis=1)"
    ),
    Mutant("core.range_low", "(pixels < TEMP_MIN_C)", "(pixels < TEMP_MIN_C - 0.5)"),
    Mutant("core.range_high", "(pixels > TEMP_MAX_C)", "(pixels > TEMP_MAX_C + 0.5)"),
    Mutant("core.first_bad_row_wins", "i, k = min(broken)", "i, k = max(broken)"),
    # core.parse_sequence: a field is a plain ASCII number, as float() reads more.
    Mutant("core.ascii_gate", 'plain = stripped.isascii() and "_" not in stripped', "plain = True"),
    Mutant("core.ascii_underscore", 'isascii() or "_" in field:', "isascii():"),
    # core._number: a finite JSON number, not a bool.
    Mutant("core.number_max", "abs(v) <= sys.float_info.max", "abs(v) < sys.float_info.max"),
    Mutant("core.number_abs", "abs(v) <= sys.float_info.max", "v <= sys.float_info.max"),
    Mutant(
        "core.number_not_bool",
        "isinstance(v, (int, float)) and not isinstance(v, bool) and",
        "isinstance(v, (int, float)) and",
    ),
    # core.DatasetManifest: the rules a manifest's own fields obey.
    Mutant(
        "core.label_set_distinct",
        "if len(set(self.label_set)) != len(self.label_set):",
        "if False:",
    ),
    Mutant("core.background_path_unique", "if bg.path in seen_paths:", "if False:"),
    Mutant("core.sensor_id_string", '_non_strings("", sensor_id=self.sensor_id)', "[]"),
    Mutant("core.entry_path_string", "dict(path=e.path, label=", "dict(label="),
    Mutant("core.entry_label_string", "label=e.label, subject=", "subject="),
    Mutant(
        "core.background_session_string",
        "dict(path=bg.path, session=bg.session_id)",
        "dict(path=bg.path)",
    ),
    # core: reading and writing manifests; one problem is one error line.
    Mutant("core.manifest_one_line", "if len(self.violations) == 1:", "if False:"),
    Mutant("core.min_frames", "if len(seq) < min_frames:", "if False:"),
    Mutant(
        "core.manifest_unreadable",
        'raise ThermactError(f"cannot read manifest {path}: {exc}") from exc',
        "raise",
    ),
    Mutant("core.write_background_session", 'item["session"] = bg.session_id', "pass"),
    # core._Checked: an array-holding value type stores read-only copies, and
    # a pickled or deep copy is rebuilt through the constructor.
    Mutant(
        "core.frozen_copy_copies",
        "arr = np.array(value, dtype=dtype)",
        "arr = np.asarray(value, dtype=dtype)",
    ),
    Mutant("core.frozen_copy_read_only", "arr.flags.writeable = False", "pass"),
    Mutant("core.copies_rebuilt", "def __reduce__(self):", "def _reduce(self):"),
    # config: every section's range checks.
    Mutant("config.regularization_c", "self.regularization_c > 0", "self.regularization_c >= 0"),
    Mutant("config.max_epochs", "self.max_epochs >= 1", "self.max_epochs >= 0"),
    Mutant("config.tolerance", "self.tolerance > 0", "self.tolerance >= 0"),
    Mutant("config.temporal_k", "self.temporal_k >= 1", "self.temporal_k >= 0"),
    Mutant("config.spatial_block_low", "1 <= self.spatial_block", "0 <= self.spatial_block"),
    Mutant("config.target_len", "self.target_len >= 1", "self.target_len >= 0"),
    Mutant("config.max_target_len", "if not self.target_len <= MAX_TARGET_LEN:", "if False:"),
    Mutant("config.protocol", "if self.protocol not in PROTOCOLS:", "if False:"),
    Mutant("config.k", "self.k >= 2", "self.k >= 1"),
    # classifier.SvmModel.decision_scores: features of the model's dimension,
    # and each row scored as itself.
    Mutant("classifier.score_dimension", "if X.shape[1] != self.dimension:", "if False:"),
    Mutant(
        "classifier.score_first_row_only",
        "Z = (X - self.scaler_mean)",
        "Z = 0 * X + (X[:1] - self.scaler_mean)",
    ),
    # classifier.predict: its scores own their data, keeping no (1, C) base alive.
    Mutant("classifier.predict_owns_scores", "[0].copy()", "[0]"),
    # classifier.train: the labels must fit the rows and the class list.
    Mutant("classifier.train_label_count", "if len(labels) != X.shape[0]:", "if False:"),
    Mutant("classifier.train_unknown_labels", "if unknown:", "if False:"),
    # classifier.train: the model that checks the class list is built before the fit.
    Mutant(
        "classifier.train_model_before_fit",
        "n = len(ordered)",
        "ordered = tuple(dict.fromkeys(ordered)); n = len(ordered)",
    ),
    # classifier.train: a column whose mean or std overflows is refused by name,
    # and an objective that overflows inside an einsum, which raises nothing.
    Mutant("classifier.train_column_standardizable", "if unusable.size:", "if False:"),
    Mutant("classifier.objectives_finite", "if not np.isfinite(objectives).all():", "if False:"),
    # classifier.SvmModel: every model's arrays agree in shape, are finite and
    # keep a scaler_std of at least STD_FLOOR, however the model is built.
    Mutant(
        "classifier.model_bias_shape",
        "[(n, dim), (n,), (dim,), (dim,)]",
        "[(n, dim), arrays[1].shape, (dim,), (dim,)]",
    ),
    Mutant(
        "classifier.model_std_shape",
        "[(n, dim), (n,), (dim,), (dim,)]",
        "[(n, dim), (n,), (dim,), arrays[3].shape]",
    ),
    Mutant("classifier.model_arrays_finite", "if not np.isfinite(arr).all():", "if False:"),
    Mutant(
        "classifier.model_std_floor",
        "(self.scaler_std < STD_FLOOR).any()",
        "(self.scaler_std <= 0).any()",
    ),
    # classifier._train_ovr: a step the estimate clears only shrinks, the
    # margins taken after an update start a new product of shrinks, and an
    # epoch's objectives scale the kept margins by that product. Skipping
    # leaves every weight bit as it is; the exact-step count sees it. An exact
    # step updates a class whose margin is below 1, not at it.
    Mutant("classifier.skip_never", "if scale * low[i] >= lim:", "if False:"),
    Mutant("classifier.exact_strict", "if y[k] * mk < 1.0]", "if y[k] * mk <= 1.0]"),
    Mutant(
        "classifier.refresh_resets_scale",
        "low, scale = M.min(axis=0).tolist(), 1.0",
        "low = M.min(axis=0).tolist()",
    ),
    Mutant("classifier.epoch_estimate_scale", "1.0 - scale * M", "1.0 - M"),
    # classifier.save_model: the embedded config is the one the model trained under.
    Mutant("classifier.save_config_agrees", "if config.svm != model.train_config:", "if False:"),
    # classifier.load_model: every check on a model file's JSON.
    Mutant(
        "classifier.model_unreadable",
        'raise ThermactError(f"cannot read model from {path}: {exc}") from exc',
        "raise",
    ),
    Mutant(
        "classifier.model_missing_key",
        "except (KeyError, ValueError) as exc:",
        "except ValueError as exc:",
    ),
    Mutant(
        "classifier.model_version",
        "or version != MODEL_FORMAT_VERSION:",
        "or version < 0:",
    ),
    Mutant("classifier.model_version_int", "if type(version) is not int or", "if"),
    Mutant("classifier.model_config_read", 'data["config"]', "{}"),
    Mutant("classifier.model_config_required", 'data["config"]', 'data.get("config", {})'),
    Mutant("classifier.model_config_object", "raise ModelFormatError(str(exc)) from None", "raise"),
    Mutant(
        "classifier.model_finite",
        "if not _number(v)]",
        "if not isinstance(v, (int, float))]",
    ),
    Mutant(
        "classifier.model_numbers_everywhere",
        "zip(ARRAY_KEYS, arrays) for v in",
        "zip(ARRAY_KEYS[:3], arrays) for v in",
    ),
    Mutant(
        "classifier.model_classes_list",
        "not isinstance(classes, list)",
        "not isinstance(classes, (list, str, dict))",
    ),
    # classifier.SvmModel: the classes are distinct strings.
    Mutant(
        "classifier.model_class_strings",
        "not all(isinstance(c, str) for c in classes) or ",
        "",
    ),
    Mutant(
        "classifier.model_distinct_classes",
        " or len(set(classes)) != len(classes)",
        "",
    ),
    # preprocess.resample_indices: the index formula and its guards.
    Mutant("preprocess.half_up", "np.floor(exact + 0.5)", "np.round(exact)"),
    Mutant(
        "preprocess.endpoints",
        "exact = j * (length - 1) / (target_len - 1)",
        "exact = j * length / target_len",
    ),
    Mutant("preprocess.length_guard", "if length < 1:", "if length < 0:"),
    Mutant("preprocess.target_guard", "if target_len < 1:", "if target_len < 0:"),
    # evaluate: the two splitters.
    Mutant("evaluate.loso_two_subjects", "if len(subjects) < 2:", "if len(subjects) < 1:"),
    Mutant("evaluate.kfold_k", "if k < 2:", "if k < 1:"),
    Mutant("evaluate.kfold_rotation", "fold_of[idx] = (pos + ci) % k", "fold_of[idx] = pos % k"),
    Mutant("evaluate.kfold_shuffle", "shuffled = rng.permutation(members)", "shuffled = members"),
    Mutant(
        "evaluate.kfold_absent_class",
        "if members.size and members.size < k:",
        "if members.size < k:",
    ),
    Mutant(
        "evaluate.kfold_deficient_class",
        "if members.size and members.size < k:",
        "if members.size and members.size < k - 1:",
    ),
    # evaluate._partition: both splitters' folds train on all but their test set.
    Mutant(
        "evaluate.partition_train_excludes_test",
        "(all_idx[fold_of != f], all_idx[fold_of == f])",
        "(all_idx, all_idx[fold_of == f])",
    ),
    # evaluate.ConfusionMatrix: a read-only copy of a square matrix of
    # non-negative counts.
    Mutant(
        "evaluate.confusion_square",
        "if counts.shape != (len(self.labels), len(self.labels)):",
        "if False:",
    ),
    Mutant("evaluate.confusion_non_negative", "if (counts < 0).any():", "if False:"),
    Mutant(
        "evaluate.confusion_checked_base", "class ConfusionMatrix(_Checked):", "class ConfusionMatrix:"
    ),
    # synth: the rules a scene and an activity script obey; a scene keeps its
    # offsets as a read-only copy.
    Mutant("synth.scene_checked_base", "class SceneParams(_Checked):", "class SceneParams:"),
    Mutant("synth.offset_count", "if offsets.shape != (PIXEL_COUNT,):", "if False:"),
    Mutant(
        "synth.script_duration", "if not 0 < self.duration_s <=", "if not -1 < self.duration_s <="
    ),
    Mutant("synth.script_duration_bound", "self.duration_s <= MAX_DURATION_S:", "self.duration_s:"),
    Mutant("synth.script_keys", "if not self.keys:", "if False:"),
    Mutant("synth.key_order", "if us != sorted(us) or", "if"),
    Mutant("synth.key_u_low", "or us[0] < 0", ""),
    Mutant("synth.key_u_high", "or us[-1] > 1", ""),
    Mutant("synth.script_sigma", "if k.sigma <= 0:", "if False:"),
    Mutant(
        "synth.padded_grid",
        "if not (self.allow_offgrid or (-pad <= k.x <= lim + pad and -pad <= k.y <= lim + pad)):",
        "if False:",
    ),
    # synth: a scene's rate is bounded and its offsets finite where it is read.
    Mutant("synth.frame_rate_bound", "<= MAX_FRAME_RATE_HZ:", ":"),
    Mutant("synth.offsets_finite", "if not np.isfinite(offsets).all():", "if False:"),
    # synth: a scene's noise, offsets and quantize step stay within the sensor's span.
    Mutant("synth.noise_std_ceiling", "0 < self.noise_std <= SENSOR_SPAN_C:", "0 < self.noise_std:"),
    Mutant("synth.offsets_bound", "if (np.abs(offsets) > SENSOR_SPAN_C).any():", "if False:"),
    Mutant("synth.quantize_step_floor", "MIN_QUANTIZE_STEP <= step", "0 < step"),
    Mutant("synth.quantize_step_ceiling", "step <= SENSOR_SPAN_C)", "step)"),
    # synth: generate refuses counts it cannot seed, and before it writes
    # anything, a scene that gives an activity too few frames.
    Mutant("synth.subjects_seed_limit", '("subjects", subjects + 1)', '("subjects", 0)'),
    Mutant("synth.reps_seed_limit", '("reps", 1 + reps * len(ADL7_LABELS))', '("reps", 0)'),
    Mutant(
        "synth.activity_frames_checked",
        "if (n := frame_count(scene, script)) < MIN_ACTIVITY_FRAMES:",
        "if (n := frame_count(scene, script)) < 0:",
    ),
    # synth: one recording's jitter is drawn in the table's order, and the
    # session pass hands each recording its own frames.
    Mutant("synth.jitter_order", '"x0": (0.0, 0.2), "x1": (0.0, 0.2)', '"x1": (0.0, 0.2), "x0": (0.0, 0.2)'),
    Mutant("synth.session_slice", "[end - len(t) : end]", "[end - len(t) + 1 : end + 1]"),
    # cli.cmd_generate: a scene too slow for an activity is refused naming the scene file.
    Mutant(
        "cli.generate_names_scene", 'raise ConfigError(f"{args.scene}: {exc}") from None', "raise"
    ),
)


def run_tests(work: Path, files: tuple[str, ...]) -> tuple[bool, float]:
    """(whether the tests passed, seconds) for `files`, run in `work`."""
    # No bytecode cache: a same-size mutant written within the second of the
    # cached original's timestamp would otherwise run as the original.
    env = dict(os.environ, PYTHONPATH=str(work / "src"), HYPOTHESIS_PROFILE="ci")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    cmd += ["-W", "error::RuntimeWarning", *files]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument(
        "--list", action="store_true", help="check every anchor, print the mutant names and exit"
    )
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    stale = []
    for m in chosen:
        text = (ROOT / "src" / "thermact" / f"{m.module}.py").read_text(encoding="utf-8")
        if text.count(m.old) != 1:
            stale.append(f"{m.name}: {m.old!r} occurs {text.count(m.old)} times")
    if stale:
        print("stale mutants:\n  " + "\n  ".join(stale), file=sys.stderr)
        return 2
    if args.list:
        print("\n".join(m.name for m in chosen))
        return 0

    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        modules = sorted({m.module for m in chosen})
        for module in modules:
            passed, _ = run_tests(work, TESTS[module])
            if not passed:
                print(f"the unmutated {module} tests fail; fix them first", file=sys.stderr)
                return 2

        survivors = []
        for m in chosen:
            path = work / "src" / "thermact" / f"{m.module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, seconds = run_tests(work, TESTS[m.module])
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "SURVIVED" if passed else "killed  "
            print(f"{verdict}  {m.name}  ({seconds:.1f} s)", flush=True)
            if passed:
                survivors.append(m)

    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    for m in survivors:
        print(f"survivor {m.name}: {m.old!r} -> {m.new!r}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
