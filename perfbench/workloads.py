"""The benchmark's workloads.

Each is a closed loop with one client on one thread: the next operation
starts only after the previous one has returned. The inputs are synthetic
corpora generated from the workload seed; the program sees only those files.

* ``loso``: ``thermact evaluate`` (leave-one-subject-out). The headline call
  runs once a run, untimed, on the default corpus (8 subjects x 3 sessions =
  168 recordings, 8 equal folds); it gives the accuracy figures, the model
  digest and the criterion-5 check. The timed calls evaluate TIMED_CORPORA
  small corpora (TIMED_SHAPE) in turn, each call about a fifth of a second,
  so a run holds a couple of hundred of them and their median is steady; a
  default-corpus call lasts seconds, and a run holds too few of them to
  time steadily on a shared host. Training is about two thirds of a timed
  call and parsing most of the rest, so a training optimisation shows here.
* ``classify``: the deployment path (``thermact predict``), the fall-alarm use.
  One model is trained on the seed corpus in set-up; then each recording of a
  held-out corpus (seed + 1) is classified one at a time, with the page cache
  warm. No training runs in the measured loop, so parsing and preprocessing
  dominate, and a training change must show no effect.

Untraced operations call the package as a user would (``cli.main`` for
evaluate). Traced operations make the same calls while :func:`traced` has
bound span-recording wrappers in place of the package's public functions, in
every package module that looks them up, so the layers are timed inside the
program's own code path without instrumenting the package itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from thermact import classifier, cli, core, evaluate, features, preprocess, synth
from thermact.config import PipelineConfig

import checks
from spans import Tracer

SETUP_REPEATS = 5
HELD_OUT_SEED_OFFSET = 1
TIMED_SHAPE = (2, 1)  # subjects x sessions of each corpus a timed loso call evaluates
TIMED_CORPORA = 4
DEFAULT_SHAPE = (8, 3)  # subjects x sessions of the default synthetic corpus
DEFAULT_SEED = 42


@dataclass
class Settings:
    seed: int
    seconds: float
    trace: bool
    work: Path
    subjects: int = DEFAULT_SHAPE[0]
    reps: int = DEFAULT_SHAPE[1]


@dataclass
class Outcome:
    """What one run measured and which of its checks failed."""

    setup: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # seconds per untraced operation
    attempted: int = 0
    failures: dict = field(default_factory=dict)  # operation (or "run:<check>") -> message
    quality: tuple | None = None  # accuracy, fall sensitivity, fall specificity
    digest: str | None = None  # of the trained models; traced evaluate runs and classify
    predictions_digest: str | None = None  # of the labels and scores; every run
    tracer: Tracer | None = None
    untraced_walls: list[float] = field(default_factory=list)
    traced_walls: dict = field(default_factory=dict)  # pass id -> wall seconds
    objective_mean: float | None = None
    headline_s: float | None = None  # the untimed default-corpus evaluate call (loso)

    def fail(self, key, message: str) -> None:
        self.failures.setdefault(key, message)


# ---------------------------------------------------------------------------
# Tracing the package's public functions in place
# ---------------------------------------------------------------------------


def _count_read(tracer, args, seq):
    tracer.count("core.files")
    tracer.count("core.frames", len(seq))
    tracer.count("core.input_bytes", os.stat(args[0]).st_size)


def _count_train(tracer, args, model):
    tracer.count("classifier.train_calls")
    tracer.count("classifier.problems", len(model.classes))
    tracer.count("classifier.train_rows", len(args[1]))


# (module, function, span name, counter). Span names are the per-layer metric
# names without their ``_s`` suffix.
TRACED = (
    (synth, "generate_corpus", "synth.generate", None),
    (core, "load_manifest", "core.load_manifest", None),
    (core, "load_sequences", "core.load_sequences", None),
    (core, "load_backgrounds", "core.load_sequences", None),
    (core, "read_sequence", "core.read_sequence", _count_read),
    (preprocess, "estimate_background", "preprocess.estimate_background", None),
    (preprocess, "subtract_background", "preprocess.subtract", None),
    (preprocess, "resample_equal_interval", "preprocess.resample",
     lambda t, a, seq: t.count("preprocess.frames_out", len(seq))),
    (features, "extract_features", "features.extract", lambda t, a, vec: t.count("features.rows")),
    (features, "feature_matrix", "features.extract",
     lambda t, a, X: t.count("features.rows", X.shape[0])),
    (classifier, "train", "classifier.train", _count_train),
    (classifier, "predict", "classifier.predict",
     lambda t, a, out: t.count("classifier.predict_rows")),
    (classifier, "predict_batch", "classifier.predict",
     lambda t, a, out: t.count("classifier.predict_rows", len(out[0]))),
    (evaluate, "loso_split", "evaluate.split_score", None),
    (evaluate, "confusion_from_records", "evaluate.split_score", None),
    (evaluate, "fall_metrics", "evaluate.split_score", None),
)
PACKAGE_MODULES = (cli, core, evaluate, features, classifier, preprocess, synth)


def _capturing(counter, trained: list):
    def capture(tracer, args, model):
        counter(tracer, args, model)
        trained.append((args[0], args[1], model))

    return capture


@contextlib.contextmanager
def traced(tracer: Tracer | None, trained: list | None = None):
    """Bind a span-recording wrapper wherever the package binds a TRACED function.

    With `trained` given, each ``classifier.train`` call appends its
    (features, labels, model) to it. A `tracer` of None traces nothing.
    """
    if tracer is None:
        yield
        return
    swaps = []
    for module, name, span, counter in TRACED:
        original = getattr(module, name)
        if name == "train" and trained is not None:
            counter = _capturing(counter, trained)
        wrapper = tracer.wrap(span, original, counter)
        for bound_in in PACKAGE_MODULES:
            if getattr(bound_in, name, None) is original:
                swaps.append((bound_in, name, original))
                setattr(bound_in, name, wrapper)
    try:
        yield
    finally:
        for bound_in, name, original in reversed(swaps):
            setattr(bound_in, name, original)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------


def corpus_truth(manifest_path: Path) -> tuple[list[str], list[str], list[str]]:
    """Label set, labels and subjects as the generator wrote them to the manifest."""
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    entries = [e for e in data["entries"] if e.get("role") != "background"]
    return data["label_set"], [e["label"] for e in entries], [e["subject"] for e in entries]


def tree_digest(root: Path) -> str:
    """sha256 over the relative names and bytes of every file under `root`."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class SetUps:
    """Set-up, timed SETUP_REPEATS times in a run.

    The first set-up runs before the measured loop and its result is the one
    the loop uses. The repeats are spread evenly over the loop (see
    :meth:`catch_up`), so the median set-up time sees the same spells of host
    speed as the operations do. Each repeat must give the same `digest` as the
    first; its files are deleted straight after.
    """

    def __init__(self, settings: Settings, outcome: Outcome, build, digest) -> None:
        self.settings, self.outcome, self.build, self.digest = settings, outcome, build, digest
        self.first = self._once(0)
        self.first_digest = digest(self.first)
        self.start = None  # of the measured loop: its first catch_up call
        self.interval = settings.seconds / SETUP_REPEATS

    def _once(self, r: int):
        tracer = self.outcome.tracer
        if tracer is not None:
            tracer.pass_id = f"setup{r}"
        start = time.perf_counter()
        with traced(tracer):
            result = self.build(self.settings.work / f"setup{r}")
        self.outcome.setup.append(time.perf_counter() - start)
        return result

    def _repeat(self) -> None:
        r = len(self.outcome.setup)
        result = self._once(r)
        if self.digest(result) != self.first_digest:
            self.outcome.fail("run:setup", f"set-up {r} gave a different result from set-up 0")
        shutil.rmtree(self.settings.work / f"setup{r}")

    def catch_up(self) -> None:
        """Run the repeats whose turn has come: repeat r at r / SETUP_REPEATS of the run."""
        if self.start is None:
            self.start = time.perf_counter()
        while (
            len(self.outcome.setup) < SETUP_REPEATS
            and time.perf_counter() >= self.start + len(self.outcome.setup) * self.interval
        ):
            self._repeat()

    def finish(self) -> None:
        while len(self.outcome.setup) < SETUP_REPEATS:
            self._repeat()


# ---------------------------------------------------------------------------
# loso
# ---------------------------------------------------------------------------


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def timed_seed(seed: int, j: int) -> int:
    """Seed of the j-th timed loso corpus; distinct for every (seed, j)."""
    return seed * TIMED_CORPORA + j


def evaluate_call(manifest_path: Path, report_path: Path, tracer=None, trained=None):
    """One ``thermact evaluate`` call: (seconds, exit status, report text or None)."""
    report_path.unlink(missing_ok=True)
    argv = ["evaluate", "--data", str(manifest_path), "--report", str(report_path)]
    start = time.perf_counter()
    try:
        with traced(tracer, trained):
            rc = _quiet_cli(argv)
    except Exception as exc:  # counted as a failed operation
        rc = f"exception {exc!r}"
    elapsed = time.perf_counter() - start
    text = report_path.read_text(encoding="utf-8") if rc == 0 else None
    return elapsed, rc, text


def check_loso_report(text: str, manifest_path: Path, gated: bool) -> dict:
    """Parse an evaluate report and apply the report, fold and (if `gated`) criterion-5 checks."""
    label_set, truth, subjects = corpus_truth(manifest_path)
    report = json.loads(text)
    checks.check_report(report, truth, label_set)
    checks.check_loso_folds(report, subjects)
    if gated:
        checks.check_gates(
            report["overall_accuracy"], report["fall_sensitivity"], report["fall_specificity"]
        )
    return report


def run_loso(settings: Settings) -> Outcome:
    tracer = Tracer() if settings.trace else None
    outcome = Outcome(tracer=tracer)

    def build(dest):
        synth.generate_corpus(
            dest / "headline", subjects=settings.subjects, reps=settings.reps, seed=settings.seed
        )
        for j in range(TIMED_CORPORA):
            synth.generate_corpus(
                dest / f"timed{j}", subjects=TIMED_SHAPE[0], reps=TIMED_SHAPE[1],
                seed=timed_seed(settings.seed, j),
            )
        return dest

    setups = SetUps(settings, outcome, build, tree_digest)
    headline = setups.first / "headline" / "manifest.json"
    timed = [setups.first / f"timed{j}" / "manifest.json" for j in range(TIMED_CORPORA)]
    report_path = settings.work / "report.json"

    # The headline call: untimed, traced into a tracer of its own so that the
    # models it trains can be captured. It also warms imports and code paths.
    trained: list = []  # (X, y, model) of each training in the headline call
    outcome.attempted += 1
    outcome.headline_s, rc, text = evaluate_call(headline, report_path, Tracer(), trained)
    # Criterion 5 is specified on the default corpus; other seeds make other corpora.
    gated = settings.seed == DEFAULT_SEED and (settings.subjects, settings.reps) == DEFAULT_SHAPE
    first_reports = []  # the headline report, then each timed corpus's first report
    try:
        if rc != 0:
            raise checks.CheckFailed(f"thermact evaluate returned {rc}")
        first_reports.append(check_loso_report(text, headline, gated))
    except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
        outcome.fail("headline", f"report check on the default corpus: {exc}")
        return outcome
    outcome.digest = checks.model_digest([model for _, _, model in trained])
    if tracer is not None:
        outcome.objective_mean = float(np.mean([
            checks.primal_objective(model, X, y) for X, y, model in trained
        ]))

    reports = []  # (op, corpus, report text or None, traced)

    def round_of_calls(r: int) -> None:
        """Evaluate every timed corpus once; a traced round is one traced pass."""
        traced_round = tracer is not None and r % 2 == 1
        if traced_round:
            tracer.pass_id = f"r{r}"
        wall = 0.0
        for j, manifest_path in enumerate(timed):
            op = r * TIMED_CORPORA + j
            outcome.attempted += 1
            elapsed, rc, text = evaluate_call(
                manifest_path, report_path, tracer if traced_round else None
            )
            wall += elapsed
            if not traced_round:
                outcome.latencies.append(elapsed)
            if rc != 0:
                outcome.fail(op, f"thermact evaluate returned {rc}")
            reports.append((op, j, text, traced_round))
        if traced_round:
            outcome.traced_walls[tracer.pass_id] = wall
        else:
            outcome.untraced_walls.append(wall)

    start = time.perf_counter()
    deadline = start + settings.seconds
    rounds = 0
    while True:
        setups.catch_up()
        round_of_calls(rounds)
        rounds += 1
        now = time.perf_counter()
        if rounds >= (2 if tracer else 1) and now + (now - start) / rounds > deadline:
            break
    setups.finish()

    first = {}  # corpus -> its first checked report
    for op, j, text, traced_op in sorted(reports, key=lambda r: r[3]):  # untraced first
        if text is None:
            continue
        try:
            report = check_loso_report(text, timed[j], gated=False)
            if j not in first:
                first[j] = report
            else:
                what = "traced evaluate vs untraced" if traced_op else "repeated evaluate"
                checks.same_predictions(report["predictions"], first[j]["predictions"], what)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            outcome.fail(op, f"report check: {exc}")
    if len(first) < TIMED_CORPORA:
        outcome.fail("run:report", "a timed corpus has no evaluate report")
        return outcome
    first_reports.extend(first[j] for j in range(TIMED_CORPORA))
    head = first_reports[0]
    outcome.quality = (head["overall_accuracy"], head["fall_sensitivity"], head["fall_specificity"])
    outcome.predictions_digest = checks.predictions_digest(
        [(p["predicted"], p["scores"]) for report in first_reports for p in report["predictions"]]
    )
    return outcome


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def classify_one(path: Path, background, model, config: PipelineConfig):
    """One recording through the `thermact predict` path: parse to label."""
    seq = core.read_sequence(path)
    seq = preprocess.subtract_background(seq, background)
    seq = preprocess.resample_equal_interval(seq, config.preprocess.target_len)
    vector = features.extract_features(seq, config.feature_config())
    return classifier.predict(model, vector)


def run_classify(settings: Settings) -> Outcome:
    tracer = Tracer() if settings.trace else None
    outcome = Outcome(tracer=tracer)
    config = PipelineConfig()

    def build(dest):
        shape = {"subjects": settings.subjects, "reps": settings.reps}
        train_path = synth.generate_corpus(dest / "train", seed=settings.seed, **shape).manifest_path
        held_path = synth.generate_corpus(
            dest / "heldout", seed=settings.seed + HELD_OUT_SEED_OFFSET, **shape
        ).manifest_path
        manifest = core.load_manifest(train_path)
        X, y = evaluate.prepare_features(
            manifest, config.preprocess.target_len, config.feature_config()
        )
        model = classifier.train(X, y, config.svm, classes=manifest.label_set)
        held = core.load_manifest(held_path)
        (global_bg,) = [b for b in held.backgrounds if b.session_id == ""]
        background = preprocess.estimate_background(
            core.read_sequence(held.resolve(global_bg.path))
        )
        return SimpleNamespace(
            model=model, X=X, y=y, held=held, held_path=held_path, background=background
        )

    setups = SetUps(settings, outcome, build, lambda ready: checks.model_digest([ready.model]))
    ready = setups.first
    outcome.digest = setups.first_digest
    label_set, truth, _ = corpus_truth(ready.held_path)
    paths = [ready.held.resolve(e.path) for e in ready.held.entries]
    n = len(paths)

    # Warm the page cache and lazy imports before timing.
    for path in paths:
        with contextlib.suppress(Exception):  # the measured loop records failures
            classify_one(path, ready.background, ready.model, config)

    results = []  # (recording, label, scores)
    scored = []  # thermact's own (accuracy, sensitivity, specificity) per full pass
    start = time.perf_counter()
    deadline = start + settings.seconds
    passes = 0
    done = False
    while not done:
        setups.catch_up()
        traced_pass = tracer is not None and passes % 2 == 1
        if traced_pass:
            tracer.pass_id = f"p{passes}"
        pass_start = time.perf_counter()
        with traced(tracer if traced_pass else None):
            for i, path in enumerate(paths):
                outcome.attempted += 1
                t0 = time.perf_counter()
                try:
                    label, scores = classify_one(path, ready.background, ready.model, config)
                except Exception as exc:  # counted as a failed operation
                    outcome.fail(len(results), f"recording {i} raised {exc!r}")
                    label, scores = None, None
                t1 = time.perf_counter()
                results.append((i, label, scores))
                if not traced_pass:
                    outcome.latencies.append(t1 - t0)
                if tracer is None and len(results) >= n and t1 + (t1 - start) / len(results) > deadline:
                    done = True
                    break
            else:
                labels = [label for _, label, _ in results[-n:]]
                if None not in labels:
                    confusion = evaluate.confusion_from_records(truth, labels, label_set)
                    scored.append((confusion.overall_accuracy(), *evaluate.fall_metrics(confusion)))
                wall = time.perf_counter() - pass_start
                if traced_pass:
                    outcome.traced_walls[tracer.pass_id] = wall
                else:
                    outcome.untraced_walls.append(wall)
                passes += 1
                now = time.perf_counter()
                if tracer is not None and passes >= 2 and now + (now - start) / passes > deadline:
                    done = True
    setups.finish()

    try:
        X_held, _ = evaluate.prepare_features(
            ready.held, config.preprocess.target_len, config.feature_config()
        )
        batch_labels, batch_scores = classifier.predict_batch(ready.model, X_held)
    except (core.ThermactError, ValueError) as exc:
        outcome.fail("run:batch", f"batch features for the check failed: {exc}")
        return outcome
    for k, (i, label, scores) in enumerate(results):
        if label is None:
            continue
        try:
            checks.check_classified(i, label, scores, batch_labels, batch_scores)
        except checks.CheckFailed as exc:
            outcome.fail(k, str(exc))
    outcome.quality = checks.quality(truth, [label for _, label, _ in results[:n]])
    if all(label is not None for _, label, _ in results[:n]):
        outcome.predictions_digest = checks.predictions_digest(
            [(label, scores) for _, label, scores in results[:n]]
        )
    if not scored:
        outcome.fail("run:score", "no full pass was scored")
    elif any(s != outcome.quality for s in scored):
        outcome.fail("run:score", f"thermact scored {scored[0]}, recomputed {outcome.quality}")
    if tracer is not None:
        outcome.objective_mean = checks.primal_objective(ready.model, ready.X, ready.y)
    return outcome


WORKLOADS = {"loso": run_loso, "classify": run_classify}


def run(workload: str, settings: Settings) -> Outcome:
    return WORKLOADS[workload](settings)
