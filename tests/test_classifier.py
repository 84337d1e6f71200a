import copy
import dataclasses
import functools
import json
import pickle
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import pegasos_binary, svm_optimum, train_per_class
from thermact import classifier
from thermact.classifier import (
    STD_FLOOR,
    ModelFormatError,
    SvmConfig,
    SvmModel,
    load_model,
    predict,
    predict_batch,
    save_model,
    train,
)
from thermact.config import PipelineConfig, PreprocessSettings
from thermact.core import ThermactError, load_manifest
from thermact.evaluate import loso_split, prepare_features, stratified_kfold_split
from thermact.features import FeatureConfig
from thermact.synth import generate_corpus
from toy_data import toy_clusters


def hinge_objective(Z, y, w, b, lam):
    hinge = np.maximum(0.0, 1.0 - y * (Z @ w + b))
    return 0.5 * lam * (w @ w) + hinge.mean()


@pytest.fixture(scope="module")
def clusters():
    X, labels = toy_clusters(n_classes=7, per_class=20, dim=40, seed=11)
    return X, labels


class TestTrain:
    def test_separable_two_class_1d(self):
        X = np.array([[-1.0]] * 10 + [[1.0]] * 10)
        labels = ["neg"] * 10 + ["pos"] * 10
        model = train(X, labels)
        pred, scores = predict_batch(model, X)
        assert pred == labels
        # decision boundary flips sign between the two points
        neg_scores, pos_scores = model.decision_scores(np.array([[-1.0], [1.0]]))
        assert neg_scores[0] > neg_scores[1] and pos_scores[1] > pos_scores[0]

    def test_seven_class_clusters_full_training_accuracy(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        pred, _ = predict_batch(model, X)
        assert pred == labels

    def test_deterministic_bit_identical(self, clusters):
        X, labels = clusters
        a = train(X, labels, SvmConfig(seed=5))
        b = train(X, labels, SvmConfig(seed=5))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert np.array_equal(a.scaler_mean, b.scaler_mean)
        assert np.array_equal(a.scaler_std, b.scaler_std)

    def test_seed_changes_trajectory(self, clusters):
        X, labels = clusters
        a = train(X, labels, SvmConfig(seed=5))
        b = train(X, labels, SvmConfig(seed=6))
        assert not np.array_equal(a.weights, b.weights)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 distinct"):
            train(np.zeros((4, 2)), ["a"] * 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            train([], [])

    def test_dimension_mismatch_rejected(self):
        # Features are one (N, D) matrix: a row vector or a stack of matrices is refused.
        for features in (np.zeros(3), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match=r"\(N, D\) matrix"):
                train(features, ["a", "b"])
            with pytest.raises(ValueError, match=r"\(N, D\) matrix"):
                predict_batch(train(np.eye(2), ["a", "b"]), features)

    def test_missing_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="no training examples"):
            train(X, ["a", "b"], classes=("a", "b", "c"))

    def test_label_count_must_match_rows(self):
        with pytest.raises(ValueError, match="3 feature rows but 2 labels"):
            train(np.eye(3), ["a", "b"])

    def test_label_outside_class_list_rejected(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match=r"labels outside the class list: \['c'\]"):
            train(X, ["a", "b", "c"], classes=("a", "b"))

    @pytest.mark.parametrize(
        "classes, shown", [(("a", "b", "b"), "'a', 'b', 'b'"), (("a", "b", 3), "'a', 'b', 3")]
    )
    def test_bad_class_list_refused_before_the_fit(self, monkeypatch, classes, shown):
        # The model is built before the fit and holds the class rule, so nothing trains.
        calls = []
        fit = classifier._train_ovr
        monkeypatch.setattr(classifier, "_train_ovr", lambda *args: calls.append(args) or fit(*args))
        X, labels = np.array([[0.0], [1.0], [2.0]]), ["a", "b", "b"]
        message = re.escape(f"classes must be distinct strings, got ({shown})")
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(X, labels, classes=classes)
        assert calls == []
        train(X, labels, classes=("a", "b"))
        assert len(calls) == 1

    def test_constant_feature_passes_through_centered(self):
        X = np.array([[1.0, -1.0, 7.0], [1.0, 1.0, 7.0]] * 5)
        labels = ["a", "b"] * 5
        model = train(X, labels)
        assert model.scaler_std[0] == 1.0 and model.scaler_std[2] == 1.0
        assert model.scaler_std[1] > STD_FLOOR


def assert_matches_per_class(X, labels, cfg, classes):
    """Lockstep training gives the per-class oracle's model, bit for bit."""
    model = train(X, labels, cfg, classes=classes)
    weights, biases, epochs, converged, objectives = train_per_class(X, labels, cfg, classes)
    assert model.classes == tuple(classes)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.biases, biases)
    assert model.weights.tobytes() == weights.tobytes()
    assert model.biases.tobytes() == biases.tobytes()
    assert model.epochs == epochs
    assert model.converged == converged
    assert np.array(model.objectives).tobytes() == np.array(objectives).tobytes()
    return model


def exact_steps(X, labels, cfg, classes):
    """How many steps of `train` took the exact path rather than only shrinking.

    An exact step is the only place training reads one sample's row of the
    augmented feature matrix, so the count is the number of such reads.
    """
    reads = []

    class RowReads(np.ndarray):
        def __getitem__(self, key):
            if isinstance(key, int):
                reads.append(key)
            return super().__getitem__(key)

    train_ovr = classifier._train_ovr
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_train_ovr", lambda Zb, Y, c: train_ovr(Zb.view(RowReads), Y, c))
        train(X, labels, cfg, classes=classes)
    return len(reads)


@pytest.fixture(scope="module")
def corpus_features(tmp_path_factory):
    """2 subjects x 5 sessions: 10 recordings per class, enough for 10-fold."""
    out = tmp_path_factory.mktemp("lockstep_corpus")
    manifest = load_manifest(generate_corpus(out, subjects=2, reps=5, seed=3).manifest_path)
    X, labels = prepare_features(manifest, 20, FeatureConfig())
    return manifest, X, np.array(labels)


def margin_products(X, labels, cfg, classes):
    """How many times `train` took the margin matrix `Wa @ Zb.T` of all samples.

    Training takes it after each updating step and multiplies by the
    transposed feature matrix nowhere else.
    """
    products = []

    class Products(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul and inputs[1] is self and self.ndim == 2:
                products.append(self.shape)
            inputs = [x.view(np.ndarray) if isinstance(x, Products) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    train_ovr = classifier._train_ovr
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_train_ovr", lambda Zb, Y, c: train_ovr(Zb.view(Products), Y, c))
        train(X, labels, cfg, classes=classes)
    return len(products)


@pytest.fixture(scope="module")
def default_corpus_features(tmp_path_factory):
    """The default corpus (8 subjects x 3 sessions, seed 42) under the default config."""
    out = tmp_path_factory.mktemp("default_corpus")
    manifest = load_manifest(generate_corpus(out, subjects=8, reps=3, seed=42).manifest_path)
    return prepare_features(manifest, 20, FeatureConfig())


@pytest.fixture(scope="module")
def timed_corpus_features(tmp_path_factory):
    """2 subjects x 1 session: the shape of each corpus a timed benchmark evaluate runs."""
    out = tmp_path_factory.mktemp("timed_corpus")
    manifest = load_manifest(generate_corpus(out, subjects=2, reps=1, seed=5).manifest_path)
    X, labels = prepare_features(manifest, 20, FeatureConfig())
    return manifest, X, np.array(labels)


class TestLockstepMatchesPerClass:
    @pytest.mark.parametrize("protocol", ["loso", "kfold10"])
    def test_every_fold(self, corpus_features, protocol):
        manifest, X, labels = corpus_features
        if protocol == "loso":
            folds = loso_split(manifest)
        else:
            folds = stratified_kfold_split(manifest, k=10, seed=42)
        for train_idx, _ in folds:
            assert_matches_per_class(X[train_idx], labels[train_idx], SvmConfig(), manifest.label_set)

    def test_single_epoch(self, clusters):
        X, labels = clusters
        assert_matches_per_class(X, labels, SvmConfig(max_epochs=1), tuple(sorted(set(labels))))

    def test_every_class_stops_at_epoch_two(self, clusters):
        X, labels = clusters
        model = assert_matches_per_class(
            X, labels, SvmConfig(tolerance=1e6), tuple(sorted(set(labels)))
        )
        assert model.epochs == (2,) * 7
        assert model.converged == (True,) * 7

    @pytest.mark.parametrize("c", [0.1, 10.0])
    def test_regularization(self, clusters, c):
        X, labels = clusters
        assert_matches_per_class(X, labels, SvmConfig(regularization_c=c), tuple(sorted(set(labels))))

    def test_two_classes(self):
        X, labels = toy_clusters(n_classes=2, per_class=12, dim=6, noise=3.0, seed=2)
        assert_matches_per_class(X, labels, SvmConfig(), ("class_0", "class_1"))

    def test_unsorted_class_order(self, clusters):
        X, labels = clusters
        order = ("class_4", "class_0", "class_6", "class_2", "class_5", "class_1", "class_3")
        model = assert_matches_per_class(X, labels, SvmConfig(seed=9), order)
        pred, _ = predict_batch(model, X)
        assert pred == labels

    @pytest.mark.parametrize(
        "X, n_classes, cfg",
        [
            (np.array([[0.0], [1.0], [1.0]]), 3, SvmConfig(max_epochs=6, seed=0)),
            (np.zeros((12, 1)), 2, SvmConfig(max_epochs=1, seed=4)),
        ],
    )
    def test_margins_on_the_threshold(self, X, n_classes, cfg):
        # Exact small values put margins on or next to 1.0, where only a
        # strict test of a margin summed in the one-class order decides as
        # one-class training does.
        labels = [f"k{i % n_classes}" for i in range(len(X))]
        assert_matches_per_class(X, labels, cfg, tuple(f"k{i}" for i in range(n_classes)))

    @pytest.mark.parametrize(
        "X, n_classes, cfg",
        [
            ([[-1, 2], [0, 2], [-1, 1]], 3, SvmConfig(regularization_c=2.0, max_epochs=5, seed=55)),
            ([[1, -1], [0, 2], [-1, -1]], 3, SvmConfig(regularization_c=0.5, max_epochs=10, seed=94)),
            ([[-1, -2], [-2, -2], [-1, -2], [-1, 2]], 2, SvmConfig(max_epochs=11, seed=19)),
        ],
    )
    def test_estimate_on_the_threshold(self, X, n_classes, cfg):
        # Integer features put margins exactly on 1.0 after some shrinks,
        # where the scaled estimate rounds to 1.0 or above and the one-class
        # margin to below it: only the rounding bound sends those steps to
        # the exact path.
        labels = [f"k{i % n_classes}" for i in range(len(X))]
        X = np.array(X, dtype=np.float64)
        assert_matches_per_class(X, labels, cfg, tuple(f"k{i}" for i in range(n_classes)))

    @pytest.mark.parametrize(
        "shape, cfg",
        [
            ((7, 20, 40, 8.0, 1.0, 11), SvmConfig()),
            ((7, 20, 40, 8.0, 1.0, 11), SvmConfig(tolerance=1e-2)),
            ((4, 8, 5, 2.0, 2.0, 3), SvmConfig(max_epochs=60)),
        ],
    )
    def test_exact_steps_are_the_updating_steps(self, shape, cfg):
        # Classes leave the active set at different epochs (in the last case
        # one runs to max_epochs), so the estimate must follow the active rows.
        # With no margin near 1.0, exactly the steps that update some class
        # take the exact path: no missed update, no needless exact step.
        X, labels = toy_clusters(*shape)
        classes = tuple(sorted(set(labels)))
        updates = set()
        *_, epochs, _, _ = train_per_class(X, labels, cfg, classes, updates)
        assert len(set(epochs)) > 1
        assert exact_steps(X, labels, cfg, classes) == len(updates)
        assert_matches_per_class(X, labels, cfg, classes)

    def test_exact_steps_counts_each_call_alone(self, clusters):
        # The helper patches `_train_ovr` and puts it back itself, so a second
        # count wraps the real function, not the first count's wrapper.
        X, labels = clusters
        classes = tuple(sorted(set(labels)))
        train_ovr = classifier._train_ovr
        first = exact_steps(X, labels, SvmConfig(), classes)
        assert first > 0
        assert exact_steps(X, labels, SvmConfig(), classes) == first
        assert classifier._train_ovr is train_ovr

    def test_every_fold_at_the_timed_shape(self, timed_corpus_features):
        # m = 7 per fold, and most classes run all max_epochs: the epoch ends
        # outnumber the updates, so most objectives read the kept margins.
        manifest, X, labels = timed_corpus_features
        cfg = SvmConfig()
        for train_idx, _ in loso_split(manifest):
            X_fold, labels_fold = X[train_idx], labels[train_idx]
            updates = set()
            train_per_class(X_fold, labels_fold, cfg, manifest.label_set, updates)
            assert exact_steps(X_fold, labels_fold, cfg, manifest.label_set) == len(updates)
            model = assert_matches_per_class(X_fold, labels_fold, cfg, manifest.label_set)
            assert model.epochs.count(cfg.max_epochs) > len(model.epochs) // 2

    def test_margins_taken_only_after_updates(self):
        # Separable clusters at n = 3, m = 6 with no class converging: long
        # stretches of shrinks pass without an update, and the epoch ends read
        # margins kept from the last update. One product per updating step.
        X, labels = toy_clusters(2, 3, 2, seed=0)
        classes = ("class_0", "class_1")
        cfg = SvmConfig(tolerance=1e-300, max_epochs=60)
        updates = set()
        train_per_class(X, labels, cfg, classes, updates)
        assert exact_steps(X, labels, cfg, classes) == len(updates)
        assert margin_products(X, labels, cfg, classes) == len(updates)
        model = assert_matches_per_class(X, labels, cfg, classes)
        assert model.epochs == (60, 60)

    def test_long_run_keeps_the_skip_band_tight(self):
        # 2000 epochs of m = 12: the rounding bound covers every shrink a
        # kept margin can see, yet the exact path still takes only the
        # updating steps, and no margin product is taken without an update.
        X, labels = toy_clusters(3, 4, 3, seed=1)
        classes = ("class_0", "class_1", "class_2")
        cfg = SvmConfig(tolerance=1e-300, max_epochs=2000)
        updates = set()
        train_per_class(X, labels, cfg, classes, updates)
        assert exact_steps(X, labels, cfg, classes) == len(updates)
        assert margin_products(X, labels, cfg, classes) == len(updates)
        model = assert_matches_per_class(X, labels, cfg, classes)
        assert model.epochs == (2000,) * 3

    def test_tolerance_on_an_epochs_own_change(self, clusters):
        # Tolerance equal to the relative objective change of a record-low
        # epoch puts that class's stop test within rounding of its threshold,
        # where batched and one-class objectives may fall on either side.
        X, labels = clusters
        classes = tuple(sorted(set(labels)))
        mean, std = X.mean(axis=0), X.std(axis=0)
        Zb = np.hstack([(X - mean) / std, np.ones((len(X), 1))])
        tolerances = set()
        for cls in classes[:3]:
            y = np.where(np.array(labels) == cls, 1.0, -1.0)
            trace = []
            pegasos_binary(Zb, y, SvmConfig(max_epochs=40, tolerance=1e-300), trace)
            low = np.inf
            for before, after in zip(trace, trace[1:]):
                change = abs(before - after) / max(1.0, abs(before))
                if 0 < change < low:
                    low = change
                    tolerances.add(change)
        assert len(tolerances) >= 10
        for tolerance in sorted(tolerances):
            assert_matches_per_class(X, labels, SvmConfig(max_epochs=40, tolerance=tolerance), classes)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_classes=st.integers(2, 4),
        per_class=st.integers(1, 5),
        dim=st.integers(1, 6),
        c=st.sampled_from([0.05, 1.0, 20.0]),
        max_epochs=st.integers(1, 40),
        tolerance=st.sampled_from([1e-6, 1e-3, 0.1]),
        seed=st.integers(0, 2**16),
    )
    def test_random_problems(self, data, n_classes, per_class, dim, c, max_epochs, tolerance, seed):
        m = n_classes * per_class
        X = data.draw(
            hnp.arrays(np.float64, (m, dim), elements=st.floats(-1e3, 1e3, allow_nan=False))
        )
        labels = [f"k{i % n_classes}" for i in range(m)]
        classes = tuple(data.draw(st.permutations([f"k{i}" for i in range(n_classes)])))
        cfg = SvmConfig(regularization_c=c, max_epochs=max_epochs, tolerance=tolerance, seed=seed)
        assert_matches_per_class(X, labels, cfg, classes)


class TestConvergenceSignal:
    def test_one_epoch_reports_no_class_converged(self, clusters):
        X, labels = clusters
        model = train(X, labels, SvmConfig(max_epochs=1))
        assert model.epochs == (1,) * 7
        assert model.converged == (False,) * 7

    def test_default_training_converges_per_class(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        assert len(model.epochs) == len(model.converged) == len(model.objectives) == 7
        assert all(model.converged)
        assert all(2 <= e < 200 for e in model.epochs)

    def test_not_saved(self, clusters, tmp_path):
        X, labels = clusters
        path = tmp_path / "model.json"
        save_model(train(X, labels), path, PipelineConfig())
        assert set(json.loads(path.read_text())) == {
            "version", "classes", "weights", "biases", "scaler_mean", "scaler_std", "config"
        }
        loaded, _ = load_model(path)
        assert loaded.epochs == () and loaded.converged == () and loaded.objectives == ()


class TestAgainstTheOptimum:
    """Each trained problem against its exact optimum (`oracles.svm_optimum`).

    The oracle's duality gap certifies its own optimum. A trained objective
    below the oracle's dual value would break weak duality, so the check
    tests `_objective` and the oracle at once. Pegasos stops well above the
    optimum here (1.6-10x), so nothing tighter holds."""

    GAP = 1e-9

    def assert_above_the_dual(self, X, labels, classes):
        cfg = SvmConfig()
        model = train(X, labels, cfg, classes=classes)
        Z = (X - model.scaler_mean) / model.scaler_std  # train's own standardization
        Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
        lam = 1.0 / (cfg.regularization_c * len(X))
        for c, cls in enumerate(classes):
            y = np.where(np.asarray(labels) == cls, 1.0, -1.0)
            _, primal, dual = svm_optimum(Zb, y, lam, gap=self.GAP)
            assert 0.0 <= primal - dual <= self.GAP * primal
            assert model.objectives[c] >= dual

    def test_every_fold_at_the_timed_shape(self, timed_corpus_features):
        manifest, X, labels = timed_corpus_features
        for train_idx, _ in loso_split(manifest):
            self.assert_above_the_dual(X[train_idx], labels[train_idx], manifest.label_set)

    def test_clusters(self, clusters):
        X, labels = clusters
        self.assert_above_the_dual(X, labels, tuple(sorted(set(labels))))

    def test_objectives_are_the_primal_at_the_weights(self, timed_corpus_features):
        # Each objective is the primal at the model's own weights and bias on
        # its standardized rows, summed as the oracles sum it: bit for bit.
        manifest, X, labels = timed_corpus_features
        cfg = SvmConfig()
        for train_idx, _ in loso_split(manifest):
            X_fold, y_fold = X[train_idx], labels[train_idx]
            model = train(X_fold, y_fold, cfg, classes=manifest.label_set)
            Z = (X_fold - model.scaler_mean) / model.scaler_std
            Zb = np.hstack([Z, np.ones((Z.shape[0], 1))])
            lam = 1.0 / (cfg.regularization_c * len(X_fold))
            for c, cls in enumerate(model.classes):
                w = np.append(model.weights[c], model.biases[c])
                y = np.where(y_fold == cls, 1.0, -1.0)
                hinge = np.maximum(0.0, 1.0 - y * np.einsum("md,d->m", Zb, w))
                assert model.objectives[c] == 0.5 * lam * np.einsum("d,d", w, w) + hinge.mean()


class TestNonFinite:
    """A NaN feature gives NaN scores, and argmax of NaN picks class 0 ("fall"
    in the ADL7 order): non-finite input must be an error, never a label."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_train_rejects(self, clusters, value):
        X, labels = clusters
        X = X.copy()
        X[5, 2] = value
        with pytest.raises(ValueError, match="row 5"):
            train(X, labels)

    @pytest.mark.parametrize("big", [1e308, 1e200])
    def test_train_refuses_a_column_it_cannot_standardize(self, big):
        # Finite features, but a column whose sum (1e308) or squared
        # deviations (1e200) overflow: its z-scores would be NaN or 0, and
        # a std of inf would make a model file no reader accepts.
        X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
        X[:, 2] = np.where(np.arange(len(X)) < 8, big, -big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^feature column 2 cannot be standardized"):
                train(X, labels)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_predict_rejects(self, clusters, value):
        X, labels = clusters
        model = train(X, labels)
        query = X[20].copy()
        query[0] = value
        with pytest.raises(ValueError, match="non-finite"):
            predict(model, query)

    def test_decision_scores_rejects(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        query = X[20:21].copy()
        query[0, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.decision_scores(query)
        queries = X[:6].copy()
        queries[4, 1] = np.inf
        with pytest.raises(ValueError, match="row 4"):
            model.decision_scores(queries)

    def test_predict_batch_names_the_row(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        queries = X[:6].copy()
        queries[4, 1] = np.nan
        with pytest.raises(ValueError, match="row 4"):
            predict_batch(model, queries)

    def test_overflowing_scores_name_the_row(self, clusters):
        # Finite features, but weights that overflow on any non-zero
        # standardized value: only row 2 differs from the scaler mean.
        X, labels = clusters
        model = dataclasses.replace(train(X, labels), weights=np.full((7, X.shape[1]), 1e308))
        queries = np.tile(model.scaler_mean, (4, 1))
        queries[2] = X[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(classifier.RowError, match="^score row 2 has non-finite values$") as excinfo:
                predict_batch(model, queries)
            assert excinfo.value.row == 2
            with pytest.raises(ValueError, match="score row 0"):
                predict(model, X[0])
            assert predict_batch(model, queries[:2])[0] == [model.classes[int(np.argmax(model.biases))]] * 2

    def test_load_model_refuses_a_scaler_std_below_the_floor(self, clusters, tmp_path):
        # train writes 1.0 in place of any std below STD_FLOOR, so a smaller
        # one only comes from an edited file; 1e-310 turned every score NaN.
        X, labels = clusters
        path = tmp_path / "model.json"
        save_model(train(X, labels), path, PipelineConfig())
        data = json.loads(path.read_text())
        for std, accepted in [(1e-310, False), (STD_FLOOR / 2, False), (STD_FLOOR, True)]:
            data["scaler_std"][3] = std
            path.write_text(json.dumps(data))
            if accepted:
                assert load_model(path)[0].scaler_std[3] == STD_FLOOR
            else:
                with pytest.raises(ModelFormatError, match=f"scaler_std must be at least {STD_FLOOR}"):
                    load_model(path)

    @pytest.mark.parametrize("c", [1e-320, 1e308])
    def test_regularization_without_a_finite_step_scale(self, clusters, c):
        # lam = 1/(C*m) is inf for C = 1e-320 (NaN weights, every label "fall")
        # and 0 for C = 1e308 (a ZeroDivisionError in the step size).
        X, labels = clusters
        with pytest.raises(ValueError, match="regularization_c"):
            train(X, labels, SvmConfig(regularization_c=c))

    def test_regularization_giving_non_finite_weights(self):
        X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
        message = "^regularization_c 1e\\+307 gives non-finite values in training$"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            train(X, labels, SvmConfig(regularization_c=1e307))

    @pytest.mark.parametrize("c", [1e200, 1e300, 1e306])
    def test_regularization_overflowing_in_training(self, c):
        # Here the margin products overflow while the weights stay finite, so
        # only the floating-point state shows that training went wrong.
        X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"regularization_c {c!r} gives non-finite values in training"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                train(X, labels, SvmConfig(regularization_c=c))


class TestDuplication:
    """Uniform duplication leaves standardization and the averaged hinge
    unchanged, but lam = 1/(C*m) halves when m doubles, so objective
    equivalence (and hence model equivalence) needs C halved alongside."""

    def test_objective_equivalence_oracle(self, rng):
        X = rng.normal(0, 1, (30, 6))
        y = np.where(rng.uniform(size=30) < 0.5, 1.0, -1.0)
        Xd = np.concatenate([X, X])
        yd = np.concatenate([y, y])
        # standardization invariance (population std)
        assert np.allclose(X.mean(0), Xd.mean(0), atol=1e-12)
        assert np.allclose(X.std(0), Xd.std(0), atol=1e-12)
        w = rng.normal(0, 1, 6)
        b = 0.3
        m = len(y)
        c = 1.0
        lam_orig = 1.0 / (c * m)
        lam_dup_same_cfg = 1.0 / (c * 2 * m)
        lam_dup_matched = 1.0 / ((c / 2) * 2 * m)
        obj = hinge_objective(X, y, w, b, lam_orig)
        assert np.isclose(
            hinge_objective(Xd, yd, w, b, lam_dup_matched), obj, atol=1e-12
        )
        # with the config unchanged the regularizer halves: not equivalent
        assert not np.isclose(hinge_objective(Xd, yd, w, b, lam_dup_same_cfg), obj, atol=1e-6)

    def test_matched_lambda_models_agree(self, clusters):
        X, labels = clusters
        base = train(X, labels, SvmConfig(regularization_c=1.0))
        dup = train(
            np.concatenate([X, X]),
            list(labels) + list(labels),
            SvmConfig(regularization_c=0.5),
        )
        assert np.allclose(base.scaler_mean, dup.scaler_mean, atol=1e-12)
        assert np.allclose(base.scaler_std, dup.scaler_std, atol=1e-12)
        pred_base, _ = predict_batch(base, X)
        pred_dup, _ = predict_batch(dup, X)
        assert pred_base == pred_dup


class TestPredict:
    def test_training_example_gets_its_label(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        label, scores = predict(model, X[3])
        assert label == labels[3]
        assert scores.shape == (7,)

    def test_tie_breaks_to_lowest_class_index(self):
        model = SvmModel(
            classes=("a", "b", "c"),
            weights=np.zeros((3, 2)),
            biases=np.zeros(3),
            scaler_mean=np.zeros(2),
            scaler_std=np.ones(2),
            train_config=SvmConfig(),
        )
        label, scores = predict(model, np.zeros(2))
        assert label == "a"
        assert np.all(scores == 0.0)

    def test_symmetric_training_near_tie_is_deterministic(self):
        X = np.array([[-1.0]] * 8 + [[1.0]] * 8)
        labels = ["a"] * 8 + ["b"] * 8
        model = train(X, labels)
        label1, scores1 = predict(model, np.zeros(1))
        label2, scores2 = predict(model, np.zeros(1))
        assert label1 == label2
        assert np.array_equal(scores1, scores2)
        # mirror symmetry of the two binary problems: scores negate each other
        assert np.isclose(scores1[0], -scores1[1], atol=1e-9)

    def test_batch_matches_single(self, clusters, default_corpus_features, rng):
        # Toy clusters, and the pipeline's own shape: 7 classes, D = 500.
        for X, labels in (clusters, default_corpus_features):
            model = train(X, labels)
            queries = np.vstack([X, rng.normal(0, 3, (25, X.shape[1]))])
            single = [predict(model, q) for q in queries]
            for size in (1, 5, len(queries)):
                batch_labels, batch_scores = predict_batch(model, queries[:size])
                batch = zip(single[:size], batch_labels, batch_scores, strict=True)
                for (label, scores), batch_label, batch_row in batch:
                    assert label == batch_label
                    assert scores.tobytes() == batch_row.tobytes()

    def test_empty_batch(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        batch_labels, batch_scores = predict_batch(model, X[:0])
        assert batch_labels == []
        assert batch_scores.shape == (0, 7)

    def test_dimension_mismatch(self, clusters):
        X, labels = clusters
        model = train(X, labels)
        with pytest.raises(ValueError, match="dimension"):
            predict(model, np.zeros(X.shape[1] + 1))

    @pytest.mark.parametrize("shape", [(), (2, 3, 40), (1, 1, 40), (40,)])
    def test_decision_scores_refuses_other_shapes(self, clusters, shape):
        # Only an (N, D) matrix is scored: a 0-d input once raised IndexError,
        # and a 3-D input was scored as its rows. `predict` scores one row.
        X, labels = clusters
        model = train(X, labels)
        assert model.dimension == 40
        with pytest.raises(ValueError, match=re.escape(f"(N, D) matrix, got shape {shape}")):
            model.decision_scores(np.ones(shape))

    def test_scores_own_their_data(self, clusters):
        # A kept result must not keep a larger array alive, as a view of row 0
        # of predict's (1, C) score matrix would.
        X, labels = clusters
        model = train(X, labels)
        _, scores = predict(model, X[3])
        assert scores.base is None and scores.shape == (7,)
        assert model.decision_scores(X[:3]).base is None


class TestInvariants:
    def test_argmax_invariant_under_uniform_scaling(self, clusters, rng):
        X, labels = clusters
        alpha = 37.5
        base = train(X, labels)
        scaled = train(alpha * X, labels)
        queries = rng.normal(0, 3, (20, X.shape[1]))
        pred_base, _ = predict_batch(base, queries)
        pred_scaled, _ = predict_batch(scaled, alpha * queries)
        assert pred_base == pred_scaled

    def test_scores_affine_in_input(self, clusters, rng):
        X, labels = clusters
        model = train(X, labels)
        x1 = rng.normal(0, 2, (1, X.shape[1]))
        x2 = rng.normal(0, 2, (1, X.shape[1]))
        for alpha in (0.0, 0.25, 0.6, 1.0):
            mix = model.decision_scores(alpha * x1 + (1 - alpha) * x2)
            combo = alpha * model.decision_scores(x1) + (1 - alpha) * model.decision_scores(x2)
            assert np.abs(mix - combo).max() < 1e-9

    def test_margin_reached_before_max_epochs(self):
        X, labels = toy_clusters(n_classes=3, per_class=15, dim=10, seed=3)
        model = train(X, labels, SvmConfig(max_epochs=200))
        pred, _ = predict_batch(model, X)
        assert pred == labels


class TestModelChecksItself:
    """An SvmModel holds read-only float64 copies of agreeing, finite arrays,
    whether training, a model file or a direct call builds it."""

    @staticmethod
    def parts(**changes):
        parts = dict(
            classes=("a", "b"),
            weights=np.zeros((2, 3)),
            biases=np.zeros(2),
            scaler_mean=np.zeros(3),
            scaler_std=np.ones(3),
            train_config=SvmConfig(),
        )
        return {**parts, **changes}

    def test_arrays_are_read_only_float64_copies(self, clusters, tmp_path):
        X, labels = clusters
        trained, path = train(X, labels), tmp_path / "model.json"
        save_model(trained, path, PipelineConfig())
        weights = np.array([[1, 2, 3], [4, 5, 6]])
        built = SvmModel(**self.parts(weights=weights, biases=[0, 1]))
        assert weights.flags.writeable and not np.shares_memory(built.weights, weights)
        assert built.weights.tolist() == weights.tolist()
        for model in (trained, load_model(path)[0], built):
            for key in classifier.ARRAY_KEYS:
                arr = getattr(model, key)
                assert arr.dtype == np.float64 and not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 1.0

    def test_pickled_and_deep_copied_models_are_read_only(self, clusters):
        # Neither path calls __init__ unless the type says how to rebuild.
        X, labels = clusters
        trained = train(X, labels)
        for kept in (pickle.loads(pickle.dumps(trained)), copy.deepcopy(trained)):
            for field in dataclasses.fields(SvmModel):
                if field.name not in classifier.ARRAY_KEYS:
                    assert getattr(kept, field.name) == getattr(trained, field.name)
            for key in classifier.ARRAY_KEYS:
                arr = getattr(kept, key)
                assert arr.tobytes() == getattr(trained, key).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    arr.flat[0] = 1.0

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"weights": np.zeros((3, 3))}, "^inconsistent model dimensions$"),
            ({"weights": np.zeros((2, 4))}, "^inconsistent model dimensions$"),
            ({"biases": np.zeros(3)}, "^inconsistent model dimensions$"),
            ({"scaler_mean": np.zeros((1, 3))}, "^inconsistent model dimensions$"),
            ({"scaler_std": np.ones(2)}, "^inconsistent model dimensions$"),
            ({"classes": ("a",)}, "^inconsistent model dimensions$"),
            ({"weights": [[0, 0, np.nan], [0, 0, 0]]}, "^weights holds a non-finite value$"),
            ({"biases": [0, np.inf]}, "^biases holds a non-finite value$"),
            ({"scaler_mean": [0, -np.inf, 0]}, "^scaler_mean holds a non-finite value$"),
            ({"scaler_std": [1, np.nan, 1]}, "^scaler_std holds a non-finite value$"),
            ({"scaler_std": [1, np.inf, 1]}, "^scaler_std holds a non-finite value$"),
            ({"scaler_std": [1, STD_FLOOR / 2, 1]}, f"^scaler_std must be at least {STD_FLOOR}$"),
            ({"scaler_std": [1, 0, 1]}, f"^scaler_std must be at least {STD_FLOOR}$"),
            ({"classes": ("a", "a")}, r"^classes must be distinct strings, got \('a', 'a'\)$"),
            ({"classes": ("a", 7)}, r"^classes must be distinct strings, got \('a', 7\)$"),
            ({"classes": (None, "b")}, r"^classes must be distinct strings, got \(None, 'b'\)$"),
        ],
    )
    def test_refuses(self, changes, message):
        with pytest.raises(ValueError, match=message):
            SvmModel(**self.parts(**changes))


class TestPersistence:
    def test_round_trip_preserves_predictions(self, clusters, tmp_path, rng):
        X, labels = clusters
        model = train(X, labels)
        path = tmp_path / "model.json"
        pipeline = PipelineConfig(svm=model.train_config)
        save_model(model, path, pipeline)
        loaded, config = load_model(path)
        assert loaded.classes == model.classes
        assert config == pipeline
        queries = rng.normal(0, 3, (100, X.shape[1]))
        labels_a, scores_a = predict_batch(model, queries)
        labels_b, scores_b = predict_batch(loaded, queries)
        assert labels_a == labels_b
        assert np.abs(scores_a - scores_b).max() < 1e-12

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ModelFormatError, match="unsupported model version 99"):
            load_model(path)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{ nope")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unwritable_path_surfaces_error(self, clusters, tmp_path):
        X, labels = clusters
        model = train(X, labels)
        bad = tmp_path / "no_such_dir" / "model.json"
        with pytest.raises(ThermactError, match="no_such_dir"):
            save_model(model, bad, PipelineConfig())

    @pytest.mark.parametrize(
        "doctor, message",
        [
            (lambda d: d.update(config=[1, 2]), "config"),
            (lambda d: d.update(config="svm"), "config"),
            (lambda d: d["config"].update(svm=[]), "svm"),
            (lambda d: d["config"].update(svm=3), "svm"),
            (lambda d: d["scaler_std"].__setitem__(1, 0.0), "scaler_std"),
            (lambda d: d["scaler_std"].__setitem__(1, -2.0), "scaler_std"),
            (lambda d: d["scaler_std"].__setitem__(1, float("inf")), "non-finite"),
            (lambda d: d["scaler_std"].__setitem__(1, float("nan")), "non-finite"),
            (lambda d: d["weights"][2].__setitem__(3, float("nan")), "non-finite"),
            (lambda d: d["biases"].__setitem__(0, float("-inf")), "non-finite"),
            (lambda d: d["scaler_mean"].__setitem__(0, float("nan")), "non-finite"),
            (lambda d: d["classes"].__setitem__(1, d["classes"][0]), "distinct"),
            (lambda d: d.update(scaler_std=d["scaler_std"][:1]), "dimensions"),
            (lambda d: d["biases"].append(0.0), "inconsistent model dimensions"),
            (lambda d: d.update(version=None), "unsupported model version None"),
            (lambda d: d["classes"].__setitem__(1, 7), "distinct strings"),
            # Each value must have its JSON type, not one Python converts it from.
            (lambda d: d.update(classes="abcdefg"), "classes must be a list"),
            (lambda d: d.update(classes=dict.fromkeys("abcdefg", 0)), "classes must be a list"),
            (lambda d: d.update(version=2), "unsupported model version 2 "),
            (lambda d: d.update(version=True), "unsupported model version True"),
            (lambda d: d.update(version=1.0), "unsupported model version 1.0"),
            (lambda d: d.pop("biases"), r"malformed model file \('biases'\)"),
            # Without its config a model would predict through the default pipeline.
            (lambda d: d.pop("config"), r"malformed model file \('config'\)"),
            (lambda d: d["biases"].__setitem__(0, str(d["biases"][0])), "biases holds a non-"),
            (lambda d: d["scaler_mean"].__setitem__(2, "1"), "scaler_mean holds a non-"),
            (lambda d: d["weights"][1].__setitem__(0, True), "weights holds .* True"),
            (lambda d: d["scaler_std"].__setitem__(0, True), "scaler_std holds .* True"),
            # Nested deeper than numpy iterates (32) or builds (64) arrays.
            (lambda d: d.update(weights=functools.reduce(lambda v, _: [v], range(40), 1.0)),
             "model dimensions"),
            (lambda d: d.update(weights=functools.reduce(lambda v, _: [v], range(70), 1.0)),
             "weights holds a non-finite or non-numeric value"),
        ],
    )
    def test_malformed_model_rejected(self, clusters, tmp_path, doctor, message):
        X, labels = clusters
        path = tmp_path / "model.json"
        save_model(train(X, labels), path, PipelineConfig())
        data = json.loads(path.read_text())
        doctor(data)
        path.write_text(json.dumps(data))  # NaN/Infinity are written as JSON extensions
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_save_refuses_another_svm_config(self, clusters, tmp_path):
        # The file's config must be the one the model was trained under.
        X, labels = clusters
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match="config.svm"):
            save_model(train(X, labels), path, PipelineConfig(svm=SvmConfig(seed=7)))
        assert not path.exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), classes=st.lists(st.text(max_size=2), min_size=1, max_size=4))
    def test_what_builds_loads_back_after_saving(self, data, classes):
        dim, finite = data.draw(st.integers(1, 4)), st.floats(allow_nan=False, allow_infinity=False)
        arrays = [
            data.draw(hnp.arrays(np.float64, shape, elements=elements))
            for shape, elements in [
                ((len(classes), dim), finite),
                (len(classes), finite),
                (dim, finite),
                (dim, st.floats(STD_FLOOR, 1e300)),
            ]
        ]
        try:
            model = SvmModel(classes, *arrays, train_config=SvmConfig())
        except ValueError:
            return  # only a model that builds can be saved
        with tempfile.TemporaryDirectory() as tmp:
            save_model(model, Path(tmp) / "model.json", PipelineConfig())
            loaded, _ = load_model(Path(tmp) / "model.json")
        assert loaded.classes == model.classes == tuple(classes)
        for key in classifier.ARRAY_KEYS:
            assert getattr(loaded, key).tobytes() == getattr(model, key).tobytes()

    def test_duplicate_classes_rejected_in_training(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="distinct strings"):
            train(X, ["a", "b", "b"], classes=("a", "b", "b"))

    def test_embedded_pipeline_config(self, clusters, tmp_path):
        X, labels = clusters
        pipeline = PipelineConfig(svm=SvmConfig(seed=7), preprocess=PreprocessSettings(16))
        model = train(X, labels, pipeline.svm)
        path = tmp_path / "model.json"
        save_model(model, path, pipeline)
        _, config = load_model(path)
        assert config == pipeline
        assert json.loads(path.read_text())["config"] == pipeline.to_dict()
