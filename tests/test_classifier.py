import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import pegasos_binary, train_per_class
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
        neg_scores = model.decision_scores(np.array([-1.0]))
        pos_scores = model.decision_scores(np.array([1.0]))
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
        with pytest.raises(ValueError, match="dimension"):
            train([np.zeros(3), np.zeros(4)], ["a", "b"])

    def test_missing_class_rejected(self):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="no training examples"):
            train(X, ["a", "b"], classes=("a", "b", "c"))

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


def exact_steps(monkeypatch, X, labels, cfg, classes):
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
    monkeypatch.setattr(classifier, "_train_ovr", lambda Zb, Y, c: train_ovr(Zb.view(RowReads), Y, c))
    train(X, labels, cfg, classes=classes)
    return len(reads)


@pytest.fixture(scope="module")
def corpus_features(tmp_path_factory):
    """2 subjects x 5 sessions: 10 recordings per class, enough for 10-fold."""
    out = tmp_path_factory.mktemp("lockstep_corpus")
    manifest = load_manifest(generate_corpus(out, subjects=2, reps=5, seed=3).manifest_path)
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
        # Exact small values put margins on or next to 1.0, where a batched
        # product and a one-class dot product can round to opposite sides.
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
    def test_exact_steps_are_the_updating_steps(self, monkeypatch, shape, cfg):
        # Classes leave the active set at different epochs (in the last case
        # one runs to max_epochs), so the estimate must follow the active rows.
        # With no margin near 1.0, exactly the steps that update some class
        # take the exact path: no missed update, no needless exact step.
        X, labels = toy_clusters(*shape)
        classes = tuple(sorted(set(labels)))
        updates = set()
        *_, epochs, _, _ = train_per_class(X, labels, cfg, classes, updates)
        assert len(set(epochs)) > 1
        assert exact_steps(monkeypatch, X, labels, cfg, classes) == len(updates)
        assert_matches_per_class(X, labels, cfg, classes)

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
        save_model(train(X, labels), path)
        assert set(json.loads(path.read_text())) == {
            "version", "classes", "weights", "biases", "scaler_mean", "scaler_std", "config"
        }
        loaded, _ = load_model(path)
        assert loaded.epochs == () and loaded.converged == () and loaded.objectives == ()


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
        query = X[20].copy()
        query[3] = np.nan
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

    @pytest.mark.parametrize("c", [1e-320, 1e308])
    def test_regularization_without_a_finite_step_scale(self, clusters, c):
        # lam = 1/(C*m) is inf for C = 1e-320 (NaN weights, every label "fall")
        # and 0 for C = 1e308 (a ZeroDivisionError in the step size).
        X, labels = clusters
        with pytest.raises(ValueError, match="regularization_c"):
            train(X, labels, SvmConfig(regularization_c=c))

    def test_regularization_giving_non_finite_weights(self):
        X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
        message = "regularization_c 1e\\+307 gives non-finite weights"
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=message):
            train(X, labels, SvmConfig(regularization_c=1e307))

    @pytest.mark.parametrize("c", [1e200, 1e300, 1e306])
    def test_regularization_overflowing_in_training(self, c):
        # Here the margin products overflow while the weights stay finite, so
        # only the floating-point state shows that training went wrong.
        X, labels = toy_clusters(n_classes=3, per_class=5, dim=4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"regularization_c {c!r} gives non-finite")):
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

    def test_batch_matches_single(self, clusters, rng):
        X, labels = clusters
        model = train(X, labels)
        queries = rng.normal(0, 3, (25, X.shape[1]))
        batch_labels, batch_scores = predict_batch(model, queries)
        for i, q in enumerate(queries):
            label, scores = predict(model, q)
            assert label == batch_labels[i]
            assert np.array_equal(scores, batch_scores[i])

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
        x1 = rng.normal(0, 2, X.shape[1])
        x2 = rng.normal(0, 2, X.shape[1])
        for alpha in (0.0, 0.25, 0.6, 1.0):
            mix = model.decision_scores(alpha * x1 + (1 - alpha) * x2)
            combo = alpha * model.decision_scores(x1) + (1 - alpha) * model.decision_scores(x2)
            assert np.abs(mix - combo).max() < 1e-9

    def test_margin_reached_before_max_epochs(self):
        X, labels = toy_clusters(n_classes=3, per_class=15, dim=10, seed=3)
        model = train(X, labels, SvmConfig(max_epochs=200))
        pred, _ = predict_batch(model, X)
        assert pred == labels


class TestPersistence:
    def test_round_trip_preserves_predictions(self, clusters, tmp_path, rng):
        X, labels = clusters
        model = train(X, labels)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, config = load_model(path)
        assert loaded.classes == model.classes
        assert config["svm"]["seed"] == model.train_config.seed
        queries = rng.normal(0, 3, (100, X.shape[1]))
        labels_a, scores_a = predict_batch(model, queries)
        labels_b, scores_b = predict_batch(loaded, queries)
        assert labels_a == labels_b
        assert np.abs(scores_a - scores_b).max() < 1e-12

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ModelFormatError, match="version"):
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
            save_model(model, bad)

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
        ],
    )
    def test_malformed_model_rejected(self, clusters, tmp_path, doctor, message):
        X, labels = clusters
        path = tmp_path / "model.json"
        save_model(train(X, labels), path)
        data = json.loads(path.read_text())
        doctor(data)
        path.write_text(json.dumps(data))  # NaN/Infinity are written as JSON extensions
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)

    def test_duplicate_classes_rejected_in_training(self):
        X = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(ValueError, match="duplicate"):
            train(X, ["a", "b", "b"], classes=("a", "b", "b"))

    def test_embedded_pipeline_config(self, clusters, tmp_path):
        X, labels = clusters
        model = train(X, labels)
        path = tmp_path / "model.json"
        pipeline = {"svm": {"seed": 42}, "preprocess": {"target_len": 20}}
        save_model(model, path, config=pipeline)
        _, config = load_model(path)
        assert config == pipeline
