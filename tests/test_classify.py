"""kNN against the exhaustive oracle and the retired per-point loop,
nested CV, accuracy differences."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgbench.classify import (
    KNN_K_GRID,
    KNN_WEIGHTS,
    _knn_grid,
    accuracy_difference,
    assert_label_free,
    CVResult,
    knn_classify,
    load_labels,
    make_folds,
    nested_cv,
    nested_cv_features,
    symbolic_cv,
)
from kgbench.errors import DataError
from kgbench.kg import KnowledgeGraph, ingest_triples
from oracles import oracle_knn, reference_knn_classify, reference_nested_cv_features


def _gaussian_two_class(rng, n=200, dim=5, sep=2.0):
    half = n // 2
    X = np.concatenate(
        [rng.normal(0.0, 1.0, size=(half, dim)), rng.normal(sep, 1.0, size=(n - half, dim))]
    )
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(n - half, dtype=np.int64)])
    return X, y


def build_separable_kg() -> KnowledgeGraph:
    """Label = has an r1 edge: group a links via r1 to a shared hub, group
    b via r3; both groups carry an r2 ring for propagation structure."""
    kg = KnowledgeGraph()
    for i in range(30):
        kg.add_triple(f"a{i}", "r1", "hub_a", "train")
        kg.add_triple(f"a{i}", "r2", f"a{(i + 1) % 30}", "train")
    for i in range(30):
        kg.add_triple(f"b{i}", "r3", "hub_b", "train")
        kg.add_triple(f"b{i}", "r2", f"b{(i + 1) % 30}", "train")
    return kg


def separable_labels(kg):
    lines = [f"a{i}\tpos" for i in range(30)] + [f"b{i}\tneg" for i in range(30)]
    return load_labels(lines, kg)


class TestKnn:
    def test_k1_exact_training_point(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        y = np.array([0, 1])
        assert knn_classify(X, y, np.array([[5.0, 5.0]]), k=1)[0] == 1

    def test_k3_majority(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([0, 0, 1, 1])
        assert knn_classify(X, y, np.array([[0.05]]), k=3)[0] == 0

    def test_matches_oracle_on_all_grid_cells(self):
        rng = np.random.default_rng(55)
        X, y = _gaussian_two_class(rng, n=120, dim=4)
        test_X = rng.normal(1.0, 1.5, size=(40, 4))
        for k in KNN_K_GRID:
            for w in KNN_WEIGHTS:
                mine = knn_classify(X, y, test_X, k, w)
                oracle = oracle_knn(X.tolist(), y.tolist(), test_X.tolist(), k, w)
                assert mine.tolist() == oracle, f"k={k} weighting={w}"

    def test_k_equals_train_size_predicts_majority(self):
        rng = np.random.default_rng(56)
        X = rng.normal(size=(30, 3))
        y = np.array([0] * 17 + [1] * 13)
        preds = knn_classify(X, y, rng.normal(size=(10, 3)), k=30, weighting="uniform")
        assert (preds == 0).all()

    def test_zero_distance_neighbors_dominate(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        y = np.array([1, 1, 0])
        # with plain 1/d weighting the 0.1-away neighbor would be finite,
        # but exact matches override
        assert knn_classify(X, y, np.array([[0.0, 0.0]]), k=3, weighting="distance")[0] == 1

    def test_class_tie_goes_to_smallest_id(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        assert knn_classify(X, y, np.array([[1.0]]), k=2, weighting="uniform")[0] == 0

    def test_empty_training_set(self):
        with pytest.raises(DataError, match="empty"):
            knn_classify(np.empty((0, 2)), np.empty(0, dtype=int), np.zeros((1, 2)), k=1)

    def test_k_out_of_range(self):
        X = np.zeros((3, 2))
        y = np.zeros(3, dtype=int)
        with pytest.raises(DataError):
            knn_classify(X, y, X, k=4)

    @pytest.mark.parametrize(
        "train_shape,labels,test_shape",
        [((3,), 3, (3,)), ((3, 2), 3, (2,)), ((3, 2, 1), 3, (1, 2, 1)), ((3, 2), 3, (1, 3)),
         ((3, 2), 2, (1, 2)), ((3, 2), 4, (1, 2))],
        ids=["1-d", "1-d-test", "3-d", "test-columns", "short-labels", "long-labels"],
    )
    def test_mismatched_shapes_are_data_errors(self, train_shape, labels, test_shape):
        y = np.zeros(labels, dtype=int)
        with pytest.raises(DataError, match=re.escape(f"got {train_shape}, ({labels},) and {test_shape}")):
            knn_classify(np.zeros(train_shape), y, np.ones(test_shape), k=1)


@st.composite
def knn_inputs(draw):
    """Training rows drawn with repetition from a pool (duplicate rows), and
    test rows that are training rows (zero distances), pool rows or fresh
    points. Integer-valued features tie distances; widths past 128 cross
    numpy's pairwise-summation block."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=40))
    dim = draw(st.one_of(st.integers(min_value=1, max_value=6), st.integers(min_value=7, max_value=300)))
    pool_size = draw(st.integers(min_value=1, max_value=n))
    if draw(st.booleans()):
        pool = rng.integers(-2, 3, size=(pool_size, dim)).astype(np.float64)
        fresh = rng.integers(-2, 3, size=(8, dim)).astype(np.float64)
    else:
        pool = rng.normal(size=(pool_size, dim))
        fresh = rng.normal(size=(8, dim))
    X = pool[rng.integers(0, pool_size, size=n)]
    y = rng.integers(0, draw(st.integers(min_value=1, max_value=4)), size=n)
    sources = [X, pool, fresh]
    picks = rng.integers(0, 3, size=draw(st.integers(min_value=1, max_value=8)))
    T = np.array([sources[s][rng.integers(0, len(sources[s]))] for s in picks])
    return X, y, T


# one class outweighs another by one ulp when the 1/d votes are summed in
# neighbour order (class 0 at squared distances 8, 12, 12; class 1 at 3, 8),
# and ties with it when summed in reverse
ULP_VOTES = (
    np.array([[2.0, 2, 0], [2, 2, 2], [2, -2, 2], [1, 1, 1], [0, 2, 2]]),
    np.array([0, 0, 0, 1, 1]),
    np.zeros((1, 3)),
)


class TestKnnGrid:
    """The grid kernel against the retired per-point loop."""

    @settings(max_examples=100, deadline=None)
    @given(knn_inputs())
    @example(ULP_VOTES)
    def test_every_k_and_weighting_matches_reference(self, inputs):
        X, y, T = inputs
        ks = range(1, len(X) + 1)
        grid = _knn_grid(X, y, T, ks, KNN_WEIGHTS)
        for i, k in enumerate(ks):
            for j, w in enumerate(KNN_WEIGHTS):
                want = reference_knn_classify(X, y, T, k, w)
                assert grid[i, j].tolist() == want.tolist(), f"k={k} weighting={w}"
                assert knn_classify(X, y, T, k, w).tolist() == want.tolist(), f"k={k} weighting={w}"

    def test_blocks_of_validation_rows_match_reference(self):
        # 120 rows of width 300 take 288 KB per validation row: several blocks
        rng = np.random.default_rng(57)
        X = rng.integers(-1, 2, size=(120, 300)).astype(np.float64)
        y = rng.integers(0, 3, size=120)
        T = np.concatenate([X[:20], rng.integers(-1, 2, size=(20, 300)).astype(np.float64)])
        ks = (1, 2, 7, 15, 120)
        grid = _knn_grid(X, y, T, ks, KNN_WEIGHTS)
        for i, k in enumerate(ks):
            for j, w in enumerate(KNN_WEIGHTS):
                assert grid[i, j].tolist() == reference_knn_classify(X, y, T, k, w).tolist()


def _cv_outcome(fn, *args, **kwargs) -> str:
    try:
        return json.dumps(fn(*args, **kwargs).to_dict(), sort_keys=True)
    except DataError as exc:
        return f"DataError: {exc}"


@st.composite
def cv_inputs(draw):
    """Small labeled sets, so inner folds are often too small for large k,
    with 1-3 cells of real or integer-valued features and grids that may
    repeat entries."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=3, max_value=40))
    labels = rng.integers(0, draw(st.integers(min_value=1, max_value=3)), size=n)
    if draw(st.booleans()):
        folds = make_folds(labels, draw(st.integers(min_value=2, max_value=4)), int(rng.integers(100)))
    else:
        folds = rng.integers(0, draw(st.integers(min_value=2, max_value=4)), size=n)
    cells = {}
    for epoch in range(draw(st.integers(min_value=1, max_value=3))):
        dim = draw(st.integers(min_value=1, max_value=12))
        if draw(st.booleans()):
            cells[(dim, epoch)] = rng.integers(0, 3, size=(n, dim)).astype(np.float64)
        else:
            cells[(dim, epoch)] = rng.normal(size=(n, dim))
    k_grid = tuple(draw(st.lists(st.sampled_from((1, 2, 3, 5, 7, 9, 15)), min_size=1, max_size=4)))
    weight_grid = tuple(draw(st.lists(st.sampled_from(KNN_WEIGHTS), min_size=1, max_size=3)))
    inner_folds = draw(st.integers(min_value=2, max_value=4))
    return cells, labels, folds, inner_folds, k_grid, weight_grid, draw(st.integers(min_value=0, max_value=50))


class TestFolds:
    def test_stratified_balance(self):
        y = np.array([0] * 50 + [1] * 50)
        folds = make_folds(y, 5, seed=1)
        for f in range(5):
            sel = y[folds == f]
            assert abs((sel == 0).sum() - (sel == 1).sum()) <= 1

    def test_provided_folds_respected(self):
        kg = ingest_triples([f"e{i}\tr\te{(i + 1) % 6}" for i in range(6)], "train")
        labeled = load_labels([f"e{i}\t{'x' if i % 2 else 'y'}" for i in range(6)], kg)
        from kgbench.classify import load_folds

        load_folds([f"e{i}\t{i % 2}" for i in range(6)], kg, labeled)
        assert labeled.folds.tolist() == [0, 1, 0, 1, 0, 1]


class TestNestedCV:
    def test_single_candidate_reduces_to_plain_kfold(self):
        rng = np.random.default_rng(60)
        X, y = _gaussian_two_class(rng, n=60, dim=3)
        folds = make_folds(y, 3, seed=2)
        res = nested_cv_features({"only": X}, y, folds, inner_folds=2, k_grid=(3,), weight_grid=("uniform",))
        # manual k-fold with the same fixed configuration
        manual = []
        for f in range(3):
            tr = np.flatnonzero(folds != f)
            te = np.flatnonzero(folds == f)
            pred = knn_classify(X[tr], y[tr], X[te], 3, "uniform")
            manual.append(float((pred == y[te]).mean()))
        assert res.fold_accuracies == manual

    def test_permutation_null_near_chance(self):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(200, 10))
        y = np.array([0, 1] * 100)
        rng.shuffle(y)
        folds = make_folds(y, 5, seed=3)
        res = nested_cv_features(
            {"f": X}, y, folds, inner_folds=3, k_grid=(3, 7, 15), weight_grid=("uniform",)
        )
        assert abs(res.mean - 0.5) <= 0.1

    def test_separable_kg_transe_features(self, tmp_path):
        kg = build_separable_kg()
        labeled = separable_labels(kg)
        res = nested_cv(
            kg,
            labeled,
            model="transe",
            dims=[10],
            checkpoint_dir=tmp_path,
            epochs=100,
            checkpoint_every=20,
            outer_folds=5,
            inner_folds=3,
            k_grid=(3, 5),
            weight_grid=("uniform",),
            seed=0,
            train_overrides={"learning_rate": 0.5, "batch_size": 32, "negatives_per_positive": 4},
        )
        assert res.mean >= 0.9

    def test_missing_checkpoint_names_cell(self, tmp_path):
        kg = build_separable_kg()
        labeled = separable_labels(kg)
        from kgbench.classify import embedding_feature_cells

        with pytest.raises(DataError, match="dim=10, epoch=20"):
            embedding_feature_cells(
                kg, labeled, "transe", [10], tmp_path, epochs=40, checkpoint_every=20,
                train_missing=False,
            )

    def test_accuracies_within_unit_interval_and_weighted_mean(self):
        rng = np.random.default_rng(61)
        X, y = _gaussian_two_class(rng, n=75, dim=3)
        folds = make_folds(y, 4, seed=4)
        res = nested_cv_features({"f": X}, y, folds, inner_folds=2, k_grid=(3, 5), weight_grid=("uniform",))
        assert all(0.0 <= a <= 1.0 for a in res.fold_accuracies)
        weighted = sum(a * n for a, n in zip(res.fold_accuracies, res.fold_sizes)) / sum(res.fold_sizes)
        assert res.mean == pytest.approx(weighted)


class TestNestedCVGrid:
    """nested_cv_features against the retired per-grid-point nested CV."""

    @settings(max_examples=100, deadline=None)
    @given(cv_inputs())
    def test_matches_reference_as_json(self, inputs):
        assert _cv_outcome(nested_cv_features, *inputs) == _cv_outcome(reference_nested_cv_features, *inputs)

    def test_no_usable_cell_error_matches_reference(self):
        labels = np.array([0, 1, 0, 1, 0, 1])
        folds = np.array([0, 0, 0, 1, 1, 1])
        cells = {"f": np.arange(12, dtype=np.float64).reshape(6, 2)}
        args = (cells, labels, folds, 2, (3, 15), KNN_WEIGHTS, 0)
        got = _cv_outcome(nested_cv_features, *args)
        assert got == "DataError: no usable hyperparameter cell for outer fold 0"
        assert got == _cv_outcome(reference_nested_cv_features, *args)


class TestSymbolic:
    def test_rule_classifier_on_separable_kg(self):
        kg = build_separable_kg()
        labeled = separable_labels(kg)
        res = symbolic_cv(kg, labeled, outer_folds=5, seed=0)
        assert res.mean >= 0.9

    def test_label_leak_guard(self):
        kg = build_separable_kg()
        kg2 = kg.extended([("a0", "has_label", "pos")], "train")
        with pytest.raises(DataError, match="has_label"):
            assert_label_free(kg2, "has_label")
        stripped = kg2.copy_without_relations({kg2.relations.id("has_label")})
        assert_label_free(stripped, "has_label")
        # diffing triple sets shows exactly the label triples gone
        diff = kg2.known_true - stripped.known_true
        assert {t.relation for t in diff} == {kg2.relations.id("has_label")}


class TestAccuracyDifference:
    def test_identical_results_zero(self):
        a = CVResult(fold_accuracies=[0.8, 0.9], fold_sizes=[10, 10])
        assert accuracy_difference(a, a).per_fold == [0.0, 0.0]

    def test_positive_favours_distributional(self):
        dist = CVResult(fold_accuracies=[0.90] * 5, fold_sizes=[10] * 5)
        symb = CVResult(fold_accuracies=[0.81] * 5, fold_sizes=[10] * 5)
        diff = accuracy_difference(dist, symb)
        assert diff.mean == pytest.approx(0.09)

    def test_antisymmetry(self):
        rng = np.random.default_rng(62)
        a = CVResult(fold_accuracies=list(rng.random(4)), fold_sizes=[5] * 4)
        b = CVResult(fold_accuracies=list(rng.random(4)), fold_sizes=[5] * 4)
        d1 = accuracy_difference(a, b)
        d2 = accuracy_difference(b, a)
        assert d1.mean == pytest.approx(-d2.mean)
        assert [x for x in d1.per_fold] == pytest.approx([-x for x in d2.per_fold])

    def test_fold_mismatch(self):
        a = CVResult(fold_accuracies=[0.5], fold_sizes=[10])
        b = CVResult(fold_accuracies=[0.5, 0.6], fold_sizes=[5, 5])
        with pytest.raises(DataError, match="fold"):
            accuracy_difference(a, b)
