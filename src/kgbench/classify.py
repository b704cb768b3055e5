"""Relational classification track: labeled entities, embedding feature
assembly, a built-in kNN classifier, nested cross-validation over the
embedding hyperparameter grid, and accuracy-difference reporting.

Only kNN is built in; decision trees and SVMs are served through the CSV
feature export. Entity labels never enter embedding training: embeddings
are learned on the plain triple store and the labels only reach the
classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embed import EmbeddingModel, TrainConfig, checkpoint_path, train
from .errors import DataError
from .kg import KnowledgeGraph
from .ranking import _block_rows
from .rules import RuleScorer, mine_rules

KNN_K_GRID = (3, 5, 7, 9, 11, 13, 15)
KNN_WEIGHTS = ("uniform", "distance")
DEFAULT_OUTER_FOLDS = 5
DEFAULT_INNER_FOLDS = 3


@dataclass
class LabeledEntities:
    """Entities with class labels; fold ids are provided or assigned."""

    entity_ids: list[int]
    labels: np.ndarray  # class ids aligned with entity_ids
    class_names: list[str]  # class id -> name (lexicographic assignment)
    folds: np.ndarray | None = None

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def load_labels(lines: Iterable[str], kg: KnowledgeGraph, source: str = "<labels>") -> LabeledEntities:
    """Parse `entity<TAB>class` lines; every entity must exist in the graph."""
    raw: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not all(p.strip() for p in parts):
            raise DataError(f"{source}:{lineno}: expected entity<TAB>class")
        raw.append((parts[0].strip(), parts[1].strip()))
    class_names = sorted({c for _, c in raw})
    class_id = {c: i for i, c in enumerate(class_names)}
    ids, labels = [], []
    for ent, cls in raw:
        if ent not in kg.entities:
            raise DataError(f"labeled entity {ent!r} not present in the graph")
        ids.append(kg.entities.id(ent))
        labels.append(class_id[cls])
    return LabeledEntities(entity_ids=ids, labels=np.asarray(labels, dtype=np.int64), class_names=class_names)


def load_folds(lines: Iterable[str], kg: KnowledgeGraph, labeled: LabeledEntities, source: str = "<folds>") -> None:
    """Attach provided `entity<TAB>fold` assignments to the label set."""
    fold_of: dict[int, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{source}:{lineno}: expected entity<TAB>fold")
        try:
            fold = int(parts[1])
        except ValueError:
            raise DataError(f"{source}:{lineno}: fold id {parts[1]!r} is not an integer") from None
        fold_of[kg.entities.id(parts[0].strip())] = fold
    try:
        labeled.folds = np.asarray([fold_of[e] for e in labeled.entity_ids], dtype=np.int64)
    except KeyError as exc:
        raise DataError(f"fold file misses labeled entity id {exc}") from None


def make_folds(labels: np.ndarray, n_folds: int, seed: int) -> np.ndarray:
    """Stratified fold assignment: per class, shuffle then deal round-robin."""
    if n_folds < 2:
        raise DataError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds = np.empty(len(labels), dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        for pos, i in enumerate(idx):
            folds[i] = pos % n_folds
    return folds


# -- kNN ------------------------------------------------------------------------


def knn_classify(
    train_X: np.ndarray,
    train_y: np.ndarray,
    test_X: np.ndarray,
    k: int,
    weighting: str = "uniform",
) -> np.ndarray:
    """Euclidean kNN with deterministic tie handling.

    Neighbour selection uses a stable sort (equal distances resolve by
    training index). Uniform weighting takes the majority class; distance
    weighting sums 1/d, with exact matches (d = 0) dominating: when any
    selected neighbour has distance zero, the vote is restricted to those.
    Class-vote ties go to the smallest class id.
    """
    return _knn_grid(train_X, train_y, test_X, (k,), (weighting,))[0, 0]


# _knn_grid takes validation rows in blocks whose float64 (rows, fit rows,
# columns) difference array stays within 1 MiB; 4 MiB blocks ran no faster
# and raised the classify stage's peak RSS by about 2.5 MB.
_KNN_BLOCK_BYTES = 1 << 20


def _knn_grid(fit_X, fit_y, val_X, ks: Sequence[int], weightings: Sequence[str]) -> np.ndarray:
    """`knn_classify` for every (k, weighting) from one distance pass, shaped
    (len(ks), len(weightings), len(val_X)). Votes are added one neighbour at
    a time, so every k sums them in neighbour order; zero distances sort
    first, so k's zero-distance vote is the uniform vote of min(k, zeros)."""
    fit_X = np.ascontiguousarray(fit_X, dtype=np.float64)
    val_X = np.ascontiguousarray(val_X, dtype=np.float64)
    fit_y = np.asarray(fit_y, dtype=np.int64)
    if fit_X.ndim != 2 or val_X.ndim != 2 or val_X.shape[1] != fit_X.shape[1] or fit_y.shape != fit_X.shape[:1]:
        raise DataError(
            f"kNN needs (n, d) train features, (n,) labels and (m, d) test features; "
            f"got {fit_X.shape}, {fit_y.shape} and {val_X.shape}"
        )
    n = len(fit_X)
    if n == 0:
        raise DataError("kNN training set is empty")
    for k in ks:
        if not 1 <= k <= n:
            raise DataError(f"k={k} must be in [1, {n}]")
    for w in weightings:
        if w not in KNN_WEIGHTS:
            raise DataError(f"unknown weighting: {w!r}")
    kmax = max(ks, default=0)
    preds = np.empty((len(ks), len(weightings), len(val_X)), dtype=np.int64)
    step = max(1, _KNN_BLOCK_BYTES // (8 * n * max(fit_X.shape[1], 1)))
    for start in range(0, len(val_X), step):
        diff = fit_X - val_X[start : start + step, None, :]
        np.multiply(diff, diff, out=diff)
        d2 = diff.sum(axis=2)  # row i bitwise equals (diff * diff).sum(axis=1) for diff = fit_X - x_i
        order = np.argsort(d2, axis=1, kind="stable")[:, :kmax]
        near = np.take_along_axis(d2, order, axis=1)
        with np.errstate(divide="ignore"):
            inv = 1.0 / np.sqrt(near)
        rows = np.arange(len(d2))
        counts, sums = np.zeros((2, len(d2), int(fit_y.max()) + 1))
        majority, weighted = np.empty((2, kmax, len(d2)), dtype=np.int64)  # votes of the first p + 1
        for p in range(kmax):
            cls = fit_y[order[:, p]]
            counts[rows, cls] += 1.0
            sums[rows, cls] += inv[:, p]
            majority[p] = counts.argmax(axis=1)  # argmax returns the smallest index on ties
            weighted[p] = sums.argmax(axis=1)
        zeros = np.count_nonzero(near == 0.0, axis=1)
        for i, k in enumerate(ks):
            exact = majority[np.clip(zeros, 1, k) - 1, rows]
            for j, w in enumerate(weightings):
                preds[i, j, start : start + len(d2)] = (
                    majority[k - 1] if w == "uniform" else np.where(zeros > 0, exact, weighted[k - 1])
                )
    return preds


# -- cross-validation --------------------------------------------------------------


@dataclass
class CVResult:
    """Per-fold accuracies with the hyperparameters chosen per outer fold.

    `mean` is the size-weighted mean, i.e. total correct / total predicted.
    """

    fold_accuracies: list[float]
    fold_sizes: list[int]
    chosen: list[dict] = field(default_factory=list)

    @property
    def mean(self) -> float:
        total = sum(self.fold_sizes)
        if total == 0:
            return 0.0
        return sum(a * n for a, n in zip(self.fold_accuracies, self.fold_sizes)) / total

    def to_dict(self) -> dict:
        return {
            "fold_accuracies": self.fold_accuracies,
            "fold_sizes": self.fold_sizes,
            "mean": self.mean,
            "chosen": self.chosen,
        }


def _accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    return float((pred == truth).mean()) if len(truth) else 0.0


def nested_cv_features(
    cells: dict,
    labels: np.ndarray,
    folds: np.ndarray,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    k_grid: Sequence[int] = KNN_K_GRID,
    weight_grid: Sequence[str] = KNN_WEIGHTS,
    seed: int = 0,
) -> CVResult:
    """Nested CV over feature cells (one matrix per hyperparameter cell,
    e.g. per (dim, epoch)) crossed with the kNN grid.

    The inner loop sees only inner-fold rows of the outer training split,
    so outer test labels never influence the hyperparameter choice. Grid
    ties resolve to the earliest cell in iteration order.
    """
    if not cells:
        raise DataError("no feature cells given")
    fold_ids = sorted(set(int(f) for f in folds))
    if len(fold_ids) < 2:
        raise DataError("need at least 2 outer folds")
    result = CVResult(fold_accuracies=[], fold_sizes=[])
    for fold in fold_ids:
        test_mask = folds == fold
        train_idx = np.flatnonzero(~test_mask)
        test_idx = np.flatnonzero(test_mask)
        y_train = labels[train_idx]
        inner = make_folds(y_train, min(inner_folds, max(2, len(train_idx))), seed + fold)
        splits = []  # (fit rows, validation rows, positions in k_grid of the k the fit rows allow)
        for inner_fold in sorted(set(int(f) for f in inner)):
            fit_idx, val_idx = np.flatnonzero(inner != inner_fold), np.flatnonzero(inner == inner_fold)
            usable = [i for i, k in enumerate(k_grid) if k <= len(fit_idx)]
            if len(fit_idx) and usable:
                splits.append((fit_idx, val_idx, usable))
        best: tuple[float, dict] | None = None
        for cell_key, X in cells.items():
            X_train = X[train_idx]
            accs = [[[] for _ in weight_grid] for _ in k_grid]  # per grid point, in inner-fold order
            for fit_idx, val_idx, usable in splits:
                ks = [k_grid[i] for i in usable]
                pred = _knn_grid(X_train[fit_idx], y_train[fit_idx], X_train[val_idx], ks, weight_grid)
                for row, i in enumerate(usable):
                    for j in range(len(weight_grid)):
                        accs[i][j].append(_accuracy(pred[row, j], y_train[val_idx]))
            for i, k in enumerate(k_grid):
                for j, w in enumerate(weight_grid):
                    if not accs[i][j]:
                        continue
                    score = float(np.mean(accs[i][j]))
                    if best is None or score > best[0]:
                        best = (score, {"cell": cell_key, "k": k, "weighting": w})
        if best is None:
            raise DataError(f"no usable hyperparameter cell for outer fold {fold}")
        choice = best[1]
        X = cells[choice["cell"]]
        k_eff = min(choice["k"], len(train_idx))
        pred = knn_classify(X[train_idx], y_train, X[test_idx], k_eff, choice["weighting"])
        result.fold_accuracies.append(_accuracy(pred, labels[test_idx]))
        result.fold_sizes.append(len(test_idx))
        result.chosen.append({**choice, "cell": _cell_repr(choice["cell"])})
    return result


def _cell_repr(key) -> str:
    if isinstance(key, tuple):
        return "/".join(str(k) for k in key)
    return str(key)


def assert_label_free(kg: KnowledgeGraph, label_relation: str) -> None:
    """Guard against label leakage into embedding training: the graph the
    embeddings consume must not contain the label relation's triples."""
    if label_relation not in kg.relations:
        return
    rid = kg.relations.id(label_relation)
    leaked = int(np.count_nonzero(kg.all_rows()[:, 1] == rid))
    if leaked:
        raise DataError(
            f"label relation {label_relation!r} has {leaked} triples in the "
            "embedding graph; strip them before training"
        )


def embedding_feature_cells(
    kg: KnowledgeGraph,
    labeled: LabeledEntities,
    model: str,
    dims: Sequence[int],
    checkpoint_dir: Path,
    epochs: int = 100,
    checkpoint_every: int = 20,
    seed: int = 0,
    train_missing: bool = True,
    train_overrides: dict | None = None,
) -> dict[tuple[int, int], np.ndarray]:
    """Feature matrices for every (dim, checkpoint epoch) grid cell,
    training and checkpointing once per dim when allowed."""
    checkpoint_dir = Path(checkpoint_dir)
    cells: dict[tuple[int, int], np.ndarray] = {}
    epoch_grid = list(range(checkpoint_every, epochs + 1, checkpoint_every))
    for dim in dims:
        cfg = TrainConfig(
            model=model, dim=dim, epochs=epochs, checkpoint_every=checkpoint_every, seed=seed,
            **(train_overrides or {}),
        )
        missing = [e for e in epoch_grid if not checkpoint_path(checkpoint_dir, cfg, e).exists()]
        if missing:
            if not train_missing:
                raise DataError(
                    f"missing checkpoint for cell dim={dim}, epoch={missing[0]} "
                    f"(model={model}, seed={seed})"
                )
            train(kg, cfg, checkpoint_dir=checkpoint_dir)
        for epoch in epoch_grid:
            path = checkpoint_path(checkpoint_dir, cfg, epoch)
            if not path.exists():
                raise DataError(f"missing checkpoint for cell dim={dim}, epoch={epoch}")
            m = EmbeddingModel.load(path)
            cells[(dim, epoch)] = m.feature_matrix(labeled.entity_ids)
    return cells


def nested_cv(
    kg: KnowledgeGraph,
    labeled: LabeledEntities,
    model: str,
    dims: Sequence[int],
    checkpoint_dir: Path,
    epochs: int = 100,
    checkpoint_every: int = 20,
    outer_folds: int = DEFAULT_OUTER_FOLDS,
    inner_folds: int = DEFAULT_INNER_FOLDS,
    k_grid: Sequence[int] = KNN_K_GRID,
    weight_grid: Sequence[str] = KNN_WEIGHTS,
    seed: int = 0,
    label_relation: str | None = None,
    train_overrides: dict | None = None,
) -> CVResult:
    """Distributional track: nested CV treating embedding dimension and
    checkpoint epoch as extra hyperparameters next to the kNN grid."""
    if label_relation is not None:
        assert_label_free(kg, label_relation)
    folds = labeled.folds
    if folds is None:
        folds = make_folds(labeled.labels, outer_folds, seed)
    cells = embedding_feature_cells(
        kg, labeled, model, dims, checkpoint_dir, epochs, checkpoint_every, seed,
        train_overrides=train_overrides,
    )
    return nested_cv_features(
        cells, labeled.labels, folds, inner_folds, k_grid, weight_grid, seed
    )


# -- symbolic baseline ---------------------------------------------------------------


class RuleBasedClassifier:
    """Mines rules with the label relation as target and predicts the
    class whose best firing rule has the highest confidence, falling back
    to the training majority class (smallest class id on ties)."""

    def __init__(self, label_relation: str = "has_label", max_body_len: int = 2, min_coverage: int = 1):
        self.label_relation = label_relation
        self.max_body_len = max_body_len
        self.min_coverage = min_coverage
        self._scorer: RuleScorer | None = None
        self._class_entity_ids: list[int] = []
        self._majority: int = 0
        self._rel_id: int = -1

    def fit(self, kg: KnowledgeGraph, labeled: LabeledEntities, train_rows: np.ndarray) -> "RuleBasedClassifier":
        label_triples = [
            (kg.entities.label(labeled.entity_ids[i]), self.label_relation, labeled.class_names[labeled.labels[i]])
            for i in train_rows
        ]
        kg2 = kg.extended(label_triples, "train")
        self._rel_id = kg2.relations.id(self.label_relation)
        # recursion admits label-propagation rules (the label of a linked
        # entity); unlabeled test entities never fire the recursive atoms
        theory = mine_rules(kg2, self._rel_id, self.max_body_len, self.min_coverage, allow_recursion=True)
        self._scorer = RuleScorer({self._rel_id: theory}, kg2)
        self._class_entity_ids = [
            kg2.entities.id(name) if name in kg2.entities else -1 for name in labeled.class_names
        ]
        counts = np.bincount(labeled.labels[train_rows], minlength=labeled.n_classes)
        self._majority = int(np.argmax(counts))
        return self

    def predict(self, entity_ids: Sequence[int]) -> np.ndarray:
        """Entity ids are stable across the label extension, so ids from
        the base graph work directly. Entities are scored in blocks of
        evaluate's rows, and only the class columns are read: the first
        class of highest score above 0, else the majority class."""
        if self._scorer is None:
            raise DataError("classifier is not fitted")
        entity_ids = np.asarray(entity_ids, dtype=np.int64)
        classes = np.array(self._class_entity_ids, dtype=np.int64)
        size = _block_rows(self._scorer.n_entities)
        preds = np.empty(len(entity_ids), dtype=np.int64)
        for lo in range(0, len(entity_ids), size):
            ents = entity_ids[lo : lo + size]
            scores = self._scorer.score_block(np.full(len(ents), self._rel_id), ents, "tail")
            scores = np.where(classes >= 0, scores[:, classes], 0.0)  # a missing class entity never fires
            best = np.argmax(scores, axis=1)  # the first class with the highest score
            preds[lo : lo + size] = np.where(scores.max(axis=1) > 0.0, best, self._majority)
        return preds


def symbolic_cv(
    kg: KnowledgeGraph,
    labeled: LabeledEntities,
    outer_folds: int = DEFAULT_OUTER_FOLDS,
    seed: int = 0,
    label_relation: str = "has_label",
    max_body_len: int = 2,
    min_coverage: int = 1,
) -> CVResult:
    """Symbolic track: per outer fold, mine rules on train-fold labels only
    and score held-out entities."""
    folds = labeled.folds
    if folds is None:
        folds = make_folds(labeled.labels, outer_folds, seed)
    result = CVResult(fold_accuracies=[], fold_sizes=[])
    for fold in sorted(set(int(f) for f in folds)):
        test_mask = folds == fold
        train_rows = np.flatnonzero(~test_mask)
        test_rows = np.flatnonzero(test_mask)
        clf = RuleBasedClassifier(label_relation, max_body_len, min_coverage).fit(kg, labeled, train_rows)
        pred = clf.predict([labeled.entity_ids[i] for i in test_rows])
        result.fold_accuracies.append(_accuracy(pred, labeled.labels[test_rows]))
        result.fold_sizes.append(len(test_rows))
        result.chosen.append({"classifier": "rules", "max_body_len": max_body_len})
    return result


# -- comparison ------------------------------------------------------------------------


@dataclass
class AccuracyDifference:
    per_fold: list[float]
    mean: float

    def to_dict(self) -> dict:
        return {"per_fold": self.per_fold, "mean": self.mean}


def accuracy_difference(distributional: CVResult, symbolic: CVResult) -> AccuracyDifference:
    """Per-fold acc(distributional) - acc(symbolic); positive favours the
    distributional side. Requires identical fold structure."""
    if len(distributional.fold_accuracies) != len(symbolic.fold_accuracies):
        raise DataError("fold count mismatch between the two results")
    if distributional.fold_sizes != symbolic.fold_sizes:
        raise DataError("fold sizes differ between the two results")
    per_fold = [a - b for a, b in zip(distributional.fold_accuracies, symbolic.fold_accuracies)]
    return AccuracyDifference(per_fold=per_fold, mean=float(np.mean(per_fold)))
