"""K-nearest-neighbour baseline classifiers (spectrum and MFCC features).

Brute-force Euclidean search with deterministic tie rules: equal
distances prefer the lower training index, vote ties prefer the lowest
class id. One ranking of a query set, nearest first, serves both
classification and k tuning: every candidate k votes over a prefix of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InvalidSetting, LengthMismatch


@dataclass(frozen=True)
class KnnModel:
    training_features: np.ndarray  # [n, L]
    training_labels: np.ndarray  # [n]
    k: int = 1

    def __post_init__(self):
        feats = np.asarray(self.training_features, dtype=np.float64)
        labels = np.asarray(self.training_labels, dtype=np.int64)
        if feats.ndim != 2 or len(feats) == 0:
            raise EmptyDataset("need a nonempty [n, L] training matrix")
        if len(labels) != len(feats):
            raise LengthMismatch("one label per training row required")
        if not 1 <= self.k <= len(feats):
            raise InvalidSetting(f"k must be in [1, {len(feats)}], got {self.k}")
        object.__setattr__(self, "training_features", feats)
        object.__setattr__(self, "training_labels", labels)


def _nearest_labels(model: KnnModel, queries: np.ndarray, depth: int) -> np.ndarray:
    """[m, depth] labels of each query's nearest training rows, nearest first."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != model.training_features.shape[1]:
        raise LengthMismatch(f"query shape {queries.shape} != [m, training width]")
    order = np.empty((len(queries), depth), dtype=np.int64)
    for row, query in zip(order, queries):
        dists = np.linalg.norm(model.training_features - query, axis=1)
        # stable sort keeps lower training indices first on distance ties
        row[:] = np.argsort(dists, kind="stable")[:depth]
    return model.training_labels[order]


def _vote(nearest: np.ndarray, k: int) -> np.ndarray:
    """Majority label among the first k of each row of nearest labels."""
    first = nearest[:, :k]
    votes = (first[:, :, None] == np.arange(first.max(initial=0) + 1)).sum(axis=1)
    return np.argmax(votes, axis=1)  # first max = lowest class id


def knn_classify_batch(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Majority vote over the k nearest training points, per row of [m, L].

    Raises:
        LengthMismatch: query width differs from training features.
    """
    return _vote(_nearest_labels(model, queries, model.k), model.k)


def knn_classify(model: KnnModel, query: np.ndarray) -> int:
    """Classify one query as a one-row batch."""
    return int(knn_classify_batch(model, np.reshape(query, (1, -1)))[0])


def tune_k(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    candidates=(1, 3, 5, 7),
) -> int:
    """Pick the candidate k with the highest validation accuracy.

    Candidates larger than the training set are skipped; accuracy ties
    resolve to the smallest k.

    Raises:
        EmptyDataset: empty training/validation set or no usable candidate.
    """
    train_labels = np.asarray(train_labels)
    val_labels = np.asarray(val_labels)
    if len(train_labels) == 0 or len(val_labels) == 0:
        raise EmptyDataset("tune_k needs nonempty train and validation sets")
    usable = sorted(k for k in candidates if 1 <= k <= len(train_labels))
    if not usable:
        raise EmptyDataset("no candidate k fits the training set size")
    model = KnnModel(train_features, train_labels, usable[-1])
    nearest = _nearest_labels(model, val_features, model.k)  # one ranking for all k
    # max() keeps the first of equal accuracies, i.e. the smallest k
    return max(usable, key=lambda k: float(np.mean(_vote(nearest, k) == val_labels)))
