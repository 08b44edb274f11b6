"""K-nearest-neighbour baseline classifiers (spectrum and MFCC features).

Brute-force Euclidean search with deterministic tie rules: equal
distances prefer the lower training index, vote ties prefer the lowest
class id. One ranking of a query set, nearest first, serves both
classification and k tuning: every candidate k votes over a prefix of it.

The search ranks squared distances ‖q‖² − 2 q·x + ‖x‖², taken from one
matrix product of a block of queries with the training rows, after both
are shifted by training row 0. The shift keeps every distance, keeps
exact ties exact on grid data, and removes the cancellation a common
offset far from the origin would cause.

These kernels do not check their arguments. Values are checked where
they enter, in `evaluation.py`: `PipelineConfig` fixes every feature
width, `prepare_fold` refuses a fold without training frames, and
`KnnClassifier`, the one caller, passes one fold's rows and labels and
tunes k only on inner splits of at least 8 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Query rows are ranked in blocks of at most this many distances, so the
# [rows, n] distance and sort buffers stay near 32 MB each however many
# queries arrive; the benchmark's searches each fit in one block.
_BLOCK_ELEMENTS = 1 << 22

K_CANDIDATES = (1, 3, 5, 7)  # the k values tune_k tries


@dataclass(frozen=True)
class KnnModel:
    training_features: np.ndarray  # [n, L]
    training_labels: np.ndarray  # [n]
    k: int = 1

    def __post_init__(self):
        feats = np.asarray(self.training_features, dtype=np.float64)
        labels = np.asarray(self.training_labels, dtype=np.int64)
        object.__setattr__(self, "training_features", feats)
        object.__setattr__(self, "training_labels", labels)


def _nearest_labels(model: KnnModel, queries: np.ndarray, depth: int) -> np.ndarray:
    """[m, depth] labels of each query's nearest training rows, nearest first."""
    queries = np.asarray(queries, dtype=np.float64)
    train = model.training_features
    # a training row, not the training mean: the mean is inexact and would
    # turn exact distance ties into near ties
    origin = train[0]
    train = train - origin
    train_sq = np.einsum("ij,ij->i", train, train)
    rows = max(1, _BLOCK_ELEMENTS // len(train))
    order = np.empty((len(queries), depth), dtype=np.int64)
    for start in range(0, len(queries), rows):
        block = queries[start:start + rows] - origin
        # squared distances ‖q‖² − 2 q·x + ‖x‖²: no sqrt, the ranking is the same
        d2 = np.einsum("ij,ij->i", block, block)[:, None] - 2.0 * (block @ train.T)
        d2 += train_sq
        # only the depth nearest are read: distances past the depth-th smallest
        # become +inf, those equal to it stay, so ties at the cut keep index order
        if depth < len(train):
            cut = np.partition(d2, depth - 1, axis=1)[:, depth - 1:depth]
            d2[d2 > cut] = np.inf
        # stable sort keeps lower training indices first on distance ties
        order[start:start + rows] = np.argsort(d2, axis=1, kind="stable")[:, :depth]
    return model.training_labels[order]


def _vote(nearest: np.ndarray, k: int) -> np.ndarray:
    """Majority label among the first k of each row of nearest labels."""
    first = nearest[:, :k]
    votes = (first[:, :, None] == np.arange(first.max(initial=0) + 1)).sum(axis=1)
    return np.argmax(votes, axis=1)  # first max = lowest class id


def knn_classify_batch(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """Majority vote over the k nearest training points, per row of [m, L]."""
    return _vote(_nearest_labels(model, queries, model.k), model.k)


def tune_k(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
) -> int:
    """Pick the K_CANDIDATES k with the highest validation accuracy.

    Candidates larger than the training set are skipped; accuracy ties
    resolve to the smallest k.
    """
    usable = [k for k in K_CANDIDATES if k <= len(train_labels)]
    model = KnnModel(train_features, train_labels, usable[-1])
    nearest = _nearest_labels(model, val_features, model.k)  # one ranking for all k
    # max() keeps the first of equal accuracies, i.e. the smallest k
    return max(usable, key=lambda k: float(np.mean(_vote(nearest, k) == val_labels)))
