from collections import Counter

import numpy as np
import pytest

from mvcnn import knn
from mvcnn.knn import KnnModel, _nearest_labels, knn_classify_batch, tune_k


def oracle_classify(features, labels, query, k):
    """Full sort of (distance, index) pairs, recount votes by hand."""
    dists = [
        (float(np.sqrt(np.sum((f - query) ** 2))), i) for i, f in enumerate(features)
    ]
    dists.sort()  # ties fall back to index order
    votes = Counter(int(labels[i]) for _, i in dists[:k])
    top = max(votes.values())
    return min(c for c, v in votes.items() if v == top)


def reference_tune_k(train_f, train_y, val_f, val_y, candidates):
    """A fresh model and a full oracle search for every usable candidate k."""
    best_k, best_acc = None, -1.0
    for k in sorted(c for c in candidates if 1 <= c <= len(train_y)):
        model = KnnModel(train_f, train_y, k=k)
        preds = [
            oracle_classify(model.training_features, model.training_labels, q, k)
            for q in val_f
        ]
        acc = float(np.mean(np.array(preds) == val_y))
        if acc > best_acc:
            best_k, best_acc = k, acc
    return best_k


def oracle_nearest(features, labels, queries, depth):
    """Per-query Euclidean norms and a stable sort: the search's reference."""
    return np.array([
        labels[np.argsort(np.linalg.norm(features - q, axis=1), kind="stable")[:depth]]
        for q in queries
    ])


def grid_points(rng, n):
    """Points on a 3x3x3 integer grid: repeated rows and equal distances abound."""
    return rng.integers(0, 3, size=(n, 3)).astype(np.float64), rng.integers(0, 4, n)


class TestKnnClassify:
    def test_exact_training_point_k1(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        model = KnnModel(feats, np.array([5, 7, 9]), k=1)
        assert knn_classify_batch(model, np.array([[1.0, 1.0]]))[0] == 7

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(0))
        feats = rng.normal(size=(60, 8))
        labels = rng.integers(0, 5, 60)
        for k in (1, 3, 5, 7):
            model = KnnModel(feats, labels, k=k)
            for _ in range(200):
                q = rng.normal(size=8)
                got = knn_classify_batch(model, q[None])[0]
                assert got == oracle_classify(feats, labels, q, k)

    def test_vote_tie_prefers_lowest_class(self):
        feats = np.array([[1.0], [-1.0]])
        model = KnnModel(feats, np.array([3, 1]), k=2)
        assert knn_classify_batch(model, np.array([[0.0]]))[0] == 1

    def test_distance_tie_prefers_lower_index(self):
        # two equidistant neighbours with different labels, k=1
        feats = np.array([[1.0], [-1.0]])
        model = KnnModel(feats, np.array([4, 2]), k=1)
        assert knn_classify_batch(model, np.array([[0.0]]))[0] == 4

    def test_training_order_permutation_invariant(self):
        rng = np.random.Generator(np.random.PCG64(1))
        feats = rng.normal(size=(40, 6))
        labels = rng.integers(0, 3, 40)
        perm = rng.permutation(40)
        a = KnnModel(feats, labels, k=5)
        b = KnnModel(feats[perm], labels[perm], k=5)
        for _ in range(50):
            q = rng.normal(size=6)
            assert knn_classify_batch(a, q[None])[0] == knn_classify_batch(b, q[None])[0]

    def test_feature_scaling_invariance(self):
        rng = np.random.Generator(np.random.PCG64(2))
        feats = rng.normal(size=(30, 5))
        labels = rng.integers(0, 4, 30)
        queries = rng.normal(size=(20, 5))
        base = knn_classify_batch(KnnModel(feats, labels, k=3), queries)
        scaled = knn_classify_batch(KnnModel(feats * 2.5, labels, k=3), queries * 2.5)
        np.testing.assert_array_equal(base, scaled)


class TestTuneK:
    def test_validation_equals_training_memorizes(self):
        rng = np.random.Generator(np.random.PCG64(3))
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, 30)
        assert tune_k(feats, labels, feats, labels) == 1

    def test_candidates_come_from_k_candidates(self, monkeypatch):
        # the module constant is tune_k's one source of candidates
        feats = np.arange(20.0).reshape(10, 2)
        labels = np.arange(10) % 2
        monkeypatch.setattr(knn, "K_CANDIDATES", (5,))
        assert tune_k(feats, labels, feats, labels) == 5

    def test_tie_prefers_smallest_k(self):
        # validation set where k=3 and k=5 tie above k=1 and k=7:
        # class 0 clusters at 0, class 1 at 1; a noisy class-0 point sits
        # inside the class-1 cluster so k=1 misclassifies the probe near it
        train_f = np.array([[0.0], [0.05], [0.1], [1.0], [1.05], [1.1], [1.02]])
        train_y = np.array([0, 0, 0, 1, 1, 1, 0])
        val_f = np.array([[1.03], [0.02]])
        val_y = np.array([1, 0])
        accs = {}
        for k in (1, 3, 5, 7):
            model = KnnModel(train_f, train_y, k=k)
            accs[k] = float(
                np.mean(knn_classify_batch(model, val_f) == val_y)
            )
        best = max(accs.values())
        tied = [k for k, a in accs.items() if a == best]
        assert tune_k(train_f, train_y, val_f, val_y) == min(tied)

    def test_oversized_candidates_skipped(self):
        # 3 training rows: k=5 and k=7 are skipped, and k=3 (the majority
        # of all three rows) beats k=1 on the middle point
        feats = np.array([[0.0], [1.0], [2.0]])
        labels = np.array([0, 1, 0])
        assert tune_k(feats, labels, np.array([[1.0]]), np.array([0])) == 3


class TestTies:
    def test_batch_matches_oracle_on_integer_grid(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(8):
            feats, labels = grid_points(rng, 40)
            queries, _ = grid_points(rng, 30)
            for k in range(1, 8):
                got = knn_classify_batch(KnnModel(feats, labels, k=k), queries)
                want = [oracle_classify(feats, labels, q, k) for q in queries]
                np.testing.assert_array_equal(got, want)

    def test_tune_k_matches_per_k_search_on_integer_grid(self):
        rng = np.random.Generator(np.random.PCG64(8))
        chosen = set()
        for n_train in (3, 6, 12, 40) * 5:
            train_f, train_y = grid_points(rng, n_train)
            val_f, val_y = grid_points(rng, 15)
            k = tune_k(train_f, train_y, val_f, val_y)
            assert k == reference_tune_k(train_f, train_y, val_f, val_y, knn.K_CANDIDATES)
            chosen.add(k)
        assert len(chosen) > 2  # the comparison covers more than k=1


class TestSearchOracle:
    """The first 7 neighbours of the one-product search equal the per-query norms'."""

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8])
    def test_gaussian_far_from_origin(self, offset):
        rng = np.random.Generator(np.random.PCG64(11))
        feats = rng.normal(size=(400, 512)) + offset
        labels = np.arange(400)  # labels name the rows, so the order is compared
        queries = rng.normal(size=(50, 512)) + offset
        model = KnnModel(feats, labels, k=7)
        np.testing.assert_array_equal(
            _nearest_labels(model, queries, 7), oracle_nearest(feats, labels, queries, 7)
        )

    @pytest.mark.parametrize("step", [1.0, 0.25])
    def test_grid_ties_offset(self, step):
        # integer (step 1) and dyadic (step 1/4) grids: exact ties abound, and
        # every coordinate and distance is exact in float64. At every depth,
        # ties straddle the depth-th distance, where the ranking is cut, and
        # the 7-row sets are ranked whole at depth 7
        rng = np.random.Generator(np.random.PCG64(12))
        straddled = whole = 0
        for n_train in (120, 120, 120, 120, 120, 7, 7):
            feats = rng.integers(0, 4, size=(n_train, 6)) * step + 1000.0
            queries = rng.integers(0, 4, size=(60, 6)) * step + 1000.0
            labels = np.arange(n_train)
            dists = np.sort(((queries[:, None] - feats) ** 2).sum(axis=2), axis=1)
            for depth in range(1, 8):
                model = KnnModel(feats, labels, k=depth)
                np.testing.assert_array_equal(
                    _nearest_labels(model, queries, depth),
                    oracle_nearest(feats, labels, queries, depth),
                )
                if depth < n_train:
                    straddled += int(np.sum(dists[:, depth - 1] == dists[:, depth]))
                whole += depth >= n_train
        assert straddled > 100 and whole == 2

    @pytest.mark.parametrize("block", [None, 300 * 7])
    def test_batch_rows_match_single_queries(self, block, monkeypatch):
        if block is not None:  # rank 7 query rows at a time
            monkeypatch.setattr(knn, "_BLOCK_ELEMENTS", block)
        rng = np.random.Generator(np.random.PCG64(13))
        feats = rng.normal(size=(300, 40)) + 50.0
        labels = rng.integers(0, 6, 300)
        queries = np.concatenate([rng.normal(size=(60, 40)) + 50.0, feats[:20]])
        for k in (1, 3, 7):
            model = KnnModel(feats, labels, k=k)
            batch = knn_classify_batch(model, queries)
            single = [knn_classify_batch(model, q[None])[0] for q in queries]
            np.testing.assert_array_equal(batch, single)
