"""Unit and property tests for the flat and IVF vector indexes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.vector import FlatIndex, IVFIndex


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


@pytest.fixture()
def corpus() -> np.ndarray:
    rng = np.random.default_rng(7)
    return _unit_rows(rng.normal(size=(200, 32)))


class TestFlatIndex:
    def test_empty_search(self):
        index = FlatIndex(8)
        ids, scores = index.search(np.zeros(8), 5)
        assert len(ids) == 0 and len(scores) == 0

    def test_exact_top1_is_self(self, corpus):
        index = FlatIndex(32)
        index.add(corpus)
        ids, scores = index.search(corpus[17], 1)
        assert ids[0] == 17
        assert scores[0] == pytest.approx(1.0)

    def test_scores_descending(self, corpus):
        index = FlatIndex(32)
        index.add(corpus)
        _, scores = index.search(corpus[0], 10)
        assert all(
            scores[i] >= scores[i + 1] for i in range(len(scores) - 1)
        )

    def test_k_capped_at_size(self):
        index = FlatIndex(4)
        index.add(np.eye(4)[:2])
        ids, _ = index.search(np.ones(4), 10)
        assert len(ids) == 2

    def test_dimension_mismatch(self):
        index = FlatIndex(4)
        with pytest.raises(ReproError):
            index.add(np.ones((1, 5)))
        with pytest.raises(ReproError):
            index.search(np.ones(5), 1)

    @given(st.integers(0, 199), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_matches_numpy_argmax(self, query_row, k):
        rng = np.random.default_rng(3)
        data = _unit_rows(rng.normal(size=(200, 16)))
        index = FlatIndex(16)
        index.add(data)
        ids, _ = index.search(data[query_row], k)
        brute = np.argsort(-(data @ data[query_row]), kind="stable")[:k]
        assert set(ids.tolist()) == set(brute.tolist())


class TestIVFIndex:
    def test_requires_training(self):
        index = IVFIndex(8, n_clusters=2)
        with pytest.raises(ReproError):
            index.add(np.ones((1, 8)))

    def test_training_needs_enough_vectors(self):
        index = IVFIndex(8, n_clusters=16)
        with pytest.raises(ReproError):
            index.train(np.ones((4, 8)))

    def test_search_returns_k(self, corpus):
        index = IVFIndex(32, n_clusters=8, nprobe=3, seed=0)
        index.train(corpus)
        index.add(corpus)
        ids, scores = index.search(corpus[5], 10)
        assert len(ids) == 10
        assert ids[0] == 5  # self always in its own probed cluster

    def test_recall_improves_with_nprobe(self, corpus):
        flat = FlatIndex(32)
        flat.add(corpus)

        def recall(nprobe: int) -> float:
            index = IVFIndex(32, n_clusters=10, nprobe=nprobe, seed=0)
            index.train(corpus)
            index.add(corpus)
            hits = 0
            for row in range(0, 200, 10):
                true_ids, _ = flat.search(corpus[row], 10)
                approx_ids, _ = index.search(corpus[row], 10)
                hits += len(set(true_ids.tolist()) & set(approx_ids.tolist()))
            return hits / (20 * 10)

        low = recall(1)
        high = recall(10)
        assert high >= low
        assert high == pytest.approx(1.0)

    def test_deterministic_given_seed(self, corpus):
        def build():
            index = IVFIndex(32, n_clusters=6, nprobe=2, seed=9)
            index.train(corpus)
            index.add(corpus)
            return index.search(corpus[3], 5)[0].tolist()

        assert build() == build()

    def test_empty_search_untrained(self):
        index = IVFIndex(8, n_clusters=2)
        ids, _ = index.search(np.ones(8), 3)
        assert len(ids) == 0

    def test_invalid_params(self):
        with pytest.raises(ReproError):
            IVFIndex(0, n_clusters=4)
        with pytest.raises(ReproError):
            IVFIndex(8, n_clusters=0)


class TestIVFRetrain:
    """Regression tests for the retrain-strands-vectors bug.

    ``train()`` used to reset the inverted lists without rebuilding the
    assignments of already-stored vectors: after a retrain the index
    still reported its old ``len()`` but no probe could ever return the
    stored rows.
    """

    def test_retrain_keeps_stored_vectors_reachable(self, corpus):
        index = IVFIndex(32, n_clusters=4, nprobe=4, seed=0)
        index.train(corpus[:100])
        index.add(corpus[:100])
        # Retrain on a fresh sample — the pre-fix code left all 100
        # stored vectors stranded outside every inverted list.
        index.train(corpus[100:])
        assert len(index) == 100
        ids, scores = index.search(corpus[17], 1)
        assert len(ids) == 1
        assert ids[0] == 17
        assert scores[0] == pytest.approx(1.0)

    def test_retrain_with_full_probe_matches_flat(self, corpus):
        flat = FlatIndex(32)
        flat.add(corpus)
        index = IVFIndex(32, n_clusters=5, nprobe=5, seed=1)
        index.train(corpus)
        index.add(corpus)
        index.train(corpus[::-1].copy())
        for row in range(0, 200, 25):
            true_ids, _ = flat.search(corpus[row], 5)
            got_ids, _ = index.search(corpus[row], 5)
            assert set(got_ids.tolist()) == set(true_ids.tolist())

    def test_retrain_assignments_consistent_with_lists(self, corpus):
        index = IVFIndex(32, n_clusters=4, nprobe=1, seed=2)
        index.train(corpus[:50])
        index.add(corpus[:60])
        index.train(corpus[50:150])
        listed = sorted(
            row for rows in index._lists for row in rows
        )
        assert listed == list(range(60))
        for cluster, rows in enumerate(index._lists):
            for row in rows:
                assert index._assignments[row] == cluster

    def test_retrain_empty_index_unchanged(self, corpus):
        index = IVFIndex(32, n_clusters=4, nprobe=2, seed=0)
        index.train(corpus[:50])
        index.train(corpus[50:100])
        assert len(index) == 0
        ids, _ = index.search(corpus[0], 3)
        assert len(ids) == 0
