"""Unit and property tests for the flat and IVF vector indexes."""

import hashlib
import time

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


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _scores_digests() -> dict[str, str]:
    """sha256 of flat and IVF results over a seeded 3,175 x 256 corpus.

    3,175 rows is the largest TAG-Bench row corpus; the IVF digest also
    covers the centroids, so it reads the k-means GEMM bit for bit.
    """
    rng = np.random.default_rng(39)
    rows = _unit_rows(rng.normal(size=(3175, 256)))
    queries = _unit_rows(rng.normal(size=(20, 256)))
    flat = FlatIndex(256)
    flat.add(rows)
    ivf = IVFIndex(256, n_clusters=16, nprobe=4, seed=0)
    ivf.train(rows)
    ivf.add(rows)
    flat_results = [a for q in queries for a in flat.search(q, 10)]
    ivf_results = [a for q in queries for a in ivf.search(q, 10)]
    return {
        "flat": _digest(*flat_results),
        "ivf": _digest(ivf._centroids, *ivf_results),
    }


def test_scores_are_pinned():
    """Search results are bit-identical however many threads BLAS uses."""
    assert _scores_digests() == {
        "flat": "e7933e8ac00b4d48be1712f0f1fcbf0ddc64d0c64c2e17a0b00da91881d35deb",
        "ivf": "40dabed260107360dd1f9fff155f94342213163c5c38905c2bd5bf27c8a53ed9",
    }


def test_search_runs_on_the_calling_thread():
    """No BLAS pool burns CPU beside the caller while searches run."""
    rng = np.random.default_rng(0)
    rows = _unit_rows(rng.normal(size=(4096, 256)))
    index = FlatIndex(256)
    index.add(rows)
    index.search(rows[0], 10)
    process, caller = time.process_time(), time.thread_time()
    for query in rows[:300]:
        index.search(query, 10)
    caller = time.thread_time() - caller
    others = time.process_time() - process - caller
    assert others < 0.05 * caller, (others, caller)


def _k_test_indexes() -> list:
    """Flat and IVF over the same 10 vectors, then an empty flat and an
    untrained IVF index."""
    rng = np.random.default_rng(5)
    rows = _unit_rows(rng.normal(size=(10, 8)))
    flat = FlatIndex(8)
    flat.add(rows)
    ivf = IVFIndex(8, n_clusters=2, nprobe=2, seed=0)
    ivf.train(rows)
    ivf.add(rows)
    return [flat, ivf, FlatIndex(8), IVFIndex(8, n_clusters=2)]


@pytest.mark.parametrize("k", [-1, -9, -10, 2.5, 1.0, True, "3", None])
def test_bad_k_is_a_repro_error(k):
    """A negative k used to return all but |k| rows; a float was numpy's
    bare TypeError.  Both raise as a dimension mismatch does, on empty
    and untrained indexes too."""
    for index in _k_test_indexes():
        with pytest.raises(ReproError, match="non-negative integer"):
            index.search(np.ones(8), k)


def test_k_zero_returns_nothing_and_numpy_k_is_an_integer():
    for index in _k_test_indexes():
        ids, scores = index.search(np.ones(8), 0)
        assert len(ids) == 0 and len(scores) == 0
    flat, ivf = _k_test_indexes()[:2]
    for index in (flat, ivf):
        assert index.search(np.ones(8), np.int64(3))[0].tolist() == (
            index.search(np.ones(8), 3)[0].tolist()
        )
    assert len(flat.search(np.ones(8), 10)[0]) == 10


def test_ivf_query_dimension_mismatch():
    _, ivf, _, untrained = _k_test_indexes()
    for index in (ivf, untrained):
        with pytest.raises(ReproError, match="dimension"):
            index.search(np.ones(5), 1)
