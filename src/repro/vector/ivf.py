"""Inverted-file (IVF) approximate kNN index.

Clusters the corpus with seeded k-means (Lloyd's algorithm) and probes
only the ``nprobe`` closest clusters at query time — the classic
FAISS ``IndexIVFFlat`` trade-off between recall and latency, which the
vector-index ablation benchmark sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.vector.flat import _best_first, _checked_query

#: Lloyd iterations per :meth:`IVFIndex.train`.
_KMEANS_ITERATIONS = 10


class IVFIndex:
    def __init__(
        self,
        dimensions: int,
        n_clusters: int = 16,
        nprobe: int = 2,
        seed: int = 0,
    ) -> None:
        if dimensions <= 0 or n_clusters <= 0 or nprobe <= 0:
            raise ReproError(
                "dimensions, n_clusters, and nprobe must be positive"
            )
        self.dimensions = dimensions
        self.n_clusters = n_clusters
        self.nprobe = min(nprobe, n_clusters)
        self._seed = seed
        self._centroids: np.ndarray | None = None
        self._vectors = np.zeros((0, dimensions), dtype=np.float64)
        self._assignments = np.zeros(0, dtype=np.int64)
        self._lists: list[list[int]] = []

    def __len__(self) -> int:
        return self._vectors.shape[0]

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: np.ndarray) -> None:
        """Fit cluster centroids with seeded k-means.

        Retraining an index that already holds vectors reassigns every
        stored vector to the new centroids, so no stored row becomes
        unreachable: ``len(index)`` and the probe-reachable set stay in
        agreement (previously retraining cleared the inverted lists but
        kept the vectors, stranding them where no probe could return
        them).
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[0] < self.n_clusters:
            raise ReproError(
                f"need at least {self.n_clusters} training vectors, "
                f"got {vectors.shape[0]}"
            )
        rng = np.random.default_rng(self._seed)
        choice = rng.choice(
            vectors.shape[0], size=self.n_clusters, replace=False
        )
        centroids = vectors[choice].copy()
        for _ in range(_KMEANS_ITERATIONS):
            distances = _pairwise_sq_distances(vectors, centroids)
            labels = np.argmin(distances, axis=1)
            for cluster in range(self.n_clusters):
                members = vectors[labels == cluster]
                if len(members):
                    centroids[cluster] = members.mean(axis=0)
        self._centroids = centroids
        self._lists = [[] for _ in range(self.n_clusters)]
        if len(self):
            stored = np.argmin(
                _pairwise_sq_distances(self._vectors, centroids), axis=1
            ).astype(np.int64)
            self._assignments = stored
            for row, label in enumerate(stored):
                self._lists[int(label)].append(row)

    def add(self, vectors: np.ndarray) -> None:
        if not self.is_trained:
            raise ReproError("IVFIndex must be trained before add()")
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dimensions:
            raise ReproError(
                f"expected dimension {self.dimensions}, "
                f"got {vectors.shape[1]}"
            )
        start = len(self)
        distances = _pairwise_sq_distances(vectors, self._centroids)
        labels = np.argmin(distances, axis=1)
        self._vectors = np.vstack([self._vectors, vectors])
        self._assignments = np.concatenate(
            [self._assignments, labels.astype(np.int64)]
        )
        for offset, label in enumerate(labels):
            self._lists[int(label)].append(start + offset)

    def search(
        self, query: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate top-``k`` (indices, scores) by inner product."""
        query = _checked_query(query, k, self.dimensions)
        if not self.is_trained or len(self) == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        centroid_scores = self._centroids @ query
        probe = np.argsort(-centroid_scores, kind="stable")[: self.nprobe]
        candidates: list[int] = []
        for cluster in probe:
            candidates.extend(self._lists[int(cluster)])
        if not candidates:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        candidate_ids = np.asarray(candidates, dtype=np.int64)
        scores = self._vectors[candidate_ids] @ query
        order = _best_first(scores, k)
        return candidate_ids[order], scores[order]


def _pairwise_sq_distances(
    points: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers)."""
    point_norms = (points**2).sum(axis=1, keepdims=True)
    center_norms = (centers**2).sum(axis=1)
    return point_norms - 2.0 * points @ centers.T + center_norms
