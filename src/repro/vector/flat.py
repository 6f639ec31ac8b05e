"""Exact (brute-force) inner-product kNN index."""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


class FlatIndex:
    """Exact nearest-neighbour search by inner product.

    Embeddings from :class:`~repro.embed.HashingEmbedder` are unit-norm,
    so inner product equals cosine similarity.  Equivalent to FAISS's
    ``IndexFlatIP``, which the paper's RAG baseline builds over
    row-level embeddings.
    """

    def __init__(self, dimensions: int) -> None:
        if dimensions <= 0:
            raise ReproError("dimensions must be positive")
        self.dimensions = dimensions
        self._vectors = np.zeros((0, dimensions), dtype=np.float64)

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def add(self, vectors: np.ndarray) -> None:
        """Append vectors (shape ``(n, dimensions)``)."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
        if vectors.shape[1] != self.dimensions:
            raise ReproError(
                f"expected dimension {self.dimensions}, "
                f"got {vectors.shape[1]}"
            )
        self._vectors = np.vstack([self._vectors, vectors])

    def search(
        self, query: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` (indices, scores) by inner product, best first."""
        query = _checked_query(query, k, self.dimensions)
        if len(self) == 0:
            return (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
        scores = self._vectors @ query
        order = _best_first(scores, k)
        return order.astype(np.int64), scores[order]


def _checked_query(query: np.ndarray, k: int, dimensions: int) -> np.ndarray:
    """``query`` as a vector; :class:`ReproError` on a wrong dimension or
    on a ``k`` that is not a non-negative integer."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ReproError(f"k must be a non-negative integer, got {k!r}")
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != dimensions:
        raise ReproError(f"query dimension {query.shape[0]} != {dimensions}")
    return query


def _best_first(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` highest ``scores``, best first."""
    k = min(k, len(scores))
    top = np.argpartition(-scores, k - 1)[:k]
    return top[np.argsort(-scores[top], kind="stable")]
