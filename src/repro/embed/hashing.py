"""Feature-hashing embedder.

Replaces the E5 embedding model in the RAG baselines: each text is
embedded as a unit-norm bag of hashed word and character-trigram
features.  Texts sharing vocabulary land near each other in cosine
space, which is the property row-level RAG retrieval depends on —
without any model weights, and fully deterministic.
"""

from __future__ import annotations

import functools
import hashlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.text.tokenize import tokens


# Sized for the benchmark's row corpus (13 k distinct features).
@functools.lru_cache(maxsize=16384)
def _bucket(feature: str, dimensions: int) -> tuple[int, float]:
    digest = hashlib.md5(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dimensions
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


class HashingEmbedder:
    """Hashes word unigrams and character trigrams into a dense vector.

    Degenerate-text contract.  A text that contributes *no* features
    (empty, or punctuation-only/stopword-only with trigrams disabled)
    used to embed as the all-zero vector, which makes cosine similarity
    against it ill-defined: depending on the caller's convention a zero
    key "matches" nothing or everything.  Every embedding is now
    unit-norm: degenerate texts all map to one reserved *sentinel
    bucket*, so they are mutually identical (cosine 1.0 against each
    other) and near-orthogonal to real content — a well-defined point,
    never an ill-defined one.  Callers that must not conflate distinct
    degenerate texts refuse to key on them at all (the semantic serving
    cache's ``CanonicalForm.degenerate``).
    """

    def __init__(
        self, dimensions: int = 256, use_trigrams: bool = True
    ) -> None:
        if dimensions < 8:
            raise ValueError("dimensions must be at least 8")
        self.dimensions = dimensions
        self.use_trigrams = use_trigrams

    def embed(self, text: str) -> np.ndarray:
        """Unit-norm embedding of one text (sentinel for degenerate)."""
        vector = np.zeros(self.dimensions, dtype=np.float64)
        words = tokens(text)
        for word in words:
            index, sign = _bucket("w:" + word, self.dimensions)
            vector[index] += sign
        if self.use_trigrams:
            lowered = " " + text.lower() + " "
            for position in range(len(lowered) - 2):
                trigram = lowered[position : position + 3]
                index, sign = _bucket("t:" + trigram, self.dimensions)
                vector[index] += 0.4 * sign
        norm = np.linalg.norm(vector)
        if norm > 0:
            return vector / norm
        index, sign = _bucket("degenerate:", self.dimensions)
        vector[index] = sign
        return vector

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """(n, dimensions) matrix of unit-norm embeddings."""
        if not texts:
            return np.zeros((0, self.dimensions), dtype=np.float64)
        return np.stack([self.embed(text) for text in texts])


def serialize_row(record: Mapping[str, object]) -> str:
    """Serialize one row as the paper's RAG baseline does: "- col: val"."""
    return "\n".join(f"- {key}: {value}" for key, value in record.items())
