"""Unit tests for the hashing embedder."""

import numpy as np
import pytest

from repro.embed import HashingEmbedder, serialize_row


@pytest.fixture()
def embedder() -> HashingEmbedder:
    return HashingEmbedder(dimensions=128)


class TestEmbedder:
    def test_unit_norm(self, embedder):
        vector = embedder.embed("hello world of data")
        assert np.linalg.norm(vector) == pytest.approx(1.0)

    def test_deterministic(self, embedder):
        a = embedder.embed("gradient descent")
        b = embedder.embed("gradient descent")
        assert np.array_equal(a, b)

    def test_similar_texts_closer_than_dissimilar(self, embedder):
        query = embedder.embed("races on Sepang International Circuit")
        near = embedder.embed("Sepang International Circuit Malaysia")
        far = embedder.embed("free meal count for elementary schools")
        assert float(query @ near) > float(query @ far)

    def test_batch_shape(self, embedder):
        matrix = embedder.embed_batch(["a", "b", "c"])
        assert matrix.shape == (3, 128)

    def test_empty_batch(self, embedder):
        assert embedder.embed_batch([]).shape == (0, 128)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            HashingEmbedder(dimensions=4)

    def test_trigrams_optional(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        vector = plain.embed("abc")
        assert np.linalg.norm(vector) == pytest.approx(1.0)


class TestDegenerateTextContract:
    """Regression tests for the all-zero-embedding bug.

    ``embed`` used to return the zero vector for texts contributing no
    features, making cosine similarity against them ill-defined (inner
    product 0 against everything).  The contract now: every embedding
    is unit-norm; feature-less ("degenerate") texts share one sentinel
    bucket.
    """

    def test_empty_text_embeds_unit_norm(self, embedder):
        # Pre-fix this was the zero vector (norm 0.0).
        assert np.linalg.norm(embedder.embed("")) == pytest.approx(1.0)

    def test_featureless_text_embeds_unit_norm(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        for text in ["", "?!...", "   "]:
            assert np.linalg.norm(plain.embed(text)) == pytest.approx(
                1.0
            ), repr(text)

    def test_degenerate_texts_share_the_sentinel(self):
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        empty = plain.embed("")
        punct = plain.embed("?!")
        assert np.array_equal(empty, punct)

    def test_sentinel_near_orthogonal_to_content(self, embedder):
        sentinel = embedder.embed("")
        content = embedder.embed("top romance movies by revenue")
        assert abs(float(sentinel @ content)) < 0.5

    def test_is_degenerate(self):
        # A text with no hashed features embeds as the sentinel vector.
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        sentinel = plain.embed("")
        assert np.array_equal(plain.embed("?!..."), sentinel)
        assert not np.array_equal(plain.embed("movies"), sentinel)
        # With trigrams on, any non-empty text contributes features.
        tri = HashingEmbedder(dimensions=64, use_trigrams=True)
        assert not np.array_equal(tri.embed("?!"), tri.embed(""))

    def test_empty_text_no_longer_matches_nothing(self):
        """The observable bug: a zero query vector scored 0 against
        every index entry, so ``search`` ranked arbitrarily."""
        plain = HashingEmbedder(dimensions=64, use_trigrams=False)
        query = plain.embed("")
        stored = plain.embed_batch(["", "alpha beta", "gamma delta"])
        scores = stored @ query
        # The degenerate entry now outranks real content for a
        # degenerate query instead of tying everything at 0.
        assert scores[0] == pytest.approx(1.0)
        assert scores[0] > max(abs(scores[1]), abs(scores[2]))


class TestSerializeRow:
    def test_paper_format(self):
        record = {"School": "A High", "AvgScrMath": 600}
        assert serialize_row(record) == (
            "- School: A High\n- AvgScrMath: 600"
        )
