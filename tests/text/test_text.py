"""Unit tests for the text-analysis primitives."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text import (
    jaccard_similarity,
    sarcasm_score,
    sentences,
    sentiment_score,
    summarize,
    technicality_score,
    tokens,
)
from repro.text.similarity import cosine_similarity, tf_idf_vectors
from repro.text.summarize import summarize_items
from repro.text.tokenize import content_tokens, has_content_token


class TestTokenize:
    def test_basic_tokens(self):
        assert tokens("Hello, World!") == ["hello", "world"]

    def test_keeps_numbers_and_hyphens(self):
        assert tokens("top-3 of 2.5") == ["top-3", "of", "2.5"]

    def test_case_preserved_when_asked(self):
        assert tokens("Ada", lowercase=False) == ["Ada"]

    def test_content_tokens_drop_stopwords(self):
        assert content_tokens("the cat and the hat") == ["cat", "hat"]

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    @example("the and of")
    @example("The AND 3")
    @example("İs ſo")
    def test_has_content_token_is_content_tokens_nonempty(self, text):
        assert has_content_token(text) == bool(content_tokens(text))

    def test_sentences(self):
        assert sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]

    def test_sentences_empty(self):
        assert sentences("   ") == []


class TestSentiment:
    def test_positive(self):
        assert sentiment_score("an excellent, wonderful answer") > 0.2

    def test_negative(self):
        assert sentiment_score("a terrible, confusing mess") < -0.2

    def test_negation_flips(self):
        positive = sentiment_score("this is good")
        negated = sentiment_score("this is not good")
        assert positive > 0
        assert negated < 0

    def test_intensifier_strengthens(self):
        assert sentiment_score("extremely good") > sentiment_score(
            "somewhat good"
        )

    def test_neutral_text_is_near_zero(self):
        # Neutral text carries only the deterministic tiebreak epsilon.
        assert abs(sentiment_score("the file is on the table")) < 1e-3

    def test_empty(self):
        assert sentiment_score("") == 0.0

    def test_bounded(self):
        text = "amazing " * 50
        assert -1.0 <= sentiment_score(text) <= 1.0


class TestSarcasm:
    def test_marker_phrases_score_high(self):
        assert sarcasm_score("Oh great, another broken build.") > 0.4

    def test_mock_praise_detected(self):
        score = sarcasm_score(
            "Brilliant plan, the whole thing is a miserable failure."
        )
        assert score > 0.4

    def test_plain_praise_scores_low(self):
        assert sarcasm_score("This is a clear and helpful answer.") < 0.3

    def test_neutral_scores_near_zero(self):
        assert sarcasm_score("See section 4 of the textbook.") < 0.2

    def test_bounded(self):
        text = "Oh great, yeah right, as if! " * 10
        assert sarcasm_score(text) <= 1.0 + 1e-3


class TestTechnicality:
    def test_jargon_scores_high(self):
        high = technicality_score(
            "Bayesian regularization of the covariance eigenvalue spectrum"
        )
        low = technicality_score("What is your favorite statistics joke?")
        assert high > 0.4
        assert low < 0.2
        assert high > low

    def test_acronyms_and_symbols_contribute(self):
        with_features = technicality_score("SGD with lr=0.1 and L2")
        without = technicality_score("walking in the park today")
        assert with_features > without

    def test_empty(self):
        assert technicality_score("") == 0.0

    def test_ordering_matches_intuition_on_pool(self):
        from repro.data.codebase_community import POST_TITLES

        first_five = [technicality_score(t) for t in POST_TITLES[:5]]
        last_five = [technicality_score(t) for t in POST_TITLES[-5:]]
        assert min(first_five) > max(last_five)


class TestSummarize:
    def test_short_text_returned_whole(self):
        text = "One sentence. Two sentence."
        assert summarize(text, max_sentences=4) == text

    def test_caps_sentence_count(self):
        text = " ".join(f"Sentence number {i} talks about data." for i in range(12))
        summary = summarize(text, max_sentences=3)
        assert summary.count(".") <= 3

    def test_extractive_faithfulness(self):
        text = (
            "The model overfits badly. Regularization helps the model. "
            "The model and data interact. Unrelated trivia here. "
            "More model discussion follows."
        )
        summary = summarize(text, max_sentences=2)
        for sentence in summary.split(". "):
            if sentence:
                assert sentence.rstrip(".") in text

    def test_summarize_items_joins_fragments(self):
        summary = summarize_items(["no punctuation", "also none"])
        assert "no punctuation." in summary


class TestSimilarity:
    def test_jaccard_identity_and_disjoint(self):
        assert jaccard_similarity("alpha beta", "alpha beta") == 1.0
        assert jaccard_similarity("alpha", "gamma") == 0.0

    def test_jaccard_empty(self):
        assert jaccard_similarity("", "") == 0.0

    def test_tfidf_cosine_favours_overlap(self):
        docs = [
            "gradient descent converges quickly",
            "gradient descent diverges sometimes",
            "cats eat fish",
        ]
        vectors = tf_idf_vectors(docs)
        close = cosine_similarity(vectors[0], vectors[1])
        far = cosine_similarity(vectors[0], vectors[2])
        assert close > far

    def test_cosine_empty_vector(self):
        assert cosine_similarity({}, {"a": 1.0}) == 0.0
