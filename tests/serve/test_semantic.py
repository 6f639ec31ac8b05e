"""Unit and property tests for the semantic serving control plane."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tag import TAGError, TAGResult
from repro.lm.usage import Usage
from repro.serve.semantic import SemanticResultCache, canonicalize


def _ok_result(request: str, answer: object) -> TAGResult:
    return TAGResult(request=request, query="SELECT 1", answer=answer)


# ---------------------------------------------------------------------------
# canonicalizer
# ---------------------------------------------------------------------------


class TestCanonicalizer:
    def test_case_and_whitespace_invariance(self):
        a = canonicalize("What are   the TOP 5 Romance movies?")
        b = canonicalize("what are the top 5 romance movies")
        assert a.text == b.text

    def test_number_normalization(self):
        assert (
            canonicalize("top 05 movies").text
            == canonicalize("top 5 movies").text
        )
        assert (
            canonicalize("rated 3.50 stars").text
            == canonicalize("rated 3.5 stars").text
        )

    def test_conjunction_pairs_order_insensitive(self):
        a = canonicalize("comedy and romance movies")
        b = canonicalize("romance and comedy movies")
        assert a.text == b.text

    def test_word_order_otherwise_preserved(self):
        assert (
            canonicalize("dogs bite men").text
            != canonicalize("men bite dogs").text
        )

    def test_plural_and_possessive_folding(self):
        assert (
            canonicalize("the actors' ages").text
            == canonicalize("actor age").text
        )
        assert (
            canonicalize("cities in Texas").text
            == canonicalize("city in texas").text
        )
        assert (
            canonicalize("top movies").text
            == canonicalize("top movie").text
        )

    def test_degenerate_forms(self):
        for text in ["", "   ", "?!...", "the and of a"]:
            assert canonicalize(text).degenerate, repr(text)
        assert not canonicalize("movies").degenerate

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_any_text(self, text):
        once = canonicalize(text)
        twice = canonicalize(once.text)
        assert twice.text == once.text

    # ASCII only: Unicode one-to-many casings ("ß".upper() == "SS")
    # legitimately change the token stream, so upper-case invariance is
    # only promised where upper/lower round-trips.
    @given(
        st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126),
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_case_whitespace_invariant_property(self, text):
        assert (
            canonicalize(text).text
            == canonicalize("  " + text.upper() + "  ").text
        )

    def test_distinct_questions_never_collapse(self):
        questions = [
            "What is the average revenue of comedy movies?",
            "What is the average revenue of romance movies?",
            "Which director made the most movies?",
            "How many movies were released in 1995?",
            "How many movies were released in 1996?",
            "List the reviews of the longest movie",
            "List the reviews of the shortest movie",
        ]
        forms = [canonicalize(q).text for q in questions]
        assert len(set(forms)) == len(forms)


# ---------------------------------------------------------------------------
# semantic result cache
# ---------------------------------------------------------------------------


class TestSemanticResultCache:
    def test_exact_hit_after_store(self):
        cache = SemanticResultCache(capacity=8)
        cache.store("Top romance movies", _ok_result("q", [1]))
        hit = cache.lookup("top romance movie's!")
        assert hit is not None
        assert hit.via == "exact"
        assert hit.similarity == 1.0
        assert hit.result.answer == [1]

    def test_hit_result_is_a_detached_copy(self):
        cache = SemanticResultCache(capacity=8)
        stored = _ok_result("q", ["a", "b"])
        cache.store("Top romance movies", stored)
        stored.answer.append("mutated-after-store")
        first = cache.lookup("top romance movies")
        first.result.answer.append("mutated-after-lookup")
        second = cache.lookup("top romance movies")
        assert second.result.answer == ["a", "b"]
        assert second.result.request == "top romance movies"

    def test_near_hit_above_threshold(self):
        cache = SemanticResultCache(capacity=8, threshold=0.6)
        cache.store(
            "Summarize the reviews of the top romance movie",
            _ok_result("q", ["fine"]),
        )
        hit = cache.lookup(
            "Summarize all the reviews of the top romance movie please"
        )
        assert hit is not None
        assert hit.via == "near"
        assert 0.6 <= hit.similarity < 1.0
        assert hit.result.answer == ["fine"]

    def test_below_threshold_misses(self):
        cache = SemanticResultCache(capacity=8, threshold=0.95)
        cache.store("Top romance movies", _ok_result("q", [1]))
        assert cache.lookup("Average voter age in Texas") is None

    def test_invalidate_all(self):
        cache = SemanticResultCache(capacity=8)
        cache.store("alpha question", _ok_result("q", 1))
        cache.store("beta question", _ok_result("q", 2))
        assert cache.invalidate() == 2
        assert len(cache) == 0
        assert cache.lookup("alpha question") is None

    def test_invalidated_entries_never_near_match(self):
        cache = SemanticResultCache(capacity=8, threshold=0.5)
        cache.store("Top romance movies by revenue", _ok_result("q", 1))
        cache.invalidate()
        assert cache.lookup("Top romance movies by revenue!") is None

    def test_eviction_tombstones_index_rows(self):
        cache = SemanticResultCache(capacity=2, threshold=0.5)
        cache.store("alpha bravo charlie", _ok_result("q", 1))
        cache.store("delta echo foxtrot", _ok_result("q", 2))
        cache.store("golf hotel india", _ok_result("q", 3))  # evicts alpha
        assert len(cache) == 2
        assert cache.stats()["tombstones"] == 1
        assert cache.lookup("alpha bravo charlie") is None
        assert cache.lookup("golf hotel india") is not None

    def test_capacity_two_evicts_least_recently_used(self):
        """Three stores at capacity 2 evict the first.  A lookup is a
        use: after looking up the third and then the second, a fourth
        store evicts the third (first-in eviction would drop the
        second)."""
        cache = SemanticResultCache(capacity=2)
        cache.store("alpha bravo charlie", _ok_result("q", 1))
        cache.store("delta echo foxtrot", _ok_result("q", 2))
        cache.store("golf hotel india", _ok_result("q", 3))
        assert cache.lookup("alpha bravo charlie") is None
        assert cache.lookup("golf hotel india").via == "exact"
        assert cache.lookup("delta echo foxtrot").via == "exact"
        assert cache.stats() == {
            "entries": 2,
            "index_rows": 3,
            "tombstones": 1,
        }
        cache.store("juliet kilo lima", _ok_result("q", 4))
        assert cache.lookup("golf hotel india") is None
        hit = cache.lookup("delta echo foxtrot")
        assert (hit.via, hit.result.answer) == ("exact", 2)
        assert cache.lookup("juliet kilo lima").result.answer == 4
        assert cache.stats() == {
            "entries": 2,
            "index_rows": 4,
            "tombstones": 2,
        }

    def test_degenerate_requests_are_uncacheable(self):
        cache = SemanticResultCache(capacity=8)
        assert not cache.store("?!...", _ok_result("q", 1))
        assert cache.lookup("?!...") is None
        # Two distinct degenerate requests must never serve each other.
        cache.store("", _ok_result("q", "zero"))
        assert cache.lookup("the and of") is None

    def test_errored_and_degraded_results_not_stored(self):
        cache = SemanticResultCache(capacity=8)
        errored = TAGResult(
            request="q", error=TAGError(kind="boom", message="x")
        )
        assert not cache.store("some question", errored)
        degraded = _ok_result("q", 1)
        degraded.degraded = True
        assert not cache.store("some question", degraded)
        assert len(cache) == 0

    def test_first_store_wins_for_a_key(self):
        cache = SemanticResultCache(capacity=8)
        assert cache.store("Top movies", _ok_result("q", "first"))
        assert not cache.store("top movie", _ok_result("q", "second"))
        assert cache.lookup("Top movies").result.answer == "first"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            SemanticResultCache(threshold=0.0)
        with pytest.raises(ValueError):
            SemanticResultCache(threshold=1.5)


class TestSemanticCacheMetering:
    def _cache(self, capacity=8, **kwargs):
        usage = Usage()
        cache = SemanticResultCache(capacity=capacity, usage=usage, **kwargs)
        return cache, usage

    def test_hit_miss_near_counters(self):
        cache, usage = self._cache(threshold=0.6)
        assert cache.lookup("Top romance movies") is None
        cache.store("Top romance movies", _ok_result("q", 1))
        cache.lookup("top romance movie")
        cache.lookup("Top of the romance movies chart")
        assert usage.semcache_misses == 1
        assert usage.semcache_hits == 1
        assert usage.semcache_near_hits == 1

    def test_invalidation_counter(self):
        cache, usage = self._cache()
        cache.store("alpha question", _ok_result("q", 1))
        cache.store("beta question", _ok_result("q", 2))
        cache.invalidate()
        assert usage.semcache_invalidations == 2

    def test_disabled_cache_meters_exactly_one_miss_per_lookup(self):
        """The capacity==0 audit: one miss at lookup, nothing at store.

        Pre-audit the risk was double-metering each disabled round trip
        (a miss at get plus a drop at put); the counter pins the seam.
        """
        cache, usage = self._cache(capacity=0)
        assert cache.lookup("Top movies") is None
        assert not cache.store("Top movies", _ok_result("q", 1))
        assert cache.lookup("Top movies") is None
        assert usage.semcache_misses == 2
        assert usage.semcache_hits == 0

    def test_coalesced_meters_one_hit(self):
        cache, usage = self._cache()
        cache.meter_coalesced()
        assert usage.semcache_hits == 1
        assert usage.semcache_misses == 0

    def test_unmetered_cache_works(self):
        cache = SemanticResultCache(capacity=4)
        assert cache.lookup("anything at all") is None
        cache.store("anything at all", _ok_result("q", 1))
        assert cache.lookup("anything at all") is not None


class TestKeyFor:
    def test_uncacheable_requests_have_no_key(self):
        cache = SemanticResultCache(capacity=8)
        assert cache.key_for("?!...") is None
        disabled = SemanticResultCache(capacity=0)
        assert disabled.key_for("Top movies") is None

    def test_key_matches_store_lookup_partition(self):
        cache = SemanticResultCache(capacity=8)
        assert cache.key_for("Top movies") == cache.key_for("top movie!")
        assert cache.key_for("Top movies") != cache.key_for(
            "Worst movies"
        )

