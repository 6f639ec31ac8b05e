"""Unit tests for the semantic operators (sem_filter/topk/agg)."""

import hashlib

import pytest

from repro.errors import SemanticOperatorError
from repro.frame import DataFrame
from repro.lm import LMConfig, SimulatedLM
from repro.semantic import SemanticOperators
from repro.semantic.operators import fill, placeholders


@pytest.fixture()
def ops(oracle_lm) -> SemanticOperators:
    return SemanticOperators(oracle_lm, batch_size=8)


@pytest.fixture()
def cities() -> DataFrame:
    return DataFrame(
        {
            "City": [
                "Palo Alto",
                "Fresno",
                "Cupertino",
                "Sacramento",
                "San Jose",
            ]
        }
    )


@pytest.fixture()
def titles() -> DataFrame:
    return DataFrame(
        {
            "Title": [
                "What is your favorite statistics joke?",
                "Eigenvalue shrinkage in high-dimensional covariance "
                "estimation",
                "Book recommendations for learning statistics",
                "Backpropagation through a softmax-cross-entropy layer",
            ],
            "Views": [10, 20, 30, 40],
        }
    )


class TestInstructionTemplates:
    def test_placeholders(self):
        assert placeholders("{City} is in {Region}") == ["City", "Region"]

    def test_fill(self):
        assert fill("{City} is big", {"City": "Oslo"}) == "Oslo is big"

    def test_fill_unknown_placeholder(self):
        with pytest.raises(SemanticOperatorError):
            fill("{Nope}", {"City": "Oslo"})


class TestSemFilter:
    def test_filters_by_knowledge(self, ops, cities):
        kept = ops.sem_filter(
            cities, "{City} is a city in the Silicon Valley region"
        )
        assert sorted(kept["City"].tolist()) == [
            "Cupertino",
            "Palo Alto",
            "San Jose",
        ]

    def test_empty_frame_passthrough(self, ops):
        frame = DataFrame({"City": []})
        assert len(ops.sem_filter(frame, "{City} is big")) == 0

    def test_requires_placeholder(self, ops, cities):
        with pytest.raises(SemanticOperatorError):
            ops.sem_filter(cities, "no placeholders here")

    def test_unknown_column_rejected(self, ops, cities):
        with pytest.raises(SemanticOperatorError):
            ops.sem_filter(cities, "{Town} is nice")

    def test_batching_used(self, cities):
        lm = SimulatedLM(LMConfig(seed=0))
        ops = SemanticOperators(lm, batch_size=8)
        ops.sem_filter(cities, "{City} is a city in the Bay Area region")
        assert lm.usage.calls == 5
        assert lm.usage.batches == 1


class TestSemTopK:
    def test_orders_by_criterion(self, ops, titles):
        top = ops.sem_topk(
            titles, "Which {Title} is most technical?", 2
        )
        assert len(top) == 2
        assert "Eigenvalue" in top["Title"][0] or (
            "Backpropagation" in top["Title"][0]
        )
        assert all(
            "joke" not in title for title in top["Title"].tolist()
        )

    def test_k_larger_than_frame(self, ops, titles):
        everything = ops.sem_topk(
            titles, "Which {Title} is most technical?", 10
        )
        assert len(everything) == 4

    def test_single_row_shortcut(self, ops):
        one = DataFrame({"Title": ["only one"]})
        assert len(ops.sem_topk(one, "Which {Title} is best?", 1)) == 1

    def test_invalid_k(self, ops, titles):
        with pytest.raises(SemanticOperatorError):
            ops.sem_topk(titles, "Which {Title} is best?", 0)

    def test_other_columns_preserved(self, ops, titles):
        top = ops.sem_topk(
            titles, "Which {Title} is most technical?", 1
        )
        assert top["Views"][0] in (10, 20, 30, 40)


class TestSemAgg:
    def test_structured_summary(self, ops):
        frame = DataFrame(
            {
                "year": list(range(1999, 2018)),
                "round": [2] * 19,
            }
        )
        answer = ops.sem_agg(frame, "Provide information about races")
        assert "1999" in answer and "2017" in answer

    def test_column_restriction(self, ops, titles):
        answer = ops.sem_agg(
            titles, "Summarize the titles", columns=["Title"]
        )
        assert "Views" not in answer

    def test_unknown_column(self, ops, titles):
        with pytest.raises(SemanticOperatorError):
            ops.sem_agg(titles, "Summarize", columns=["Nope"])

    def test_empty_frame(self, ops):
        assert ops.sem_agg(DataFrame({"a": []}), "Summarize") == ""

    def test_hierarchical_fold_for_large_frames(self):
        lm = SimulatedLM(LMConfig(seed=0))
        ops = SemanticOperators(lm, batch_size=8)
        frame = DataFrame({"v": [f"value {i}" for i in range(100)]})
        answer = ops.sem_agg(frame, "Summarize the values")
        assert answer
        assert lm.usage.calls > 1  # folded in chunks


class TestPinnedOnCommunityComments:
    """The three operators the TAG-Bench pipelines call, pinned on the
    comments frame: answers and the LM and dedup counters they cost."""

    @pytest.fixture()
    def comments(self, datasets) -> DataFrame:
        return datasets["codebase_community"].frame("comments")

    @staticmethod
    def _counters(lm) -> tuple[int, int, int, int]:
        usage = lm.usage
        return (
            usage.calls,
            usage.batches,
            usage.udf_cache_hits,
            usage.udf_cache_misses,
        )

    def test_sem_filter(self, comments):
        lm = SimulatedLM(LMConfig(seed=0))
        kept = SemanticOperators(lm, batch_size=32).sem_filter(
            comments.head(64), "The comment '{Text}' is positive"
        )
        assert kept["Id"].tolist() == [
            1, 2, 6, 7, 9, 10, 14, 15, 17, 21, 22, 23, 24, 26, 27, 31,
            34, 41, 42, 54, 55, 57, 63,
        ]
        assert self._counters(lm) == (37, 2, 27, 37)

    def test_sem_topk(self, comments):
        lm = SimulatedLM(LMConfig(seed=0))
        top = SemanticOperators(lm, batch_size=32).sem_topk(
            comments.head(32), "Which comment {Text} is most sarcastic?", 5
        )
        assert top["Id"].tolist() == [22, 14, 27, 2, 15]
        assert self._counters(lm) == (39, 6, 24, 39)

    def test_sem_agg(self, comments):
        lm = SimulatedLM(LMConfig(seed=0))
        answer = SemanticOperators(lm, batch_size=32).sem_agg(
            comments.head(48), "Summarize the comments", columns=["Text"]
        )
        assert len(answer) == 1024
        assert answer.startswith("There are 2 records. There are 24 records.")
        assert hashlib.sha256(answer.encode("utf-8")).hexdigest() == (
            "3c994893987adb49c8d2cb29966f422c7b6f656aa8b1a6ef5287bd32faea3b5c"
        )
        assert self._counters(lm) == (3, 2, 0, 2)

