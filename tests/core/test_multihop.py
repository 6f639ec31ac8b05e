"""Unit tests for multi-hop TAG chains."""

import pytest

from repro.core import (
    FixedQuerySynthesizer,
    Hop,
    NoGenerator,
    SQLExecutor,
    SingleCallGenerator,
    TAGChain,
    TAGPipeline,
)
from repro.core.multihop import _as_text
from repro.errors import ReproError
from repro.frame import DataFrame
from repro.semantic import SemanticOperators


def _pipeline(db, sql, lm=None, aggregation=False):
    generator = (
        SingleCallGenerator(lm, aggregation=aggregation)
        if lm is not None
        else NoGenerator()
    )
    return TAGPipeline(
        FixedQuerySynthesizer(sql), SQLExecutor(db), generator
    )


class TestAsText:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, ""),
            ("x", "x"),
            (["only"], "only"),
            ([1, 2], "1, 2"),
            (3, "3"),
        ],
    )
    def test_rendering(self, value, expected):
        assert _as_text(value) == expected


class TestTAGChain:
    def test_requires_hops(self):
        with pytest.raises(ReproError):
            TAGChain([])

    def test_answer_feeds_next_hop(self, movies_db):
        # Hop 1: find the top-grossing genre; hop 2: list its movies.
        chain = TAGChain(
            [
                Hop(
                    "top genre",
                    _pipeline(
                        movies_db,
                        "SELECT genre FROM movies WHERE genre IS NOT "
                        "NULL GROUP BY genre ORDER BY SUM(revenue) "
                        "DESC LIMIT 1",
                    ),
                ),
                Hop(
                    "movies in {answer}",
                    _DynamicPipeline(movies_db),
                ),
            ]
        )
        result = chain.run("which genre dominates?")
        assert result.ok
        assert result.hops[0].answer == ["SciFi"]
        assert sorted(result.answer) == ["Avatar", "The Matrix"]

    def test_original_request_available(self, movies_db):
        chain = TAGChain(
            [Hop("{request}", _EchoPipeline())]
        )
        result = chain.run("the original words")
        assert result.answer == "the original words"

    def test_failed_hop_stops_chain(self, movies_db):
        chain = TAGChain(
            [
                Hop(
                    "boom",
                    _pipeline(movies_db, "SELECT broken FROM nowhere"),
                ),
                Hop("never runs {answer}", _EchoPipeline()),
            ]
        )
        result = chain.run()
        assert not result.ok
        assert len(result.hops) == 1

    def test_sepang_two_hop(self, datasets, lm):
        # The natural multi-hop version of Figure 2: find the busiest
        # Southeast Asian circuit, then summarise its races.
        db = datasets["formula_1"].db
        chain = TAGChain(
            [
                Hop(
                    "busiest circuit",
                    _pipeline(
                        db,
                        "SELECT c.name FROM circuits c JOIN races r "
                        "ON c.circuitId = r.circuitId "
                        "WHERE c.country = 'Malaysia' "
                        "GROUP BY c.name ORDER BY COUNT(*) DESC LIMIT 1",
                    ),
                ),
                Hop(
                    "Provide information about the races held on "
                    "{answer}.",
                    TAGPipeline(
                        _CircuitRacesSynthesizer(),
                        SQLExecutor(db),
                        # sem_agg's fold enumerates structured rows
                        # completely (the Figure 2 TAG behaviour).
                        _SemAggGenerator(SemanticOperators(lm)),
                    ),
                ),
            ]
        )
        result = chain.run()
        assert result.ok
        assert result.hops[0].answer == ["Sepang International Circuit"]
        assert "1999" in result.answer and "2017" in result.answer


class _EchoPipeline:
    """Pipeline stub whose answer is the request itself."""

    def run(self, request):
        from repro.core import TAGResult

        return TAGResult(request=request, answer=request)


class _DynamicPipeline:
    """Pipeline that parses the genre from the hop request."""

    def __init__(self, db):
        self.db = db

    def run(self, request):
        from repro.core import TAGResult

        genre = request.split()[-1].replace("'", "''")
        result = self.db.execute(
            f"SELECT title FROM movies WHERE genre = '{genre}'"
        )
        return TAGResult(
            request=request, answer=[row[0] for row in result.rows]
        )


class _SemAggGenerator:
    """gen for hop 2: fold every row into one answer with sem_agg."""

    def __init__(self, ops):
        self.ops = ops

    def generate(self, request, table):
        return self.ops.sem_agg(DataFrame.from_records(table), request)


class _CircuitRacesSynthesizer:
    """syn for hop 2: request text -> SQL over the named circuit."""

    def synthesize(self, request: str) -> str:
        import re

        match = re.search(r"held on (.+?)\.", request)
        circuit = match.group(1).replace("'", "''")
        return (
            "SELECT r.year, r.date, r.name FROM races r JOIN circuits "
            f"c ON r.circuitId = c.circuitId WHERE c.name = '{circuit}' "
            "ORDER BY r.year"
        )

