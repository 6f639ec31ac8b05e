"""Aggregation queries: free-text answers over many rows.

10 knowledge + 10 reasoning.  The paper measures no exact match here
("we provide qualitative analysis on results", §4.1); the benchmark
records each method's answer and ET, and E12 scores answer
*completeness* and *numeric faithfulness* against oracles read off the
rows each query summarises.

Each query is one row program handed to the context's ``aggregate``
verb with its question as the instruction: hand-written TAG summarises
the rows with ``sem_agg``, the oracle binding returns them.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.bench.oracle import OracleContext
from repro.bench.pipelines import (
    post_comments,
    races_with_circuits,
    schools_sat,
    top_post_comments,
)
from repro.bench.queries import QuerySpec
from repro.data.base import Dataset
from repro.frame import DataFrame, merge

SEPANG_QUESTION = (
    "Provide information about the races held on Sepang International "
    "Circuit."
)

_GENTLE_POST = "How does gentle boosting differ from AdaBoost?"
_KERNEL_POST = "Kernel trick intuition for support vector machines"
_BACKPROP_POST = "Backpropagation through a softmax-cross-entropy layer"

Rows = list[dict]


def build() -> list[QuerySpec]:
    """The 20 aggregation queries (10 knowledge + 10 reasoning)."""
    return _knowledge() + _reasoning()


def _spec(
    qid: str,
    domain: str,
    capability: str,
    question: str,
    rows: Callable,
    columns: list[str],
    entities: Callable[[Rows], list[str]],
    source: Callable[[Dataset, Rows], Rows] = lambda dataset, rows: rows,
) -> QuerySpec:
    """One aggregation query from its row program ``rows(ctx)``.

    The question is also the ``aggregate`` instruction.  The rows the
    oracle binding returns are what a complete and faithful summary
    rests on: ``entities`` reads from them what the answer must
    mention, and they ground its numbers unless ``source`` narrows them.
    """

    def pipeline(ctx):
        return ctx.aggregate(rows(ctx), question, columns)

    def summarised(dataset: Dataset) -> Rows:
        return pipeline(OracleContext(dataset))

    return QuerySpec(
        qid=qid,
        domain=domain,
        query_type="aggregation",
        capability=capability,
        question=question,
        pipeline=pipeline,
        agg_entities=lambda dataset: entities(summarised(dataset)),
        agg_source=lambda dataset: source(dataset, summarised(dataset)),
    )


# ---------------------------------------------------------------------------
# what a complete answer mentions, read off the summarised rows
# ---------------------------------------------------------------------------


def _sorted_values(column: str) -> Callable[[Rows], list[str]]:
    return lambda rows: sorted({str(row[column]) for row in rows})


def _first_values(column: str) -> Callable[[Rows], list]:
    return lambda rows: list(dict.fromkeys(row[column] for row in rows))


def _titles(rows: Rows) -> list[str]:
    return [str(row["Title"]) for row in rows]


def _height_extremes(rows: Rows) -> list[str]:
    # A complete summary reports the extremes of the height range.
    heights = [row["height"] for row in rows]
    return [str(min(heights)), str(max(heights))]


def _comment_prefixes(rows: Rows, words: int = 6) -> list[str]:
    """Distinctive prefixes of comment texts — an answer "mentions" a
    comment when it reproduces its opening words."""
    prefixes = []
    for row in rows:
        prefix = " ".join(str(row["Text"]).split()[:words])
        if prefix not in prefixes:
            prefixes.append(prefix)
    return prefixes


def _circuit_race_rows(dataset: Dataset, rows: Rows) -> Rows:
    """The ``races`` rows behind ``rows``, without the joined circuit
    columns.  The three circuit queries ground numbers in race values
    only: the circuits' ids and coordinates would ground numbers the
    baselines make up (at seed 0, RAG's faithfulness on k01 would rise
    from 0.00 to 0.11)."""
    races = dataset.frame("races")
    ids = {row["raceId"] for row in rows}
    return races[races["raceId"].isin(ids)].to_records()


def _with_races(ctx, circuits: DataFrame) -> DataFrame:
    races = ctx.frame("races").rename(columns={"name": "race_name"})
    return merge(circuits, races, left_on="circuitId", right_on="circuitId")


# ---------------------------------------------------------------------------
# knowledge
# ---------------------------------------------------------------------------


def _knowledge() -> list[QuerySpec]:
    def sepang(ctx):
        joined = races_with_circuits(ctx)
        return joined[joined["circuit_name"] == "Sepang International Circuit"]

    def street_europe(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        europe = ctx.filter_circuits_in_region(street, "europe")
        return _with_races(ctx, europe)

    def southeast_asia(ctx):
        circuits = ctx.frame("circuits")
        asia = ctx.filter_circuits_in_region(circuits, "southeast asia")
        return _with_races(ctx, asia)

    def tall_players(ctx):
        taller = ctx.filter_players_by_height(
            ctx.frame("Player"), "Stephen Curry", "taller"
        )
        return merge(
            taller,
            ctx.frame("Player_Attributes"),
            left_on="player_api_id",
            right_on="player_api_id",
        )

    def uk_league_teams(ctx):
        uk = ctx.filter_uk_leagues(ctx.frame("League"))
        return merge(uk, ctx.frame("Team"), left_on="id", right_on="league_id")

    def bay_charters(ctx):
        schools = ctx.frame("schools")
        charters = schools[schools["Charter"] == 1]
        return ctx.filter_by_region(charters, "Bay Area")

    stations = ["GasStationID", "Country", "Segment"]
    return [
        _spec(
            "aggregation-k01",
            "formula_1",
            "knowledge",
            SEPANG_QUESTION,
            sepang,
            ["year", "round", "date", "race_name", "location"],
            _sorted_values("year"),
            source=_circuit_race_rows,
        ),
        _spec(
            "aggregation-k02",
            "formula_1",
            "knowledge",
            "Provide information about the races held on street "
            "circuits in Europe.",
            street_europe,
            ["name", "year", "race_name", "date"],
            _sorted_values("year"),
            source=_circuit_race_rows,
        ),
        _spec(
            "aggregation-k03",
            "california_schools",
            "knowledge",
            "Summarize the characteristics of schools in the Silicon "
            "Valley region.",
            lambda ctx: ctx.filter_by_region(
                ctx.frame("schools"), "Silicon Valley"
            ),
            ["School", "City", "County", "GSoffered", "Charter"],
            _first_values("City"),
        ),
        _spec(
            "aggregation-k04",
            "california_schools",
            "knowledge",
            "Provide an overview of the SAT performance of schools in "
            "the Bay Area.",
            lambda ctx: ctx.filter_by_region(schools_sat(ctx), "Bay Area"),
            [
                "School", "City", "AvgScrMath", "AvgScrRead",
                "AvgScrWrite", "NumTstTakr",
            ],
            _sorted_values("City"),
        ),
        _spec(
            "aggregation-k05",
            "debit_card_specializing",
            "knowledge",
            "Summarize the gas stations in countries that use the Euro.",
            lambda ctx: ctx.filter_euro_countries(ctx.frame("gasstations")),
            stations,
            _first_values("Country"),
        ),
        _spec(
            "aggregation-k06",
            "debit_card_specializing",
            "knowledge",
            "Provide an overview of gas stations in countries in the "
            "European Union.",
            lambda ctx: ctx.filter_eu_countries(ctx.frame("gasstations")),
            stations,
            _first_values("Country"),
        ),
        _spec(
            "aggregation-k07",
            "european_football_2",
            "knowledge",
            "Summarize the attributes of players taller than Stephen "
            "Curry.",
            tall_players,
            [
                "player_name", "height", "overall_rating", "volleys",
                "sprint_speed",
            ],
            _height_extremes,
        ),
        _spec(
            "aggregation-k08",
            "european_football_2",
            "knowledge",
            "Provide an overview of the football leagues in the United "
            "Kingdom.",
            uk_league_teams,
            ["name", "team_long_name"],
            _sorted_values("name"),
        ),
        _spec(
            "aggregation-k09",
            "formula_1",
            "knowledge",
            "Summarize the race history of circuits located in "
            "Southeast Asia.",
            southeast_asia,
            ["name", "year", "race_name"],
            _sorted_values("name"),
            source=_circuit_race_rows,
        ),
        _spec(
            "aggregation-k10",
            "california_schools",
            "knowledge",
            "Provide information about charter schools in the Bay Area.",
            bay_charters,
            ["School", "City", "County", "GSoffered"],
            _sorted_values("City"),
        ),
    ]


# ---------------------------------------------------------------------------
# reasoning
# ---------------------------------------------------------------------------


def _reasoning() -> list[QuerySpec]:
    def spec(qid, question, rows, columns, entities) -> QuerySpec:
        return _spec(
            qid,
            "codebase_community",
            "reasoning",
            question,
            rows,
            columns,
            entities,
        )

    def non_technical(ctx):
        posts = ctx.frame("posts")
        technical = set(ctx.filter_text(posts, "technical")["Title"].tolist())
        return posts.filter_mask(
            [title not in technical for title in posts["Title"].tolist()]
        )

    def high_score(ctx):
        comments = ctx.frame("comments")
        return comments[comments["Score"] > 20]

    text = ["Text"]
    return [
        spec(
            "aggregation-r01",
            "Summarize the comments made on the post titled "
            f"'{_GENTLE_POST}' to answer the original question.",
            lambda ctx: post_comments(ctx, _GENTLE_POST),
            text,
            _comment_prefixes,
        ),
        spec(
            "aggregation-r02",
            "Summarize the positive comments on the post titled "
            f"'{_KERNEL_POST}'.",
            lambda ctx: ctx.filter_text(
                post_comments(ctx, _KERNEL_POST), "positive"
            ),
            text,
            _comment_prefixes,
        ),
        spec(
            "aggregation-r03",
            "Summarize the sarcastic comments across all posts.",
            lambda ctx: ctx.filter_text(ctx.frame("comments"), "sarcastic"),
            text,
            _comment_prefixes,
        ),
        spec(
            "aggregation-r04",
            "Summarize the titles of the 5 most technical posts.",
            lambda ctx: ctx.topk_text(ctx.frame("posts"), "technical", 5),
            ["Title"],
            _titles,
        ),
        spec(
            "aggregation-r05",
            "Summarize the comments made on the post with the highest "
            "view count.",
            top_post_comments,
            text,
            _comment_prefixes,
        ),
        spec(
            "aggregation-r06",
            "Summarize the negative comments on the post titled "
            f"'{_BACKPROP_POST}'.",
            lambda ctx: ctx.filter_text(
                post_comments(ctx, _BACKPROP_POST), "negative"
            ),
            text,
            _comment_prefixes,
        ),
        spec(
            "aggregation-r07",
            "Summarize the comments on the 3 posts with the highest view "
            "count.",
            lambda ctx: top_post_comments(ctx, 3),
            ["PostId", "Text"],
            _comment_prefixes,
        ),
        spec(
            "aggregation-r08",
            "Summarize the titles of the posts that are not technical.",
            non_technical,
            ["Title"],
            _titles,
        ),
        spec(
            "aggregation-r09",
            "Summarize the comments with a score over 20.",
            high_score,
            ["Text", "Score"],
            _comment_prefixes,
        ),
        spec(
            "aggregation-r10",
            "Summarize the positive comments on the post with the highest "
            "view count.",
            lambda ctx: ctx.filter_text(top_post_comments(ctx), "positive"),
            text,
            _comment_prefixes,
        ),
    ]
