"""Aggregation queries: free-text answers over many rows.

10 knowledge + 10 reasoning.  The paper measures no exact match here
("we provide qualitative analysis on results", §4.1); the benchmark
records each method's answer and ET, and the Figure 2 benchmark scores
answer *completeness* on the Sepang query.
"""

from __future__ import annotations

from repro.bench import oracle
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


def build() -> list[QuerySpec]:
    """The 20 aggregation queries (10 knowledge + 10 reasoning)."""
    return _knowledge() + _reasoning()


def _spec(
    qid: str,
    domain: str,
    capability: str,
    question: str,
    pipeline,
    entities,
    source,
) -> QuerySpec:
    return QuerySpec(
        qid=qid,
        domain=domain,
        query_type="aggregation",
        capability=capability,
        question=question,
        pipeline=pipeline,
        agg_entities=entities,
        agg_source=source,
    )


# ---------------------------------------------------------------------------
# quality-oracle helpers (gold side; never used by pipelines)
# ---------------------------------------------------------------------------


def _circuit_race_rows(dataset: Dataset, names: set[str]) -> list[dict]:
    circuits = dataset.frame("circuits")
    chosen = circuits[circuits["name"].isin(names)]
    ids = set(chosen["circuitId"].tolist())
    races = dataset.frame("races")
    return races[races["circuitId"].isin(ids)].to_records()


def _race_years(dataset: Dataset, names: set[str]) -> list[str]:
    return sorted(
        {
            str(record["year"])
            for record in _circuit_race_rows(dataset, names)
        }
    )


def _region_schools(dataset: Dataset, region: str) -> DataFrame:
    return OracleContext(dataset).filter_by_region(
        dataset.frame("schools"), region
    )


def _country_station_rows(
    dataset: Dataset, countries: set[str]
) -> list[dict]:
    stations = dataset.frame("gasstations")
    return stations[stations["Country"].isin(countries)].to_records()


def _countries_present(dataset: Dataset, countries: set[str]) -> list[str]:
    stations = dataset.frame("gasstations")
    return stations[stations["Country"].isin(countries)][
        "Country"
    ].unique()


def _comment_prefixes(records: list[dict], words: int = 6) -> list[str]:
    """Distinctive prefixes of comment texts — an answer "mentions" a
    comment when it reproduces its opening words."""
    prefixes = []
    for record in records:
        text = str(record["Text"])
        prefix = " ".join(text.split()[:words])
        if prefix not in prefixes:
            prefixes.append(prefix)
    return prefixes


def _top_technical_titles(dataset: Dataset, count: int) -> list[str]:
    top = OracleContext(dataset).topk_text(
        dataset.frame("posts"), "technical", count
    )
    return [str(title) for title in top["Title"].tolist()]


def _judged_rows(
    dataset: Dataset, rows: DataFrame, quality: str
) -> list[dict]:
    """``rows`` whose text has ``quality`` under the oracle binding."""
    return OracleContext(dataset).filter_text(rows, quality).to_records()


# ---------------------------------------------------------------------------
# knowledge
# ---------------------------------------------------------------------------


def _knowledge() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def pipe_ak1(ctx):
        joined = races_with_circuits(ctx)
        sepang = joined[
            joined["circuit_name"] == "Sepang International Circuit"
        ]
        return ctx.ops.sem_agg(
            sepang,
            SEPANG_QUESTION,
            columns=["year", "round", "date", "race_name", "location"],
        )

    _SEPANG = {"Sepang International Circuit"}
    specs.append(
        _spec(
            "aggregation-k01",
            "formula_1",
            "knowledge",
            SEPANG_QUESTION,
            pipe_ak1,
            entities=lambda d: _race_years(d, _SEPANG),
            source=lambda d: _circuit_race_rows(d, _SEPANG),
        )
    )

    def pipe_ak2(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        europe = ctx.filter_circuits_in_region(street, "europe")
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            europe, races, left_on="circuitId", right_on="circuitId"
        )
        return ctx.ops.sem_agg(
            joined,
            "Provide information about the races held on street "
            "circuits in Europe.",
            columns=["name", "year", "race_name", "date"],
        )

    def _street_europe(d: Dataset) -> set[str]:
        return oracle.street_circuits() & oracle.circuits_in_region(
            "europe"
        )

    specs.append(
        _spec(
            "aggregation-k02",
            "formula_1",
            "knowledge",
            "Provide information about the races held on street "
            "circuits in Europe.",
            pipe_ak2,
            entities=lambda d: _race_years(d, _street_europe(d)),
            source=lambda d: _circuit_race_rows(d, _street_europe(d)),
        )
    )

    def pipe_ak3(ctx):
        schools = ctx.filter_by_region(ctx.frame("schools"), "Silicon Valley")
        return ctx.ops.sem_agg(
            schools,
            "Summarize the characteristics of schools in the Silicon "
            "Valley region.",
            columns=["School", "City", "County", "GSoffered", "Charter"],
        )

    specs.append(
        _spec(
            "aggregation-k03",
            "california_schools",
            "knowledge",
            "Summarize the characteristics of schools in the Silicon "
            "Valley region.",
            pipe_ak3,
            entities=lambda d: _region_schools(
                d, "silicon valley"
            )["City"].unique(),
            source=lambda d: _region_schools(
                d, "silicon valley"
            ).to_records(),
        )
    )

    def pipe_ak4(ctx):
        bay = ctx.filter_by_region(schools_sat(ctx), "Bay Area")
        return ctx.ops.sem_agg(
            bay,
            "Provide an overview of the SAT performance of schools in "
            "the Bay Area.",
            columns=[
                "School", "City", "AvgScrMath", "AvgScrRead",
                "AvgScrWrite", "NumTstTakr",
            ],
        )

    def _bay_sat_rows(d: Dataset) -> list[dict]:
        return OracleContext(d).filter_by_region(
            schools_sat(d), "bay area"
        ).to_records()

    specs.append(
        _spec(
            "aggregation-k04",
            "california_schools",
            "knowledge",
            "Provide an overview of the SAT performance of schools in "
            "the Bay Area.",
            pipe_ak4,
            entities=lambda d: sorted(
                {str(r["City"]) for r in _bay_sat_rows(d)}
            ),
            source=_bay_sat_rows,
        )
    )

    def pipe_ak5(ctx):
        euro = ctx.filter_euro_countries(ctx.frame("gasstations"))
        return ctx.ops.sem_agg(
            euro,
            "Summarize the gas stations in countries that use the "
            "Euro.",
            columns=["GasStationID", "Country", "Segment"],
        )

    specs.append(
        _spec(
            "aggregation-k05",
            "debit_card_specializing",
            "knowledge",
            "Summarize the gas stations in countries that use the Euro.",
            pipe_ak5,
            entities=lambda d: _countries_present(
                d, oracle.euro_countries()
            ),
            source=lambda d: _country_station_rows(
                d, oracle.euro_countries()
            ),
        )
    )

    def pipe_ak6(ctx):
        in_eu = ctx.filter_eu_countries(ctx.frame("gasstations"))
        return ctx.ops.sem_agg(
            in_eu,
            "Provide an overview of gas stations in countries in the "
            "European Union.",
            columns=["GasStationID", "Country", "Segment"],
        )

    specs.append(
        _spec(
            "aggregation-k06",
            "debit_card_specializing",
            "knowledge",
            "Provide an overview of gas stations in countries in the "
            "European Union.",
            pipe_ak6,
            entities=lambda d: _countries_present(
                d, oracle.eu_countries()
            ),
            source=lambda d: _country_station_rows(
                d, oracle.eu_countries()
            ),
        )
    )

    def pipe_ak7(ctx):
        taller = ctx.filter_players_by_height(
            ctx.frame("Player"), "Stephen Curry", "taller"
        )
        joined = merge(
            taller,
            ctx.frame("Player_Attributes"),
            left_on="player_api_id",
            right_on="player_api_id",
        )
        return ctx.ops.sem_agg(
            joined,
            "Summarize the attributes of players taller than Stephen "
            "Curry.",
            columns=[
                "player_name", "height", "overall_rating", "volleys",
                "sprint_speed",
            ],
        )

    def _tall_player_rows(d: Dataset) -> list[dict]:
        players = d.frame("Player")
        threshold = oracle.person_height("Stephen Curry")
        tall = players[players["height"] > threshold]
        return merge(
            tall,
            d.frame("Player_Attributes"),
            left_on="player_api_id",
            right_on="player_api_id",
        ).to_records()

    def _tall_player_entities(d: Dataset) -> list[str]:
        heights = [r["height"] for r in _tall_player_rows(d)]
        # A complete summary reports the extremes of the height range.
        return [str(min(heights)), str(max(heights))]

    specs.append(
        _spec(
            "aggregation-k07",
            "european_football_2",
            "knowledge",
            "Summarize the attributes of players taller than Stephen "
            "Curry.",
            pipe_ak7,
            entities=_tall_player_entities,
            source=_tall_player_rows,
        )
    )

    def pipe_ak8(ctx):
        uk = ctx.filter_uk_leagues(ctx.frame("League"))
        joined = merge(
            uk, ctx.frame("Team"), left_on="id", right_on="league_id"
        )
        return ctx.ops.sem_agg(
            joined,
            "Provide an overview of the football leagues in the "
            "United Kingdom.",
            columns=["name", "team_long_name"],
        )

    def _uk_league_rows(d: Dataset) -> list[dict]:
        leagues = d.frame("League")
        uk = leagues[leagues["name"].isin(oracle.uk_leagues())]
        return merge(
            uk, d.frame("Team"), left_on="id", right_on="league_id"
        ).to_records()

    specs.append(
        _spec(
            "aggregation-k08",
            "european_football_2",
            "knowledge",
            "Provide an overview of the football leagues in the United "
            "Kingdom.",
            pipe_ak8,
            entities=lambda d: sorted(
                {str(r["name"]) for r in _uk_league_rows(d)}
            ),
            source=_uk_league_rows,
        )
    )

    def pipe_ak9(ctx):
        chosen = ctx.filter_circuits_in_region(
            ctx.frame("circuits"), "southeast asia"
        )
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            chosen, races, left_on="circuitId", right_on="circuitId"
        )
        return ctx.ops.sem_agg(
            joined,
            "Summarize the race history of circuits located in "
            "Southeast Asia.",
            columns=["name", "year", "race_name"],
        )

    specs.append(
        _spec(
            "aggregation-k09",
            "formula_1",
            "knowledge",
            "Summarize the race history of circuits located in "
            "Southeast Asia.",
            pipe_ak9,
            entities=lambda d: sorted(
                oracle.circuits_in_region("southeast asia")
            ),
            source=lambda d: _circuit_race_rows(
                d, oracle.circuits_in_region("southeast asia")
            ),
        )
    )

    def pipe_ak10(ctx):
        schools = ctx.frame("schools")
        charters = schools[schools["Charter"] == 1]
        bay = ctx.filter_by_region(charters, "Bay Area")
        return ctx.ops.sem_agg(
            bay,
            "Provide information about charter schools in the Bay "
            "Area.",
            columns=["School", "City", "County", "GSoffered"],
        )

    def _bay_charter_rows(d: Dataset) -> list[dict]:
        schools = d.frame("schools")
        charters = schools[schools["Charter"] == 1]
        return OracleContext(d).filter_by_region(
            charters, "bay area"
        ).to_records()

    specs.append(
        _spec(
            "aggregation-k10",
            "california_schools",
            "knowledge",
            "Provide information about charter schools in the Bay Area.",
            pipe_ak10,
            entities=lambda d: sorted(
                {str(r["City"]) for r in _bay_charter_rows(d)}
            ),
            source=_bay_charter_rows,
        )
    )
    return specs


# ---------------------------------------------------------------------------
# reasoning
# ---------------------------------------------------------------------------


def _reasoning() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, question: str, pipeline, entities, source) -> None:
        specs.append(
            _spec(
                qid,
                "codebase_community",
                "reasoning",
                question,
                pipeline,
                entities,
                source,
            )
        )

    def pipe_ar1(ctx):
        comments = post_comments(ctx, _GENTLE_POST)
        return ctx.ops.sem_agg(
            comments,
            "Summarize the comments made on the post titled "
            f"'{_GENTLE_POST}' to answer the original question.",
            columns=["Text"],
        )

    def _gentle_rows(d: Dataset) -> list[dict]:
        return post_comments(d, _GENTLE_POST).to_records()

    add(
        "aggregation-r01",
        "Summarize the comments made on the post titled "
        f"'{_GENTLE_POST}' to answer the original question.",
        pipe_ar1,
        entities=lambda d: _comment_prefixes(_gentle_rows(d)),
        source=_gentle_rows,
    )

    def pipe_ar2(ctx):
        comments = post_comments(ctx, _KERNEL_POST)
        positive = ctx.filter_text(comments, "positive")
        return ctx.ops.sem_agg(
            positive,
            "Summarize the positive comments on the post titled "
            f"'{_KERNEL_POST}'.",
            columns=["Text"],
        )

    def _kernel_positive_rows(d: Dataset) -> list[dict]:
        return _judged_rows(d, post_comments(d, _KERNEL_POST), "positive")

    add(
        "aggregation-r02",
        "Summarize the positive comments on the post titled "
        f"'{_KERNEL_POST}'.",
        pipe_ar2,
        entities=lambda d: _comment_prefixes(_kernel_positive_rows(d)),
        source=_kernel_positive_rows,
    )

    def pipe_ar3(ctx):
        sarcastic = ctx.filter_text(ctx.frame("comments"), "sarcastic")
        return ctx.ops.sem_agg(
            sarcastic,
            "Summarize the sarcastic comments across all posts.",
            columns=["Text"],
        )

    def _sarcastic_rows(d: Dataset) -> list[dict]:
        return _judged_rows(d, d.frame("comments"), "sarcastic")

    add(
        "aggregation-r03",
        "Summarize the sarcastic comments across all posts.",
        pipe_ar3,
        entities=lambda d: _comment_prefixes(_sarcastic_rows(d)),
        source=_sarcastic_rows,
    )

    def pipe_ar4(ctx):
        top = ctx.topk_text(ctx.frame("posts"), "technical", 5)
        return ctx.ops.sem_agg(
            top,
            "Summarize the titles of the 5 most technical posts.",
            columns=["Title"],
        )

    def _top_technical_rows(d: Dataset) -> list[dict]:
        titles = set(_top_technical_titles(d, 5))
        return [
            r for r in d.frame("posts").to_records()
            if str(r["Title"]) in titles
        ]

    add(
        "aggregation-r04",
        "Summarize the titles of the 5 most technical posts.",
        pipe_ar4,
        entities=lambda d: _top_technical_titles(d, 5),
        source=_top_technical_rows,
    )

    def pipe_ar5(ctx):
        comments = top_post_comments(ctx)
        return ctx.ops.sem_agg(
            comments,
            "Summarize the comments made on the post with the highest "
            "view count.",
            columns=["Text"],
        )

    def _top_post_rows(d: Dataset, count: int = 1) -> list[dict]:
        return top_post_comments(d, count).to_records()

    add(
        "aggregation-r05",
        "Summarize the comments made on the post with the highest "
        "view count.",
        pipe_ar5,
        entities=lambda d: _comment_prefixes(_top_post_rows(d)),
        source=_top_post_rows,
    )

    def pipe_ar6(ctx):
        comments = post_comments(ctx, _BACKPROP_POST)
        negative = ctx.filter_text(comments, "negative")
        return ctx.ops.sem_agg(
            negative,
            "Summarize the negative comments on the post titled "
            f"'{_BACKPROP_POST}'.",
            columns=["Text"],
        )

    def _backprop_negative_rows(d: Dataset) -> list[dict]:
        return _judged_rows(
            d, post_comments(d, _BACKPROP_POST), "negative"
        )

    add(
        "aggregation-r06",
        "Summarize the negative comments on the post titled "
        f"'{_BACKPROP_POST}'.",
        pipe_ar6,
        entities=lambda d: _comment_prefixes(_backprop_negative_rows(d)),
        source=_backprop_negative_rows,
    )

    def pipe_ar7(ctx):
        comments = top_post_comments(ctx, 3)
        return ctx.ops.sem_agg(
            comments,
            "Summarize the comments on the 3 posts with the highest "
            "view count.",
            columns=["PostId", "Text"],
        )

    add(
        "aggregation-r07",
        "Summarize the comments on the 3 posts with the highest view "
        "count.",
        pipe_ar7,
        entities=lambda d: _comment_prefixes(_top_post_rows(d, 3)),
        source=lambda d: _top_post_rows(d, 3),
    )

    def pipe_ar8(ctx):
        posts = ctx.frame("posts")
        technical = ctx.filter_text(posts, "technical")
        technical_titles = set(technical["Title"].tolist())
        non_technical = posts.filter_mask(
            [
                title not in technical_titles
                for title in posts["Title"].tolist()
            ]
        )
        return ctx.ops.sem_agg(
            non_technical,
            "Summarize the titles of the posts that are not technical.",
            columns=["Title"],
        )

    def _non_technical_rows(d: Dataset) -> list[dict]:
        posts = d.frame("posts")
        technical = {
            str(r["Title"]) for r in _judged_rows(d, posts, "technical")
        }
        return [
            r for r in posts.to_records()
            if str(r["Title"]) not in technical
        ]

    add(
        "aggregation-r08",
        "Summarize the titles of the posts that are not technical.",
        pipe_ar8,
        entities=lambda d: [
            str(r["Title"]) for r in _non_technical_rows(d)
        ],
        source=_non_technical_rows,
    )

    def pipe_ar9(ctx):
        comments = ctx.frame("comments")
        high = comments[comments["Score"] > 20]
        return ctx.ops.sem_agg(
            high,
            "Summarize the comments with a score over 20.",
            columns=["Text", "Score"],
        )

    def _high_score_rows(d: Dataset) -> list[dict]:
        return [
            r for r in d.frame("comments").to_records() if r["Score"] > 20
        ]

    add(
        "aggregation-r09",
        "Summarize the comments with a score over 20.",
        pipe_ar9,
        entities=lambda d: _comment_prefixes(_high_score_rows(d)),
        source=_high_score_rows,
    )

    def pipe_ar10(ctx):
        comments = top_post_comments(ctx)
        positive = ctx.filter_text(comments, "positive")
        return ctx.ops.sem_agg(
            positive,
            "Summarize the positive comments on the post with the "
            "highest view count.",
            columns=["Text"],
        )

    def _top_positive_rows(d: Dataset) -> list[dict]:
        return _judged_rows(d, top_post_comments(d), "positive")

    add(
        "aggregation-r10",
        "Summarize the positive comments on the post with the highest "
        "view count.",
        pipe_ar10,
        entities=lambda d: _comment_prefixes(_top_positive_rows(d)),
        source=_top_positive_rows,
    )
    return specs
