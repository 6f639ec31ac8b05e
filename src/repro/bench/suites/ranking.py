"""Ranking queries: ordered lists under knowledge/reasoning criteria.

10 knowledge + 10 reasoning.  Exact match is order-sensitive, which is
why the paper finds ranking the hardest type even for hand-written TAG
("due to the higher difficulty in ordering items exactly", §4.3) — the
LM's graded judgments carry jitter on near-ties.
"""

from __future__ import annotations

from repro.bench.pipelines import (
    post_comments,
    schools_sat,
    top_post_comments,
    top_posts,
)
from repro.bench.queries import QuerySpec
from repro.frame import merge


def build() -> list[QuerySpec]:
    """The 20 ranking queries (10 knowledge + 10 reasoning)."""
    return _knowledge() + _reasoning()


def _spec(
    qid: str, domain: str, capability: str, question: str, pipeline
) -> QuerySpec:
    return QuerySpec(
        qid=qid,
        domain=domain,
        query_type="ranking",
        capability=capability,
        question=question,
        pipeline=pipeline,
    )


# ---------------------------------------------------------------------------
# knowledge
# ---------------------------------------------------------------------------


def _knowledge() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, domain: str, question: str, pipeline) -> None:
        specs.append(_spec(qid, domain, "knowledge", question, pipeline))

    def top_bay_sat(column: str):
        def program(ctx):
            joined = ctx.filter_by_region(schools_sat(ctx), "Bay Area")
            top = joined.sort_values(column, ascending=False).head(3)
            return top["School"].tolist()

        return program

    add(
        "ranking-k01",
        "california_schools",
        "List the names of the 3 schools with the highest average score "
        "in Math among schools in the Bay Area.",
        top_bay_sat("AvgScrMath"),
    )
    add(
        "ranking-k02",
        "california_schools",
        "List the names of the 3 schools with the most test takers among "
        "schools in the Bay Area.",
        top_bay_sat("NumTstTakr"),
    )

    def players_taller_than_curry(ascending: bool):
        def program(ctx):
            taller = ctx.filter_players_by_height(
                ctx.frame("Player"), "Stephen Curry", "taller"
            )
            top = taller.sort_values("height", ascending=ascending).head(3)
            return top["player_name"].tolist()

        return program

    add(
        "ranking-k03",
        "european_football_2",
        "List the names of the 3 tallest players who are taller than "
        "Stephen Curry.",
        players_taller_than_curry(ascending=False),
    )
    add(
        "ranking-k04",
        "european_football_2",
        "List the names of the 3 shortest players who are taller than "
        "Stephen Curry.",
        players_taller_than_curry(ascending=True),
    )

    def rk5(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            street, races, left_on="circuitId", right_on="circuitId"
        )
        counts = joined.groupby("name").agg(n=("raceId", "count"))
        ordered = counts.sort_values(
            ["n", "name"], ascending=[True, True]
        ).head(3)
        return ordered["name"].tolist()

    add(
        "ranking-k05",
        "formula_1",
        "List the names of the 3 street circuits that hosted the fewest "
        "races.",
        rk5,
    )

    def rk6(ctx):
        chosen = ctx.filter_circuits_in_region(
            ctx.frame("circuits"), "southeast asia"
        )
        ids = set(chosen["circuitId"].tolist())
        races = ctx.frame("races")
        in_region = races[races["circuitId"].isin(ids)]
        years = sorted(set(in_region["year"].tolist()), reverse=True)
        return years[:3]

    add(
        "ranking-k06",
        "formula_1",
        "List the 3 most recent years in which races were held at "
        "circuits located in Southeast Asia.",
        rk6,
    )

    def rk7(ctx):
        euro = ctx.filter_euro_countries(ctx.frame("gasstations"))
        counts = euro.groupby("Country").agg(n=("GasStationID", "count"))
        ordered = counts.sort_values(
            ["n", "Country"], ascending=[False, True]
        )
        return ordered["Country"].tolist()

    add(
        "ranking-k07",
        "debit_card_specializing",
        "List the countries that use the Euro in order of number of gas "
        "stations from most to fewest.",
        rk7,
    )

    def rk8(ctx):
        chosen = ctx.filter_currency_of(ctx.frame("customers"), "Germany")
        joined = merge(
            chosen,
            ctx.frame("yearmonth"),
            left_on="CustomerID",
            right_on="CustomerID",
        )
        totals = joined.groupby("CustomerID").agg(
            total=("Consumption", "sum")
        )
        top = totals.sort_values(
            ["total", "CustomerID"], ascending=[False, True]
        ).head(3)
        return top["CustomerID"].tolist()

    add(
        "ranking-k08",
        "debit_card_specializing",
        "List the IDs of the 3 customers with the highest total "
        "consumption among customers paying in the currency of Germany.",
        rk8,
    )

    def rk9(ctx):
        uk = ctx.filter_uk_leagues(ctx.frame("League"))
        joined = merge(
            uk, ctx.frame("Team"), left_on="id", right_on="league_id"
        )
        counts = joined.groupby("name").agg(n=("team_api_id", "count"))
        ordered = counts.sort_values(
            ["n", "name"], ascending=[False, True]
        )
        return ordered["name"].tolist()

    add(
        "ranking-k09",
        "european_football_2",
        "List the names of the leagues in the United Kingdom in order of "
        "number of teams from most to fewest.",
        rk9,
    )

    def rk10(ctx):
        joined = merge(
            ctx.frame("schools"),
            ctx.frame("frpm"),
            left_on="CDSCode",
            right_on="CDSCode",
        )
        joined = ctx.filter_by_region(joined, "Silicon Valley")
        bottom = joined.sort_values("Enrollment", ascending=True).head(3)
        return bottom["County"].tolist()

    add(
        "ranking-k10",
        "california_schools",
        "List the counties of the 3 schools with the lowest enrollment "
        "among schools in the Silicon Valley region.",
        rk10,
    )
    return specs


# ---------------------------------------------------------------------------
# reasoning
# ---------------------------------------------------------------------------

_GENTLE_POST = "How does gentle boosting differ from AdaBoost?"
_L1_POST = "Regularization paths for L1-penalized logistic regression"
_SGD_POST = "Why does SGD with momentum escape saddle points faster?"


def _reasoning() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, question: str, pipeline) -> None:
        specs.append(
            _spec(qid, "codebase_community", "reasoning", question, pipeline)
        )

    def titles_by_technicality(posts, most_first: bool = True):
        """A program ordering the titles of ``posts(ctx)`` by
        technicality."""

        def program(ctx):
            pool = posts(ctx)
            ordered = ctx.topk_text(pool, "technical", len(pool))
            titles = ordered["Title"].tolist()
            return titles if most_first else list(reversed(titles))

        return program

    def top_texts(comments, quality: str, k: int):
        """A program listing the ``k`` comment texts of
        ``comments(ctx)`` with the most ``quality``."""

        def program(ctx):
            top = ctx.topk_text(comments(ctx), quality, k)
            return top["Text"].tolist()

        return program

    def viewed(count: int):
        return lambda ctx: top_posts(ctx.frame("posts"), count)

    def commented(title: str):
        return lambda ctx: post_comments(ctx, title)

    add(
        "ranking-r01",
        "Of the 5 posts with the highest popularity, list their titles "
        "in order of most technical to least technical.",
        titles_by_technicality(viewed(5)),
    )
    add(
        "ranking-r02",
        "List the texts of the 3 most sarcastic comments on the post "
        "with the highest view count.",
        top_texts(top_post_comments, "sarcastic", 3),
    )
    add(
        "ranking-r03",
        "List the titles of the 3 posts with the highest view count in "
        "order of least technical to most technical.",
        titles_by_technicality(viewed(3), most_first=False),
    )
    add(
        "ranking-r04",
        "List the texts of the 3 most positive comments on the post "
        f"titled '{_GENTLE_POST}'.",
        top_texts(commented(_GENTLE_POST), "positive", 3),
    )

    def rr5(ctx):
        top10 = top_posts(ctx.frame("posts"), 10)
        return ctx.topk_text(top10, "technical", 3)["Title"].tolist()

    add(
        "ranking-r05",
        "Of the 10 posts with the highest view count, list the titles of "
        "the 3 most technical.",
        rr5,
    )
    add(
        "ranking-r06",
        "List the texts of the 3 most negative comments on the post "
        f"titled '{_L1_POST}'.",
        top_texts(commented(_L1_POST), "negative", 3),
    )

    def least_viewed(ctx):
        posts = ctx.frame("posts")
        return posts.sort_values("ViewCount", ascending=True).head(5)

    add(
        "ranking-r07",
        "Order the titles of the 5 posts with the lowest view count from "
        "most technical to least technical.",
        titles_by_technicality(least_viewed),
    )

    def rr8(ctx):
        comments = post_comments(ctx, _SGD_POST)
        top = ctx.topk_text(comments, "sarcastic", 2)
        joined = merge(
            top, ctx.frame("users"), left_on="UserId", right_on="Id"
        )
        return joined["DisplayName"].tolist()

    add(
        "ranking-r08",
        "List the display names of the users who wrote the 2 most "
        f"sarcastic comments on the post titled '{_SGD_POST}'.",
        rr8,
    )
    add(
        "ranking-r09",
        "List the texts of the 2 most positive comments on the post with "
        "the highest view count.",
        top_texts(top_post_comments, "positive", 2),
    )
    add(
        "ranking-r10",
        "Of the 5 posts with the highest popularity, list their titles "
        "in order of least technical to most technical.",
        titles_by_technicality(viewed(5), most_first=False),
    )
    return specs
