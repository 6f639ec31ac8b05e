"""Match-based queries: point lookups requiring knowledge or reasoning.

10 knowledge + 10 reasoning queries.  Each spec carries one program
over a context's frames and semantic verbs: hand-written TAG runs it
under the LM binding, gold under the oracle binding (canonical
knowledge + noise-free scorers).
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
    """The 20 match-based queries (10 knowledge + 10 reasoning)."""
    return _knowledge() + _reasoning()


# ---------------------------------------------------------------------------
# knowledge
# ---------------------------------------------------------------------------


def _knowledge() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, domain: str, question: str, pipeline) -> None:
        specs.append(
            QuerySpec(
                qid=qid,
                domain=domain,
                query_type="match",
                capability="knowledge",
                question=question,
                pipeline=pipeline,
            )
        )

    def mk1(ctx):
        schools = ctx.filter_by_region(ctx.frame("schools"), "Silicon Valley")
        top = schools.sort_values(
            "Longitude", ascending=False, key=abs
        ).head(1)
        return top["GSoffered"].tolist()

    add(
        "match-k01",
        "california_schools",
        "What is the grade span offered in the school with the highest "
        "longitude in cities that are part of the 'Silicon Valley' "
        "region?",
        mk1,
    )

    def mk2(ctx):
        joined = ctx.filter_by_region(schools_sat(ctx), "Bay Area")
        top = joined.sort_values("AvgScrMath", ascending=False).head(1)
        return top["School"].tolist()

    add(
        "match-k02",
        "california_schools",
        "What is the name of the school with the highest average score "
        "in Math among schools in the Bay Area?",
        mk2,
    )

    def mk3(ctx):
        schools = ctx.filter_by_region(ctx.frame("schools"), "Bay Area")
        bottom = schools.sort_values("Latitude", ascending=True).head(1)
        return bottom["County"].tolist()

    add(
        "match-k03",
        "california_schools",
        "What is the county of the school with the lowest latitude among "
        "schools in the Bay Area?",
        mk3,
    )

    def mk4(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            street, races, left_on="circuitId", right_on="circuitId"
        )
        counts = joined.groupby("circuitId").agg(
            n=("raceId", "count"), location=("location", "first")
        )
        counts = counts.sort_values(
            ["n", "circuitId"], ascending=[True, True]
        ).head(1)
        return counts["location"].tolist()

    add(
        "match-k04",
        "formula_1",
        "What is the location of the street circuit that hosted the "
        "fewest races?",
        mk4,
    )

    def mk5(ctx):
        southeast = ctx.filter_circuits_in_region(
            ctx.frame("circuits"), "southeast asia"
        )
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            southeast, races, left_on="circuitId", right_on="circuitId"
        )
        counts = joined.groupby("circuitId").agg(n=("raceId", "count"))
        top_circuit = counts.sort_values("n", ascending=False).head(1)
        circuit_id = top_circuit["circuitId"][0]
        years = joined[joined["circuitId"] == circuit_id]["year"]
        return [years.min()]

    add(
        "match-k05",
        "formula_1",
        "In which year was the first race held at the circuit located in "
        "Southeast Asia that hosted the most races?",
        mk5,
    )

    def mk6(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        europe = ctx.filter_circuits_in_region(street, "europe")
        races = ctx.frame("races").rename(columns={"name": "race_name"})
        joined = merge(
            europe, races, left_on="circuitId", right_on="circuitId"
        )
        if joined.empty:
            return []
        return [joined["date"].min()]

    add(
        "match-k06",
        "formula_1",
        "What is the date of the earliest race held on a street circuit "
        "in Europe?",
        mk6,
    )

    def mk7(ctx):
        taller = ctx.filter_players_by_height(
            ctx.frame("Player"), "Stephen Curry", "taller"
        )
        shortest = taller.sort_values("height", ascending=True).head(1)
        return shortest["birthday"].tolist()

    add(
        "match-k07",
        "european_football_2",
        "What is the birthday of the shortest player who is taller than "
        "Stephen Curry?",
        mk7,
    )

    def mk8(ctx):
        shorter = ctx.filter_players_by_height(
            ctx.frame("Player"), "Lionel Messi", "shorter"
        )
        tallest = shorter.sort_values("height", ascending=False).head(1)
        return tallest["player_name"].tolist()

    add(
        "match-k08",
        "european_football_2",
        "What is the name of the tallest player who is shorter than "
        "Lionel Messi?",
        mk8,
    )

    def mk9(ctx):
        euro = ctx.filter_euro_countries(ctx.frame("gasstations"))
        joined = merge(
            euro,
            ctx.frame("transactions_1k"),
            left_on="GasStationID",
            right_on="GasStationID",
        )
        counts = joined.groupby("GasStationID").agg(
            n=("TransactionID", "count"),
            segment=("Segment", "first"),
        )
        # Most transactions; break count ties on the smaller station id.
        counts = counts.sort_values(
            ["n", "GasStationID"], ascending=[False, True]
        ).head(1)
        return counts["segment"].tolist()

    add(
        "match-k09",
        "debit_card_specializing",
        "What is the segment of the gas station with the most "
        "transactions among gas stations in countries that use the Euro?",
        mk9,
    )

    def mk10(ctx):
        uk = ctx.filter_uk_leagues(ctx.frame("League"))
        joined = merge(
            uk, ctx.frame("Team"), left_on="id", right_on="league_id"
        )
        counts = joined.groupby("id").agg(
            n=("team_api_id", "count"), league=("name", "first")
        )
        top = counts.sort_values(
            ["n", "id"], ascending=[False, True]
        ).head(1)
        return top["league"].tolist()

    add(
        "match-k10",
        "european_football_2",
        "What is the name of the league in the United Kingdom with the "
        "most teams?",
        mk10,
    )
    return specs


# ---------------------------------------------------------------------------
# reasoning
# ---------------------------------------------------------------------------

_BIAS_POST = "Deriving the bias-variance decomposition for ridge regression"
_KERNEL_POST = "Kernel trick intuition for support vector machines"
_BOOTSTRAP_POST = "Bootstrap confidence intervals for the median"


def _reasoning() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, question: str, pipeline) -> None:
        specs.append(
            QuerySpec(
                qid=qid,
                domain="codebase_community",
                query_type="match",
                capability="reasoning",
                question=question,
                pipeline=pipeline,
            )
        )

    def most_technical_post(column: str):
        def program(ctx):
            top = ctx.topk_text(ctx.frame("posts"), "technical", 1)
            return top[column].tolist()

        return program

    add(
        "match-r01",
        "What is the title of the most technical post?",
        most_technical_post("Title"),
    )

    def mr2(ctx):
        comments = post_comments(ctx, _BIAS_POST)
        return ctx.topk_text(comments, "sarcastic", 1)["Text"].tolist()

    add(
        "match-r02",
        "What is the text of the most sarcastic comment on the post "
        f"titled '{_BIAS_POST}'?",
        mr2,
    )

    def mr3(ctx):
        comments = post_comments(ctx, _KERNEL_POST)
        return ctx.topk_text(comments, "positive", 1)["Score"].tolist()

    add(
        "match-r03",
        "What is the score of the most positive comment on the post "
        f"titled '{_KERNEL_POST}'?",
        mr3,
    )

    def mr4(ctx):
        posts = ctx.frame("posts")
        ordered = ctx.topk_text(posts, "technical", len(posts))
        # Least technical = the tail of a full technicality ordering.
        return [ordered["Title"].tolist()[-1]]

    add(
        "match-r04",
        "What is the title of the least technical post?",
        mr4,
    )
    add(
        "match-r05",
        "What is the view count of the most technical post?",
        most_technical_post("ViewCount"),
    )

    def mr6(ctx):
        top5 = top_posts(ctx.frame("posts"), 5)
        return ctx.topk_text(top5, "technical", 1)["Title"].tolist()

    add(
        "match-r06",
        "What is the title of the most technical post among the 5 posts "
        "with the highest view count?",
        mr6,
    )

    def mr7(ctx):
        comments = top_post_comments(ctx)
        return ctx.topk_text(comments, "positive", 1)["Text"].tolist()

    add(
        "match-r07",
        "What is the text of the most positive comment on the post with "
        "the highest view count?",
        mr7,
    )

    def mr8(ctx):
        comments = post_comments(ctx, _BOOTSTRAP_POST)
        return ctx.topk_text(comments, "negative", 1)["Text"].tolist()

    add(
        "match-r08",
        "What is the text of the most negative comment on the post "
        f"titled '{_BOOTSTRAP_POST}'?",
        mr8,
    )

    def mr9(ctx):
        top = ctx.topk_text(top_post_comments(ctx), "sarcastic", 1)
        joined = merge(
            top, ctx.frame("users"), left_on="UserId", right_on="Id"
        )
        return joined["DisplayName"].tolist()

    add(
        "match-r09",
        "What is the display name of the user who wrote the most "
        "sarcastic comment on the post with the highest view count?",
        mr9,
    )
    add(
        "match-r10",
        "What is the creation date of the most technical post?",
        most_technical_post("CreationDate"),
    )
    return specs
