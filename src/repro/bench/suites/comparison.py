"""Comparison queries: counting under knowledge/reasoning predicates.

10 knowledge + 10 reasoning queries; every gold answer is a single
count, so exact match requires the method to get the *entire* predicate
right — the regime where RAG's 10-row retrieval and the LM's long-
context arithmetic both collapse, per the paper.
"""

from __future__ import annotations

from repro.bench.pipelines import (
    players_with_attributes,
    post_comments,
    schools_sat,
    top_post_comments,
    top_posts,
)
from repro.bench.queries import QuerySpec
from repro.frame import merge


def build() -> list[QuerySpec]:
    """The 20 comparison queries (10 knowledge + 10 reasoning)."""
    return _knowledge() + _reasoning()


def _spec(
    qid: str, domain: str, capability: str, question: str, pipeline
) -> QuerySpec:
    return QuerySpec(
        qid=qid,
        domain=domain,
        query_type="comparison",
        capability=capability,
        question=question,
        pipeline=pipeline,
    )


def _races_at(ctx, circuits) -> list:
    """How many races were held at any of ``circuits``."""
    ids = set(circuits["circuitId"].tolist())
    races = ctx.frame("races")
    return [len(races[races["circuitId"].isin(ids)])]


# ---------------------------------------------------------------------------
# knowledge
# ---------------------------------------------------------------------------


def _knowledge() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, domain: str, question: str, pipeline) -> None:
        specs.append(_spec(qid, domain, "knowledge", question, pipeline))

    def ck1(ctx):
        players = players_with_attributes(ctx)
        filtered = players[players["height"] > 180]
        filtered = filtered[filtered["volleys"] > 70]
        filtered = ctx.filter_players_by_height(
            filtered, "Stephen Curry", "taller"
        )
        return [len(filtered)]

    add(
        "comparison-k01",
        "european_football_2",
        "Among the players whose height is over 180, how many of them "
        "have a volley score of over 70 and are taller than Stephen "
        "Curry?",
        ck1,
    )

    def count_players(person: str, direction: str):
        def program(ctx):
            players = ctx.filter_players_by_height(
                ctx.frame("Player"), person, direction
            )
            return [len(players)]

        return program

    add(
        "comparison-k02",
        "european_football_2",
        "How many players are shorter than Lionel Messi?",
        count_players("Lionel Messi", "shorter"),
    )
    add(
        "comparison-k03",
        "european_football_2",
        "How many players are taller than Peter Crouch?",
        count_players("Peter Crouch", "taller"),
    )

    def count_bay_sat(column: str, floor: int):
        def program(ctx):
            joined = schools_sat(ctx)
            joined = joined[joined[column] > floor]
            return [len(ctx.filter_by_region(joined, "Bay Area"))]

        return program

    add(
        "comparison-k04",
        "california_schools",
        "How many schools with an average score in Math over 560 are in "
        "the Bay Area?",
        count_bay_sat("AvgScrMath", 560),
    )

    def ck5(ctx):
        schools = ctx.frame("schools")
        charters = schools[schools["Charter"] == 1]
        return [len(ctx.filter_by_region(charters, "Silicon Valley"))]

    add(
        "comparison-k05",
        "california_schools",
        "How many charter schools are in cities in the Silicon Valley "
        "region?",
        ck5,
    )
    add(
        "comparison-k06",
        "california_schools",
        "How many schools in the Bay Area have more than 500 test "
        "takers?",
        count_bay_sat("NumTstTakr", 500),
    )

    def ck7(ctx):
        street = ctx.filter_street_circuits(ctx.frame("circuits"))
        return _races_at(ctx, street)

    add(
        "comparison-k07",
        "formula_1",
        "How many races were held on street circuits?",
        ck7,
    )

    def ck8(ctx):
        chosen = ctx.filter_circuits_in_region(
            ctx.frame("circuits"), "southeast asia"
        )
        return _races_at(ctx, chosen)

    add(
        "comparison-k08",
        "formula_1",
        "How many races were held at circuits located in Southeast Asia?",
        ck8,
    )

    def ck9(ctx):
        return [len(ctx.filter_euro_countries(ctx.frame("gasstations")))]

    add(
        "comparison-k09",
        "debit_card_specializing",
        "How many gas stations are in countries that use the Euro?",
        ck9,
    )

    def ck10(ctx):
        return [len(ctx.filter_eu_countries(ctx.frame("gasstations")))]

    add(
        "comparison-k10",
        "debit_card_specializing",
        "How many gas stations are in countries that are in the European "
        "Union?",
        ck10,
    )
    return specs


# ---------------------------------------------------------------------------
# reasoning
# ---------------------------------------------------------------------------

_GENTLE_POST = "How does gentle boosting differ from AdaBoost?"
_KERNEL_POST = "Kernel trick intuition for support vector machines"
_BACKPROP_POST = "Backpropagation through a softmax-cross-entropy layer"
_BOOTSTRAP_POST = "Bootstrap confidence intervals for the median"


def _reasoning() -> list[QuerySpec]:
    specs: list[QuerySpec] = []

    def add(qid: str, question: str, pipeline) -> None:
        specs.append(
            _spec(qid, "codebase_community", "reasoning", question, pipeline)
        )

    def count_post_comments(title: str, quality: str):
        def program(ctx):
            comments = post_comments(ctx, title)
            return [len(ctx.filter_text(comments, quality))]

        return program

    def count_technical_top_posts(count: int):
        def program(ctx):
            top = top_posts(ctx.frame("posts"), count)
            return [len(ctx.filter_text(top, "technical"))]

        return program

    add(
        "comparison-r01",
        "How many comments on the post titled "
        f"'{_GENTLE_POST}' are positive?",
        count_post_comments(_GENTLE_POST, "positive"),
    )
    add(
        "comparison-r02",
        "How many comments on the post titled "
        f"'{_KERNEL_POST}' are sarcastic?",
        count_post_comments(_KERNEL_POST, "sarcastic"),
    )

    def cr3(ctx):
        return [len(ctx.filter_text(ctx.frame("posts"), "technical"))]

    add(
        "comparison-r03",
        "How many posts have a technical title?",
        cr3,
    )

    def cr4(ctx):
        return [len(ctx.filter_text(top_post_comments(ctx), "negative"))]

    add(
        "comparison-r04",
        "How many comments on the post with the highest view count are "
        "negative?",
        cr4,
    )

    def cr5(ctx):
        posts = ctx.frame("posts")
        big = posts[posts["ViewCount"] > 20000]
        comments = merge(
            big[["Id"]],
            ctx.frame("comments"),
            left_on="Id",
            right_on="PostId",
        )
        return [len(ctx.filter_text(comments, "positive"))]

    add(
        "comparison-r05",
        "How many comments on posts with a view count over 20000 are "
        "positive?",
        cr5,
    )
    add(
        "comparison-r06",
        "How many of the 5 posts with the highest view count have "
        "technical titles?",
        count_technical_top_posts(5),
    )

    def cr7(ctx):
        comments = ctx.frame("comments")
        high = comments[comments["Score"] > 20]
        return [len(ctx.filter_text(high, "sarcastic"))]

    add(
        "comparison-r07",
        "How many comments with a score over 20 are sarcastic?",
        cr7,
    )
    add(
        "comparison-r08",
        "How many comments on the post titled "
        f"'{_BACKPROP_POST}' are negative?",
        count_post_comments(_BACKPROP_POST, "negative"),
    )
    add(
        "comparison-r09",
        "How many comments on the post titled "
        f"'{_BOOTSTRAP_POST}' are positive?",
        count_post_comments(_BOOTSTRAP_POST, "positive"),
    )
    add(
        "comparison-r10",
        "How many of the 10 posts with the highest view count have "
        "technical titles?",
        count_technical_top_posts(10),
    )
    return specs
