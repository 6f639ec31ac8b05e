"""Shared building blocks for the hand-written TAG pipelines.

These helpers encode the *schema expertise* of the paper's Appendix C
pipelines — which tables join how, and which columns feed which
semantic operator — in reusable form.  Everything semantic goes through
the operators (i.e. the LM); nothing here consults the oracle.
"""

from __future__ import annotations

from repro.bench.queries import PipelineContext
from repro.frame import DataFrame, merge


def filter_by_region(
    ctx: PipelineContext, frame: DataFrame, region: str
) -> DataFrame:
    """Keep rows whose city the LM judges to be in ``region``.

    Judges each *unique* city once — the dedup optimisation the paper's
    match-based example pipeline applies before sem_filter.
    """
    cities = DataFrame({"City": frame["City"].unique()})
    kept = ctx.ops.sem_filter(
        cities, "{City} is a city in the " + region + " region"
    )
    return frame[frame["City"].isin(kept["City"].tolist())]


def filter_players_by_height(
    ctx: PipelineContext,
    frame: DataFrame,
    person: str,
    direction: str = "taller",
) -> DataFrame:
    """Keep players the LM judges taller/shorter than a public figure."""
    heights = DataFrame({"height": frame["height"].unique()})
    kept = ctx.ops.sem_filter(
        heights,
        f"a player with height {{height}} is {direction} than {person}",
    )
    return frame[frame["height"].isin(kept["height"].tolist())]


def filter_countries(
    ctx: PipelineContext, frame: DataFrame, predicate: str
) -> DataFrame:
    """Keep rows whose country satisfies a knowledge predicate, e.g.
    ``"uses the euro"`` or ``"is a member of the European Union"``."""
    countries = DataFrame({"Country": frame["Country"].unique()})
    kept = ctx.ops.sem_filter(countries, "{Country} " + predicate)
    return frame[frame["Country"].isin(kept["Country"].tolist())]


def filter_street_circuits(
    ctx: PipelineContext, circuits: DataFrame
) -> DataFrame:
    """Keep circuits the LM judges to be street circuits."""
    return ctx.ops.sem_filter(circuits, "{name} is a street circuit")


def filter_circuits_in_region(
    ctx: PipelineContext, circuits: DataFrame, region: str
) -> DataFrame:
    """Keep circuits the LM judges to be in ``region``."""
    return ctx.ops.sem_filter(
        circuits, "{name} is located in " + region
    )


def filter_uk_leagues(
    ctx: PipelineContext, leagues: DataFrame
) -> DataFrame:
    """Keep leagues based in the UK (country prefix of the league name)."""
    with_country = leagues.assign(
        league_country=[
            name.split()[0] for name in leagues["name"].tolist()
        ]
    )
    kept = ctx.ops.sem_filter(
        with_country, "{league_country} is part of the United Kingdom"
    )
    return kept[leagues.columns]


def races_with_circuits(ctx: PipelineContext) -> DataFrame:
    """races joined to circuits with disambiguated name columns."""
    races = ctx.frame("races").rename(columns={"name": "race_name"})
    circuits = ctx.frame("circuits").rename(
        columns={"name": "circuit_name"}
    )
    return merge(
        races, circuits, left_on="circuitId", right_on="circuitId"
    )


def players_with_attributes(ctx: PipelineContext) -> DataFrame:
    """Player joined to Player_Attributes on player_api_id."""
    return merge(
        ctx.frame("Player"),
        ctx.frame("Player_Attributes"),
        left_on="player_api_id",
        right_on="player_api_id",
    )


def comments_for_post_title(
    ctx: PipelineContext, title: str
) -> DataFrame:
    posts = ctx.frame("posts")
    post = posts[posts["Title"] == title]
    # Project the post side to its key so comment columns keep their
    # names (Score, CreationDate, ... would otherwise be suffixed).
    return merge(
        post[["Id"]],
        ctx.frame("comments"),
        left_on="Id",
        right_on="PostId",
    )


def filter_positive(ctx: PipelineContext, frame: DataFrame) -> DataFrame:
    """Keep rows whose text the LM judges positive."""
    return ctx.ops.sem_filter(frame, "The comment '{Text}' is positive")


def filter_negative(ctx: PipelineContext, frame: DataFrame) -> DataFrame:
    """Keep rows whose text the LM judges negative."""
    return ctx.ops.sem_filter(frame, "The comment '{Text}' is negative")


def filter_sarcastic(ctx: PipelineContext, frame: DataFrame) -> DataFrame:
    """Keep rows whose text the LM judges sarcastic."""
    return ctx.ops.sem_filter(frame, "The comment '{Text}' is sarcastic")


def filter_technical_titles(
    ctx: PipelineContext, frame: DataFrame
) -> DataFrame:
    """Keep rows whose title the LM judges technical."""
    return ctx.ops.sem_filter(frame, "The title '{Title}' is technical")


def topk_technical(
    ctx: PipelineContext, frame: DataFrame, k: int
) -> DataFrame:
    """Top-k rows by LM-judged technicality, best first."""
    return ctx.ops.sem_topk(frame, "Which {Title} is most technical?", k)


def topk_sarcastic(
    ctx: PipelineContext, frame: DataFrame, k: int
) -> DataFrame:
    """Top-k rows by LM-judged sarcasm, best first."""
    return ctx.ops.sem_topk(
        frame, "Which comment {Text} is most sarcastic?", k
    )


def topk_positive(
    ctx: PipelineContext, frame: DataFrame, k: int
) -> DataFrame:
    """Top-k rows by LM-judged positivity, best first."""
    return ctx.ops.sem_topk(
        frame, "Which comment {Text} is most positive?", k
    )


def topk_negative(
    ctx: PipelineContext, frame: DataFrame, k: int
) -> DataFrame:
    """Top-k rows by LM-judged negativity, best first."""
    return ctx.ops.sem_topk(
        frame, "Which comment {Text} is most negative?", k
    )
