"""What a TAG-Bench program may use, and its LM binding.

Each TAG-Bench query is written once, as a program over a context that
offers ``frame(table)`` and a small set of semantic verbs (the
``filter_*`` methods, ``topk_text`` and ``aggregate``).  Two bindings
implement the verbs: :class:`PipelineContext` here sends every semantic
step through the operators, i.e. the LM (hand-written TAG, the paper's
Appendix C), and :class:`repro.bench.oracle.OracleContext` answers from
canonical knowledge and the noise-free scorers (the gold labels, and
the rows an aggregation answer is scored against).  Programs
encode expert knowledge of the *schema* — which tables join how, and
which columns feed which verb — never of the answers.

The join helpers below take anything with a ``frame(table)`` method: a
context of either binding, or a :class:`~repro.data.base.Dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.base import Dataset
from repro.frame import DataFrame, merge
from repro.lm import SimulatedLM
from repro.semantic import SemanticOperators

#: sem_filter and sem_topk instructions per text quality.
_JUDGE = {
    "positive": "The comment '{Text}' is positive",
    "negative": "The comment '{Text}' is negative",
    "sarcastic": "The comment '{Text}' is sarcastic",
    "technical": "The title '{Title}' is technical",
}
_RANK = {
    "positive": "Which comment {Text} is most positive?",
    "negative": "Which comment {Text} is most negative?",
    "sarcastic": "Which comment {Text} is most sarcastic?",
    "technical": "Which {Title} is most technical?",
}


@dataclass
class PipelineContext:
    """The LM binding: the dataset's frames and the semantic operators."""

    dataset: Dataset
    ops: SemanticOperators
    lm: SimulatedLM

    def frame(self, table: str) -> DataFrame:
        return self.dataset.frame(table)

    def _filter_values(
        self, frame: DataFrame, column: str, instruction: str
    ) -> DataFrame:
        """Judge each *unique* value of ``column`` once and keep the
        rows whose value passes — the dedup the paper's match-based
        example pipeline applies before sem_filter."""
        values = DataFrame({column: frame[column].unique()})
        kept = self.ops.sem_filter(values, instruction)
        return frame[frame[column].isin(kept[column].tolist())]

    def filter_by_region(self, frame: DataFrame, region: str) -> DataFrame:
        """Rows whose ``City`` is in ``region``."""
        return self._filter_values(
            frame, "City", "{City} is a city in the " + region + " region"
        )

    def filter_players_by_height(
        self, frame: DataFrame, person: str, direction: str
    ) -> DataFrame:
        """Players ``"taller"`` or ``"shorter"`` than a public figure."""
        return self._filter_values(
            frame,
            "height",
            f"a player with height {{height}} is {direction} than {person}",
        )

    def filter_euro_countries(self, frame: DataFrame) -> DataFrame:
        """Rows whose ``Country`` uses the euro."""
        return self._filter_values(
            frame, "Country", "{Country} uses the euro"
        )

    def filter_eu_countries(self, frame: DataFrame) -> DataFrame:
        """Rows whose ``Country`` is in the European Union."""
        return self._filter_values(
            frame, "Country", "{Country} is a member of the European Union"
        )

    def filter_currency_of(
        self, frame: DataFrame, country: str
    ) -> DataFrame:
        """Rows whose ``Currency`` is the currency of ``country``."""
        return self._filter_values(
            frame, "Currency", "{Currency} is the currency of " + country
        )

    def filter_street_circuits(self, circuits: DataFrame) -> DataFrame:
        return self.ops.sem_filter(circuits, "{name} is a street circuit")

    def filter_circuits_in_region(
        self, circuits: DataFrame, region: str
    ) -> DataFrame:
        return self.ops.sem_filter(
            circuits, "{name} is located in " + region
        )

    def filter_uk_leagues(self, leagues: DataFrame) -> DataFrame:
        """Leagues based in the UK (country prefix of the league name)."""
        with_country = leagues.assign(
            league_country=[
                name.split()[0] for name in leagues["name"].tolist()
            ]
        )
        kept = self.ops.sem_filter(
            with_country, "{league_country} is part of the United Kingdom"
        )
        return kept[leagues.columns]

    def filter_text(self, frame: DataFrame, quality: str) -> DataFrame:
        """Rows whose text has ``quality``: ``"positive"``,
        ``"negative"``, ``"sarcastic"`` (``Text``) or ``"technical"``
        (``Title``)."""
        return self.ops.sem_filter(frame, _JUDGE[quality])

    def topk_text(self, frame: DataFrame, quality: str, k: int) -> DataFrame:
        """The ``k`` rows with the most ``quality``, best first."""
        return self.ops.sem_topk(frame, _RANK[quality], k)

    def aggregate(
        self, frame: DataFrame, instruction: str, columns: list[str]
    ) -> str:
        """One text answer summarising ``columns`` of every row."""
        return self.ops.sem_agg(frame, instruction, columns=columns)


# -- joins shared by every binding ------------------------------------------


def top_posts(posts: DataFrame, count: int) -> DataFrame:
    """The ``count`` most viewed posts, most viewed first."""
    return posts.sort_values("ViewCount", ascending=False).head(count)


def _comments_of(source, posts: DataFrame) -> DataFrame:
    # Project the post side to its key so comment columns keep their
    # names (Score, CreationDate, ... would otherwise be suffixed).
    return merge(
        posts[["Id"]],
        source.frame("comments"),
        left_on="Id",
        right_on="PostId",
    )


def post_comments(source, title: str) -> DataFrame:
    """Comments on the post titled ``title``."""
    posts = source.frame("posts")
    return _comments_of(source, posts[posts["Title"] == title])


def top_post_comments(source, count: int = 1) -> DataFrame:
    """Comments on the ``count`` most viewed posts."""
    return _comments_of(source, top_posts(source.frame("posts"), count))


def schools_sat(source) -> DataFrame:
    """schools joined to satscores on the CDS code."""
    return merge(
        source.frame("schools"),
        source.frame("satscores"),
        left_on="CDSCode",
        right_on="cds",
    )


def races_with_circuits(source) -> DataFrame:
    """races joined to circuits with disambiguated name columns."""
    races = source.frame("races").rename(columns={"name": "race_name"})
    circuits = source.frame("circuits").rename(
        columns={"name": "circuit_name"}
    )
    return merge(
        races, circuits, left_on="circuitId", right_on="circuitId"
    )


def players_with_attributes(source) -> DataFrame:
    """Player joined to Player_Attributes on player_api_id."""
    return merge(
        source.frame("Player"),
        source.frame("Player_Attributes"),
        left_on="player_api_id",
        right_on="player_api_id",
    )
