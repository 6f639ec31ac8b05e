"""european_football_2: leagues, teams, players, and player attributes.

Player heights are generated on a realistic distribution so comparison
queries anchored on real-world heights ("taller than Stephen Curry",
188 cm) split the roster non-trivially.
"""

from __future__ import annotations

import random

from repro.data.base import Dataset, frames_from_db
from repro.db import Column, Database, DataType, ForeignKey, TableSchema
from repro.errors import BenchmarkError
from repro.knowledge.football import LEAGUE_COUNTRY_FACTS

_TEAM_STEMS = [
    "United", "City", "Rovers", "Athletic", "Sporting", "Real",
    "Dynamo", "Olympic", "Racing", "Inter",
]
_PLAYER_FIRST = [
    "Aaron", "Bruno", "Carlos", "David", "Emil", "Felipe", "Gianluca",
    "Henrik", "Ivan", "Jakub", "Kevin", "Luka", "Marco", "Nathan",
    "Oscar", "Pavel", "Rafael", "Sergio", "Thomas", "Victor",
]
_PLAYER_LAST = [
    "Almeida", "Bauer", "Costa", "Dubois", "Eriksen", "Fernandez",
    "Gruber", "Horvat", "Ivanov", "Jensen", "Kovac", "Lombardi",
    "Muller", "Novak", "Oliveira", "Petrov", "Rossi", "Silva",
    "Takacs", "Visser",
]


def build(seed: int = 0, players: int = 240) -> Dataset:
    """Generate the domain deterministically from ``seed``.

    Player names are unique first/last pairs, so at most 400 players;
    more raises BenchmarkError.
    """
    names = len(_PLAYER_FIRST) * len(_PLAYER_LAST)
    if players > names:
        raise BenchmarkError(
            f"players={players} exceeds the {names} unique player names "
            "the generator can draw"
        )
    rng = random.Random(("european_football_2", seed).__repr__())
    db = Database("european_football_2")
    db.create_table(
        TableSchema(
            "League",
            [
                Column("id", DataType.INTEGER, nullable=False, primary_key=True),
                Column("name", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "Team",
            [
                Column("team_api_id", DataType.INTEGER, nullable=False, primary_key=True),
                Column("team_long_name", DataType.TEXT),
                Column("league_id", DataType.INTEGER),
            ],
            foreign_keys=[ForeignKey("league_id", "League", "id")],
        )
    )
    db.create_table(
        TableSchema(
            "Player",
            [
                Column("player_api_id", DataType.INTEGER, nullable=False, primary_key=True),
                Column("player_name", DataType.TEXT),
                Column("height", DataType.REAL),
                Column("weight", DataType.INTEGER),
                Column("birthday", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "Player_Attributes",
            [
                Column("id", DataType.INTEGER, nullable=False, primary_key=True),
                Column("player_api_id", DataType.INTEGER),
                Column("overall_rating", DataType.INTEGER),
                Column("potential", DataType.INTEGER),
                Column("preferred_foot", DataType.TEXT),
                Column("crossing", DataType.INTEGER),
                Column("volleys", DataType.INTEGER),
                Column("dribbling", DataType.INTEGER),
                Column("finishing", DataType.INTEGER),
                Column("short_passing", DataType.INTEGER),
                Column("ball_control", DataType.INTEGER),
                Column("acceleration", DataType.INTEGER),
                Column("sprint_speed", DataType.INTEGER),
                Column("stamina", DataType.INTEGER),
                Column("strength", DataType.INTEGER),
            ],
            foreign_keys=[
                ForeignKey("player_api_id", "Player", "player_api_id")
            ],
        )
    )

    for league_id, (league_name, _country, _conf) in enumerate(
        LEAGUE_COUNTRY_FACTS, start=1
    ):
        db.insert("League", [[league_id, league_name]])
        # Vary team counts across leagues so "league with the most
        # teams" style queries have unambiguous answers.
        for slot in range(3 + (league_id % 4)):
            team_id = league_id * 100 + slot
            stem = _TEAM_STEMS[(league_id + slot) % len(_TEAM_STEMS)]
            db.insert(
                "Team",
                [[team_id, f"{stem} {league_id}{slot}", league_id]],
            )

    used_names: set[str] = set()
    for player_id in range(1, players + 1):
        while True:
            name = (
                f"{rng.choice(_PLAYER_FIRST)} {rng.choice(_PLAYER_LAST)}"
            )
            if name not in used_names:
                used_names.add(name)
                break
        height = round(rng.gauss(181.0, 7.0), 2)
        height = max(160.0, min(204.0, height))
        weight = int(height * 0.42 + rng.uniform(-6, 10))
        birth_year = rng.randint(1975, 1998)
        db.insert(
            "Player",
            [
                [
                    player_id,
                    name,
                    height,
                    weight,
                    f"{birth_year}-{rng.randint(1, 12):02d}-"
                    f"{rng.randint(1, 28):02d}",
                ]
            ],
        )
        rating = rng.randint(55, 94)

        def skill(spread_low: int, spread_high: int) -> int:
            return max(20, min(97, rating + rng.randint(spread_low, spread_high)))

        db.insert(
            "Player_Attributes",
            [
                [
                    player_id,
                    player_id,
                    rating,
                    min(99, rating + rng.randint(0, 6)),
                    "left" if rng.random() < 0.25 else "right",
                    skill(-20, 8),
                    max(20, min(95, rating + rng.randint(-25, 10))),
                    skill(-20, 8),
                    skill(-22, 8),
                    skill(-12, 6),
                    skill(-12, 6),
                    skill(-18, 10),
                    max(
                        25,
                        min(
                            97,
                            int(rating - (height - 181) * 0.8)
                            + rng.randint(-10, 10),
                        ),
                    ),
                    skill(-15, 10),
                    max(
                        25,
                        min(
                            97,
                            int(rating + (height - 181) * 0.6)
                            + rng.randint(-12, 8),
                        ),
                    ),
                ]
            ],
        )
    db.create_index("Player", "player_api_id")
    db.create_index("Player_Attributes", "player_api_id")
    return Dataset(
        name="european_football_2",
        db=db,
        description=(
            "European football leagues, teams, players with heights, "
            "and per-player skill attributes."
        ),
        frames=frames_from_db(db),
    )
