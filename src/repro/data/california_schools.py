"""california_schools: schools, SAT scores, and FRPM tables.

Schema-compatible with the BIRD domain's columns the benchmark touches
(``schools.City/County/GSoffered/Longitude``, ``satscores.AvgScrMath``,
``frpm."Free Meal Count (K-12)"``).  Cities are drawn from the
geography fact store, so knowledge queries about regions ("schools in
the Bay Area") resolve against the same cities the LM holds beliefs
about.
"""

from __future__ import annotations

import random

from repro.data.base import Dataset, frames_from_db
from repro.db import Column, Database, DataType, ForeignKey, TableSchema
from repro.errors import BenchmarkError
from repro.knowledge.geography import CITY_COORDINATES

_GRADE_SPANS = ["K-5", "K-6", "K-8", "K-12", "6-8", "6-12", "9-12"]
_SCHOOL_KINDS = [
    ("Elementary", ("K-5", "K-6", "K-8")),
    ("Middle", ("6-8",)),
    ("High", ("9-12",)),
    ("Unified", ("K-12", "6-12")),
    ("Charter Academy", ("K-8", "K-12", "9-12")),
]
#: Kinds of school that administer the SAT, and how many distinct math
#: scores the generator can draw for them (440..680).
_SAT_KINDS = ("High", "Unified", "Charter Academy")
_MATH_SCORES = 241
_COUNTY_BY_CITY = {
    "San Francisco": "San Francisco",
    "Oakland": "Alameda",
    "Berkeley": "Alameda",
    "Fremont": "Alameda",
    "Hayward": "Alameda",
    "San Jose": "Santa Clara",
    "Palo Alto": "Santa Clara",
    "Mountain View": "Santa Clara",
    "Sunnyvale": "Santa Clara",
    "Santa Clara": "Santa Clara",
    "Cupertino": "Santa Clara",
    "Milpitas": "Santa Clara",
    "Los Altos": "Santa Clara",
    "Campbell": "Santa Clara",
    "Saratoga": "Santa Clara",
    "Los Gatos": "Santa Clara",
    "Morgan Hill": "Santa Clara",
    "Gilroy": "Santa Clara",
    "Menlo Park": "San Mateo",
    "Redwood City": "San Mateo",
    "San Mateo": "San Mateo",
    "Daly City": "San Mateo",
    "Richmond": "Contra Costa",
    "Concord": "Contra Costa",
    "Walnut Creek": "Contra Costa",
    "San Rafael": "Marin",
    "Vallejo": "Solano",
    "Napa": "Napa",
    "Santa Rosa": "Sonoma",
    "Santa Cruz": "Santa Cruz",
    "Stockton": "San Joaquin",
    "Sacramento": "Sacramento",
    "Modesto": "Stanislaus",
    "Fresno": "Fresno",
    "Los Angeles": "Los Angeles",
    "Long Beach": "Los Angeles",
    "Pasadena": "Los Angeles",
    "San Diego": "San Diego",
    "Chula Vista": "San Diego",
    "Anaheim": "Orange",
    "Santa Ana": "Orange",
    "Irvine": "Orange",
    "Riverside": "Riverside",
    "Bakersfield": "Kern",
    "Santa Barbara": "Santa Barbara",
    "San Luis Obispo": "San Luis Obispo",
    "Monterey": "Monterey",
    "Salinas": "Monterey",
    "Visalia": "Tulare",
    "Merced": "Merced",
}


def build(seed: int = 0, schools_per_city: int = 5) -> Dataset:
    """Generate the domain deterministically from ``seed``.

    Math scores are unique, so at most 241 schools can take the SAT:
    ``schools_per_city`` above 8 raises BenchmarkError.
    """
    sat_rows = len(_COUNTY_BY_CITY) * sum(
        _SCHOOL_KINDS[slot % len(_SCHOOL_KINDS)][0] in _SAT_KINDS
        for slot in range(schools_per_city)
    )
    if sat_rows > _MATH_SCORES:
        raise BenchmarkError(
            f"schools_per_city={schools_per_city} needs {sat_rows} unique "
            f"SAT math scores; the generator has {_MATH_SCORES}"
        )
    rng = random.Random(("california_schools", seed).__repr__())
    db = Database("california_schools")
    db.create_table(
        TableSchema(
            "schools",
            [
                Column("CDSCode", DataType.TEXT, nullable=False, primary_key=True),
                Column("StatusType", DataType.TEXT),
                Column("School", DataType.TEXT),
                Column("District", DataType.TEXT),
                Column("County", DataType.TEXT),
                Column("City", DataType.TEXT),
                Column("Zip", DataType.TEXT),
                Column("Street", DataType.TEXT),
                Column("Phone", DataType.TEXT),
                Column("Website", DataType.TEXT),
                Column("GSoffered", DataType.TEXT),
                Column("GSserved", DataType.TEXT),
                Column("Latitude", DataType.REAL),
                Column("Longitude", DataType.REAL),
                Column("Charter", DataType.INTEGER),
                Column("FundingType", DataType.TEXT),
                Column("DOCType", DataType.TEXT),
                Column("SOCType", DataType.TEXT),
                Column("EdOpsName", DataType.TEXT),
                Column("Virtual", DataType.TEXT),
                Column("Magnet", DataType.INTEGER),
                Column("AdmFName", DataType.TEXT),
                Column("AdmLName", DataType.TEXT),
                Column("OpenDate", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema(
            "satscores",
            [
                Column("cds", DataType.TEXT, nullable=False, primary_key=True),
                Column("rtype", DataType.TEXT),
                Column("sname", DataType.TEXT),
                Column("dname", DataType.TEXT),
                Column("cname", DataType.TEXT),
                Column("enroll12", DataType.INTEGER),
                Column("NumTstTakr", DataType.INTEGER),
                Column("AvgScrRead", DataType.INTEGER),
                Column("AvgScrMath", DataType.INTEGER),
                Column("AvgScrWrite", DataType.INTEGER),
                Column("NumGE1500", DataType.INTEGER),
            ],
            foreign_keys=[ForeignKey("cds", "schools", "CDSCode")],
        )
    )
    db.create_table(
        TableSchema(
            "frpm",
            [
                Column("CDSCode", DataType.TEXT, nullable=False, primary_key=True),
                Column("Academic Year", DataType.TEXT),
                Column("County Name", DataType.TEXT),
                Column("District Name", DataType.TEXT),
                Column("School Type", DataType.TEXT),
                Column("Low Grade", DataType.TEXT),
                Column("High Grade", DataType.TEXT),
                Column("Enrollment", DataType.REAL),
                Column("FreeMealCount", DataType.REAL),
                Column("FRPMCount", DataType.REAL),
            ],
            foreign_keys=[ForeignKey("CDSCode", "schools", "CDSCode")],
        )
    )

    cities = sorted(_COUNTY_BY_CITY)
    code = 1_000_000
    used_math_scores: set[int] = set()
    used_takers: set[int] = set()
    for city in cities:
        latitude, longitude = CITY_COORDINATES[city]
        county = _COUNTY_BY_CITY[city]
        for slot in range(schools_per_city):
            kind, spans = _SCHOOL_KINDS[slot % len(_SCHOOL_KINDS)]
            code += rng.randint(11, 99)
            school_name = f"{city} {kind} {slot + 1}"
            district = f"{city} Unified School District"
            grade_span = rng.choice(list(spans))
            charter = 1 if rng.random() < 0.2 else 0
            open_year = rng.randint(1950, 2010)
            row_latitude = round(
                latitude + rng.uniform(-0.04, 0.04), 6
            )
            row_longitude = round(
                longitude + rng.uniform(-0.04, 0.04), 6
            )
            admin_first = rng.choice(
                ["Maria", "James", "Linda", "Robert", "Susan", "David"]
            )
            admin_last = rng.choice(
                ["Nguyen", "Garcia", "Smith", "Kim", "Lopez", "Chen"]
            )
            slug = school_name.lower().replace(" ", "")
            db.insert(
                "schools",
                [
                    [
                        f"{code:07d}",
                        "Active",
                        school_name,
                        district,
                        county,
                        city,
                        f"9{rng.randint(1000, 9999)}",
                        f"{rng.randint(100, 9999)} "
                        f"{rng.choice(['Main St', 'Oak Ave', 'Elm Dr', 'School Rd'])}",
                        f"({rng.randint(200, 989)}) "
                        f"{rng.randint(200, 989)}-{rng.randint(1000, 9999)}",
                        f"www.{slug}.k12.ca.us",
                        grade_span,
                        grade_span,
                        row_latitude,
                        row_longitude,
                        charter,
                        "Directly funded" if charter else "State aid",
                        rng.choice(
                            ["Unified School District", "Elementary School District"]
                        ),
                        kind,
                        "Traditional",
                        rng.choice(["N", "P"]),
                        1 if rng.random() < 0.1 else 0,
                        admin_first,
                        admin_last,
                        f"{open_year}-0{rng.randint(1, 9)}-15",
                    ]
                ],
            )
            # Only high/unified schools administer the SAT.
            if kind in _SAT_KINDS:
                # Keep math scores and taker counts unique so that
                # superlative and top-k gold answers are unambiguous.
                takers = rng.randint(40, 600)
                while takers in used_takers:
                    takers = rng.randint(40, 600)
                used_takers.add(takers)
                base = rng.randint(440, 620)
                math = min(800, base + rng.randint(-30, 60))
                while math in used_math_scores:
                    math = min(800, 440 + rng.randint(0, 240))
                used_math_scores.add(math)
                read = min(800, base + rng.randint(-40, 40))
                write = min(800, base + rng.randint(-40, 40))
                ge1500 = int(
                    takers * max(0.0, (math + read + write - 1350) / 900.0)
                )
                db.insert(
                    "satscores",
                    [
                        [
                            f"{code:07d}",
                            "S",
                            school_name,
                            district,
                            county,
                            takers + rng.randint(0, 80),
                            takers,
                            read,
                            math,
                            write,
                            ge1500,
                        ]
                    ],
                )
            enrollment = float(rng.randint(200, 2400))
            free_meals = round(enrollment * rng.uniform(0.1, 0.8), 1)
            frpm_count = round(
                min(enrollment, free_meals * rng.uniform(1.0, 1.25)), 1
            )
            low_grade, _, high_grade = grade_span.partition("-")
            db.insert(
                "frpm",
                [
                    [
                        f"{code:07d}",
                        "2014-2015",
                        county,
                        district,
                        f"{kind} Schools (Public)",
                        low_grade,
                        high_grade,
                        enrollment,
                        free_meals,
                        frpm_count,
                    ]
                ],
            )
    db.create_index("schools", "CDSCode")
    db.create_index("satscores", "cds")
    db.create_index("frpm", "CDSCode")
    return Dataset(
        name="california_schools",
        db=db,
        description=(
            "Californian schools with locations, SAT scores, and free/"
            "reduced-price meal statistics."
        ),
        frames=frames_from_db(db),
    )
