"""The serving demo: the paper's Figure 1 request, built in one place.

"Summarize the reviews of the highest grossing romance movie" becomes
one SQL row for the generator to summarize.  ``repro serve``, ``repro
trace``, the serving benchmarks (E13-E15, E19, E20),
``examples/serve_concurrent.py`` and the serving tests build it from
here: :func:`build_dataset`, :func:`pipeline_factory` and
:func:`requests`.  Each caller still builds its own
:class:`~repro.serve.TagServer`, because the server's keywords
(workers, window, faults, resilience, admission, tracer, caches) are
what each of them varies.

A "deep scan" request asks for the per-row ``MOOD`` LM UDF over every
review instead, so its estimated cost scales with the table: it is what
admission control turns away under a tight budget.
"""

from __future__ import annotations

from repro.core import (
    FallbackPipeline,
    NoGenerator,
    RepairPolicy,
    SQLExecutor,
    SelfCorrectingPipeline,
    SingleCallGenerator,
    TAGPipeline,
)
from repro.data import movies
from repro.data.base import Dataset

#: The top-grossing romance movie's review: one row to summarize.
ROMANCE_SQL = (
    "SELECT movie_title, review FROM movies "
    "WHERE genre = 'Romance' ORDER BY revenue DESC LIMIT 1"
)
#: A deep scan classifies every review with the expensive UDF.
_DEEP_SCAN_SQL = "SELECT movie_title, MOOD(review) FROM movies"
#: The demo request, numbered by :func:`requests`.
REQUEST = "Summarize the reviews of the top romance movie"


def _mood(review) -> str:
    return "positive" if "love" in str(review) else "mixed"


def query_for(request: str) -> str:
    """The SQL the demo runs for ``request``."""
    return _DEEP_SCAN_SQL if "deep scan" in request else ROMANCE_SQL


class _Synthesizer:
    def synthesize(self, request: str) -> str:
        return query_for(request)


def build_dataset(seed: int = 0) -> Dataset:
    """The movies dataset with the deep scan's ``MOOD`` UDF registered."""
    dataset = movies.build(seed=seed)
    dataset.db.register_udf(
        "MOOD",
        _mood,
        expensive=True,
        batch=lambda tuples: [_mood(review) for (review,) in tuples],
    )
    return dataset


def pipeline_factory(
    dataset: Dataset,
    *,
    fallback: bool = False,
    max_repairs: int = 0,
    optimize: bool = True,
):
    """A :class:`~repro.serve.TagServer` factory over ``dataset``.

    The primary tier runs the routed SQL and summarizes its rows with
    one LM call; ``max_repairs > 0`` makes it a self-correcting
    pipeline.  ``fallback`` adds a second tier, ``"table"``, that
    answers with the raw rows and no LM call, so no fault can reach it.
    ``optimize=False`` pins the per-row path for the deep scan's UDF.
    """
    synthesizer = _Synthesizer()

    def factory(lm):
        execution = SQLExecutor(dataset.db, optimize=optimize)
        steps = (
            synthesizer,
            execution,
            SingleCallGenerator(lm, aggregation=True),
        )
        if max_repairs > 0:
            primary = SelfCorrectingPipeline(
                *steps,
                lm=lm,
                schema_sql=dataset.db.schema_sql(),
                policy=RepairPolicy(max_repairs=max_repairs),
            )
        else:
            primary = TAGPipeline(*steps)
        if not fallback:
            return primary
        raw_table = TAGPipeline(synthesizer, execution, NoGenerator())
        return FallbackPipeline([("tag", primary), ("table", raw_table)])

    return factory


def requests(
    count: int, distinct: int | None = None, deep_scans: bool = False
) -> list[str]:
    """``count`` demo requests.

    Request ``i`` is :data:`REQUEST` numbered ``i % distinct`` (all
    distinct by default; fewer make a duplicate-heavy stream for the
    semantic cache).  With ``deep_scans``, every fourth is a deep scan.
    """
    if distinct is None:
        distinct = count
    return [
        f"Classify the mood of every review (deep scan #{index})"
        if deep_scans and index % 4 == 3
        else f"{REQUEST} (#{index % distinct})"
        for index in range(count)
    ]
