"""Unit tests for the self-correcting pipeline (validate→repair→retry)."""

import pytest

from repro.core import (
    FallbackPipeline,
    FixedQuerySynthesizer,
    LMQuerySynthesizer,
    NoGenerator,
    RepairAttempt,
    RepairPolicy,
    SQLExecutor,
    SelfCorrectingPipeline,
    TAGPipeline,
    describe_failure,
    render_transcript,
)
from repro.core.tag import TAGError
from repro.errors import RepairExhaustedError
from repro.lm import FaultPlan, FaultyLM, LMConfig, SimulatedLM


def _question(suite) -> str:
    return next(s for s in suite if s.domain == "formula_1").question


def _pipeline(lm, dataset, max_repairs: int):
    return SelfCorrectingPipeline(
        LMQuerySynthesizer(lm, dataset),
        SQLExecutor(dataset.db, analyze=True),
        NoGenerator(),
        lm=lm,
        schema_sql=dataset.prompt_schema(),
        policy=RepairPolicy(max_repairs=max_repairs),
    )


def _faulty(script) -> FaultyLM:
    return FaultyLM(
        SimulatedLM(LMConfig(seed=0)), FaultPlan(script=tuple(script))
    )


class TestRepairPolicy:
    def test_defaults(self):
        policy = RepairPolicy()
        assert policy.max_repairs == 2
        assert policy.max_tokens > 0

    def test_validates_budget(self):
        with pytest.raises(ValueError):
            RepairPolicy(max_repairs=-1)
        with pytest.raises(ValueError):
            RepairPolicy(max_tokens=0)
        RepairPolicy(max_repairs=0)  # disabling the loop is legal


class TestDescribeFailure:
    def test_analysis_error_renders_diagnostics(self, movies_db):
        executor = SQLExecutor(movies_db, analyze=True)
        with pytest.raises(Exception) as info:
            executor.execute("SELECT nope FROM movies")
        text = describe_failure(info.value)
        assert "ANA003" in text
        assert "unknown column 'nope'" in text

    def test_syntax_error_carries_position(self, movies_db):
        executor = SQLExecutor(movies_db)
        with pytest.raises(Exception) as info:
            executor.execute("tluser TCELES title FROM movies")
        assert describe_failure(info.value).startswith(
            "syntax error at position 0:"
        )

    @pytest.mark.parametrize("rows", [True, False])
    def test_bad_call_without_analysis_names_the_engine_check(
        self, movies_db, rows
    ):
        # Refused when the statement plans, over a full table or an
        # empty one, in the analyzer's words rather than Python's.
        if not rows:
            movies_db.execute("DELETE FROM movies")
        executor = SQLExecutor(movies_db)
        with pytest.raises(Exception) as info:
            executor.execute("SELECT ROUND() FROM movies")
        assert describe_failure(info.value) == (
            "PlanningError: ROUND() expects 1..2 argument(s), got 0"
        )

    def test_fallback_names_the_exception(self):
        assert describe_failure(ValueError("boom")) == "ValueError: boom"


class TestSelfCorrectingPipeline:
    def test_repairs_a_garbled_generation(self, suite, datasets):
        """One garbled synthesis, one repair: the answer matches the
        healthy run and the transcript records both attempts."""
        dataset = datasets["formula_1"]
        question = _question(suite)
        oracle = TAGPipeline(
            LMQuerySynthesizer(SimulatedLM(LMConfig(seed=0)), dataset),
            SQLExecutor(dataset.db, analyze=True),
            NoGenerator(),
        ).run(question)
        assert oracle.ok

        lm = _faulty(["malformed_sql"])
        result = _pipeline(lm, dataset, max_repairs=2).run(question)
        assert result.ok
        assert result.answer == oracle.answer
        assert result.query == oracle.query  # repair restored the SQL
        assert [a.attempt for a in result.repairs] == [0, 1]
        assert not result.repairs[0].ok
        assert result.repairs[0].diagnostics
        assert result.repairs[1].ok
        assert lm.usage.repair_attempts == 1
        assert lm.usage.repair_successes == 1
        assert lm.usage.repair_exhausted == 0

    def test_exhaustion_surfaces_structured_history(self, suite, datasets):
        """Every attempt garbled: the failure is kind
        ``repair_exhausted`` carrying all attempts and the last SQL."""
        dataset = datasets["formula_1"]
        lm = _faulty(["malformed_sql"] * 3)
        result = _pipeline(lm, dataset, max_repairs=2).run(_question(suite))
        assert not result.ok
        assert result.error.kind == "repair_exhausted"
        assert result.error.step_name == "execution"
        assert "2 repairs" in result.error.message
        assert len(result.error.repairs) == 3
        assert all(not a.ok for a in result.error.repairs)
        assert result.error.sql == result.error.repairs[-1].sql
        assert result.repairs == result.error.repairs
        assert isinstance(result.error.exception, RepairExhaustedError)
        assert lm.usage.repair_attempts == 2
        assert lm.usage.repair_successes == 0
        assert lm.usage.repair_exhausted == 1

    def test_zero_budget_is_byte_identical_to_plain(self, suite, datasets):
        """``max_repairs=0`` takes exactly the base pipeline's path:
        same structured error, same SQL, same usage — and no repair
        prompt is ever issued."""
        dataset = datasets["formula_1"]
        question = _question(suite)
        plain_lm = _faulty(["malformed_sql"])
        plain = TAGPipeline(
            LMQuerySynthesizer(plain_lm, dataset),
            SQLExecutor(dataset.db, analyze=True),
            NoGenerator(),
        ).run(question)
        repair_lm = _faulty(["malformed_sql"])
        guarded = _pipeline(repair_lm, dataset, max_repairs=0).run(question)
        assert not plain.ok and not guarded.ok
        assert guarded.error == plain.error
        assert guarded.query == plain.query
        assert guarded.repairs == []
        assert repair_lm.usage == plain_lm.usage
        assert repair_lm.usage.repair_attempts == 0

    def test_exhaustion_degrades_into_fallback_tier(self, suite, datasets):
        """An exhausted budget is an ordinary structured failure: a
        FallbackPipeline degrades past it and keeps the history."""
        dataset = datasets["formula_1"]
        primary = _pipeline(_faulty(["malformed_sql"] * 3), dataset, 2)
        safety_net = TAGPipeline(
            FixedQuerySynthesizer("SELECT name FROM circuits LIMIT 1"),
            SQLExecutor(dataset.db),
            NoGenerator(),
        )
        chain = FallbackPipeline(
            [("repair", primary), ("fixed", safety_net)]
        )
        result = chain.run(_question(suite))
        assert result.ok
        assert result.method == "fixed"
        assert result.degraded
        failed = result.fallbacks[0].error
        assert failed.kind == "repair_exhausted"
        assert len(failed.repairs) == 3

    def test_non_sql_queries_are_not_repaired(self, datasets):
        """The loop only understands SQL text; a non-string query plan
        (e.g. an embedding) re-raises immediately."""
        dataset = datasets["formula_1"]

        class VectorSynthesizer:
            def synthesize(self, request):
                return (0.0, 1.0)

        class RejectingExecutor:
            def execute(self, query):
                from repro.errors import PlanningError

                raise PlanningError("not sql")

        lm = SimulatedLM(LMConfig(seed=0))
        pipeline = SelfCorrectingPipeline(
            VectorSynthesizer(),
            RejectingExecutor(),
            NoGenerator(),
            lm=lm,
            schema_sql=dataset.prompt_schema(),
            policy=RepairPolicy(max_repairs=2),
        )
        result = pipeline.run("anything")
        assert not result.ok
        assert result.error.kind == "PlanningError"
        assert lm.usage.repair_attempts == 0


class TestTranscript:
    GOLDEN = (
        "repair transcript: 2 attempts, repaired\n"
        "attempt 0 (synthesis): failed\n"
        "  sql: SELECT nope FROM movies\n"
        "  error: analysis: rejected (during synthesis)\n"
        "  diagnostics: error ANA003 at 7..11: unknown column 'nope'\n"
        "attempt 1 (repair): ok\n"
        "  sql: SELECT title FROM movies"
    )

    def test_golden_render(self):
        attempts = [
            RepairAttempt(
                attempt=0,
                sql="SELECT  nope\nFROM movies",
                error=TAGError(kind="analysis", message="rejected", step=0),
                diagnostics="error ANA003 at 7..11: unknown column 'nope'",
            ),
            RepairAttempt(attempt=1, sql="SELECT title FROM movies"),
        ]
        assert render_transcript(attempts) == self.GOLDEN

    def test_exhausted_and_empty_renders(self):
        failed = RepairAttempt(
            attempt=0,
            sql="SELECT 1",
            error=TAGError(kind="x", message="m"),
        )
        text = render_transcript([failed])
        assert text.startswith("repair transcript: 1 attempts, exhausted")
        assert render_transcript([]) == "repair transcript: no attempts"


class TestTAGErrorContext:
    def test_execution_failure_preserves_sql_and_input(self, movies_db):
        """Satellite: a failed step records what it was running."""
        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT broken FROM nowhere"),
            SQLExecutor(movies_db),
            NoGenerator(),
        )
        result = pipeline.run("anything")
        assert not result.ok
        assert result.error.sql == "SELECT broken FROM nowhere"
        assert result.error.step_input == "SELECT broken FROM nowhere"

    def test_generation_failure_keeps_table_input(self, movies_db):
        class BuggyGenerator:
            def generate(self, request, table):
                raise ValueError("bug")

        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT title FROM movies WHERE id = 1"),
            SQLExecutor(movies_db),
            BuggyGenerator(),
        )
        result = pipeline.run("anything")
        assert result.error.step_input == [{"title": "Titanic"}]
        assert result.error.sql == result.query
