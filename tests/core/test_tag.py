"""Unit tests for the TAG core: pipeline composition and steps."""

import pytest

from repro.core import (
    EmbeddingSynthesizer,
    FixedQuerySynthesizer,
    LMQuerySynthesizer,
    NoGenerator,
    SQLExecutor,
    SingleCallGenerator,
    TAGPipeline,
    VectorSearchExecutor,
)
from repro.core.synthesis import _broaden_to_retrieval
from repro.embed import HashingEmbedder
from repro.errors import ReproError


class TestTAGPipeline:
    def test_composes_three_steps(self, movies_db):
        pipeline = TAGPipeline(
            FixedQuerySynthesizer(
                "SELECT title FROM movies WHERE revenue > 1000"
            ),
            SQLExecutor(movies_db),
            NoGenerator(),
        )
        result = pipeline.run("Which movies grossed over a billion?")
        assert result.ok
        assert result.answer == ["Titanic", "Avatar"]
        assert result.query.startswith("SELECT")
        assert len(result.table) == 2

    def test_errors_captured_not_raised(self, movies_db):
        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT broken FROM nowhere"),
            SQLExecutor(movies_db),
            NoGenerator(),
        )
        result = pipeline.run("anything")
        assert not result.ok
        assert isinstance(result.error.exception, ReproError)
        assert result.error.kind == type(result.error.exception).__name__
        assert result.error.step_name == "execution"
        assert result.answer is None

    def test_non_repro_errors_also_captured(self, movies_db):
        """A buggy custom step must fail the request, not the caller.

        Serving workers run arbitrary user pipelines; any exception
        escaping ``run`` would kill the worker thread, so *all*
        exceptions are wrapped into ``TAGResult.error``.
        """

        class BuggyGenerator:
            def generate(self, request, table):
                raise ValueError("user bug, not a ReproError")

        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT title FROM movies"),
            SQLExecutor(movies_db),
            BuggyGenerator(),
        )
        result = pipeline.run("anything")
        assert not result.ok
        assert result.error.kind == "ValueError"
        assert isinstance(result.error.exception, ValueError)
        assert result.error.step_name == "generation"
        assert result.table  # earlier steps' progress is preserved
        assert result.answer is None

    def test_keyboard_interrupt_propagates(self, movies_db):
        class InterruptedGenerator:
            def generate(self, request, table):
                raise KeyboardInterrupt

        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT title FROM movies"),
            SQLExecutor(movies_db),
            InterruptedGenerator(),
        )
        with pytest.raises(KeyboardInterrupt):
            pipeline.run("anything")


class TestSynthesizers:
    def test_fixed(self):
        assert FixedQuerySynthesizer("Q").synthesize("anything") == "Q"

    def test_lm_synthesizer_produces_sql(self, lm, datasets):
        synthesizer = LMQuerySynthesizer(
            lm, datasets["california_schools"]
        )
        sql = synthesizer.synthesize("How many schools are there?")
        assert sql.upper().startswith("SELECT")

    def test_retrieval_mode_broadens(self):
        sql = "SELECT COUNT(*) FROM t WHERE a > 1 ORDER BY a LIMIT 3"
        broadened = _broaden_to_retrieval(sql)
        assert broadened.startswith("SELECT * FROM")
        assert "LIMIT" not in broadened
        assert "WHERE a > 1" in broadened

    def test_embedding_synthesizer(self):
        embedder = HashingEmbedder(dimensions=64)
        vector = EmbeddingSynthesizer(embedder).synthesize("hello")
        assert vector.shape == (64,)


class TestExecutors:
    def test_sql_executor_returns_records(self, movies_db):
        records = SQLExecutor(movies_db).execute(
            "SELECT title, year FROM movies WHERE id = 1"
        )
        assert records == [{"title": "Titanic", "year": 1997}]

    def test_sql_executor_row_cap(self, movies_db):
        records = SQLExecutor(movies_db, max_rows=2).execute(
            "SELECT * FROM movies"
        )
        assert len(records) == 2

    def test_vector_executor_retrieves_relevant_rows(self, datasets):
        embedder = HashingEmbedder()
        executor = VectorSearchExecutor(
            datasets["formula_1"], embedder, k=5
        )
        query = embedder.embed(
            "Sepang International Circuit Kuala Lumpur Malaysia"
        )
        records = executor.execute(query)
        assert len(records) == 5
        assert any(
            record.get("name") == "Sepang International Circuit"
            for record in records
        )

    def test_vector_executor_corpus_covers_all_tables(self, datasets):
        executor = VectorSearchExecutor(
            datasets["codebase_community"], HashingEmbedder(), k=1
        )
        db = datasets["codebase_community"].db
        expected = sum(len(db.table(t)) for t in db.table_names)
        assert executor.corpus.size == expected


    def test_row_corpus_serves_every_depth_from_one_index(self, datasets):
        from repro.core import RowCorpus, shared_corpus

        dataset = datasets["codebase_community"]
        embedder = HashingEmbedder()
        corpora: dict = {}
        corpus = shared_corpus(corpora, dataset, embedder)
        assert shared_corpus(corpora, dataset, embedder) is corpus
        assert shared_corpus(corpora, dataset, HashingEmbedder()) is not corpus
        assert corpus._built is None  # nothing embedded until asked
        query = embedder.embed("comments about regression")
        deep = corpus.search(query, 30)
        records, index = corpus._built
        shallow = VectorSearchExecutor(
            dataset, embedder, k=10, corpus=corpus
        ).execute(query)
        assert corpus._built[1] is index and len(index) == corpus.size
        assert shallow == deep[:10]
        private = VectorSearchExecutor(dataset, embedder, k=30)
        assert isinstance(private.corpus, RowCorpus)
        assert private.corpus is not corpus
        assert private.execute(query) == deep

    def test_row_corpus_first_use_from_several_threads(self, datasets):
        """A first use racing another may build twice; every caller
        still searches one complete index of the right size."""
        import threading

        from repro.core import RowCorpus

        dataset = datasets["codebase_community"]
        embedder = HashingEmbedder()
        corpus = RowCorpus(dataset, embedder)
        query = embedder.embed("the most upvoted comment")
        found: list = [None] * 4

        def search(slot: int) -> None:
            found[slot] = corpus.search(query, 10)

        threads = [
            threading.Thread(target=search, args=(slot,))
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        rows = sum(
            len(dataset.db.table(name)) for name in dataset.db.table_names
        )
        assert corpus.size == len(corpus._built[1]) == rows
        assert found == [RowCorpus(dataset, embedder).search(query, 10)] * 4

    def test_folded_error_drops_traceback_but_still_reraises(
        self, suite, datasets
    ):
        """RAG re-raises the pipeline's folded error: the record lets
        the traceback go, the message and accounting do not change."""
        from repro.lm import LMConfig, SimulatedLM
        from repro.methods import RAGMethod

        spec = next(s for s in suite if s.qid == "match-k01")
        method = RAGMethod(SimulatedLM(LMConfig(seed=0, context_window=64)))
        for _ in range(2):
            result = method.answer(spec, datasets[spec.domain])
            assert result.error == (
                "ContextLengthError: prompt of 1042 tokens exceeds the "
                "64-token context window"
            )
            assert result.answer is None
            assert result.et_seconds == 0.05
            assert result.diagnostics["context_errors"] == 1
        pipeline = TAGPipeline(
            FixedQuerySynthesizer("SELECT broken FROM nowhere"),
            SQLExecutor(datasets[spec.domain].db),
            NoGenerator(),
        )
        error = pipeline.run("anything").error
        assert error.exception.__traceback__ is None
        with pytest.raises(type(error.exception)) as raised:
            raise error.to_exception()
        assert raised.value is error.exception
        assert raised.value.__traceback__ is not None


class TestGenerators:
    def test_no_generator_flattens(self):
        generator = NoGenerator()
        assert generator.generate("q", [{"a": 1}, {"a": 2}]) == [1, 2]
        assert generator.generate("q", [{"a": 1, "b": 2}]) == [(1, 2)]

    def test_single_call_generator(self, lm):
        generator = SingleCallGenerator(lm)
        answer = generator.generate(
            "How many rows are there?", [{"x": "1"}]
        )
        assert answer.startswith("[")
