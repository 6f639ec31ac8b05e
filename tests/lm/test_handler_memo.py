"""What the LM handlers, the embedder and row retrieval derive from the
schema, the vocabulary or the corpus, pinned against frozen references.

``_parse_schema``, ``_normalize``, ``match_record_key``,
``find_mentions``, ``_bucket`` and ``Dataset.prompt_schema`` (with the
helpers they call) are copied below exactly as they stood when this
file was written, and so is the retrieval executor that owned a private
index.  They are what the memoised forms get rewritten from, so the
in-repo functions cannot be their own oracle.  Every test asks the
system for an answer and compares it with the one the frozen copies
give: LM responses (text, tokens, virtual latency) over every suite
question asked cold, warm and in a shuffled order; embeddings bit for
bit; retrieved ids and scores whichever method asks first.
"""

from __future__ import annotations

import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.external_knowledge import oracle_external_knowledge
from repro.core import SQLExecutor
from repro.data import load_all
from repro.data.base import Dataset
from repro.db import Column, Database, DataType, TableSchema
from repro.db.sql import ast
from repro.db.sql.parser import parse_statement
from repro.embed import HashingEmbedder, hashing, serialize_row
from repro.errors import ReproError, SQLSyntaxError
from repro.lm import LMConfig, SimulatedLM, prompts, schema_semantics
from repro.lm.handlers import repair, text2sql
from repro.lm.schema_semantics import PHRASE_HINTS, Mention
from repro.methods import default_methods
from repro.text.tokenize import tokens
from repro.vector.flat import FlatIndex

# ---------------------------------------------------------------------------
# The frozen references (verbatim copies; do not "tidy")
# ---------------------------------------------------------------------------


def ref_parse_schema(
    prompt: str,
) -> tuple[dict[str, list[str]], list[tuple[str, str, str, str]]]:
    """Extract tables {name: [columns]} and FK edges from the prompt."""
    tables: dict[str, list[str]] = {}
    edges: list[tuple[str, str, str, str]] = []
    for block in re.findall(
        r"CREATE TABLE.*?\n\)", prompt, re.DOTALL
    ):
        try:
            statement = parse_statement(block)
        except SQLSyntaxError:
            continue
        if not isinstance(statement, ast.CreateTable):
            continue
        tables[statement.name] = [
            column.name for column in statement.columns
        ]
        for fk in statement.foreign_keys:
            edges.append(
                (statement.name, fk.column, fk.parent_table, fk.parent_column)
            )
    return tables, edges


def ref_phrase_pattern(phrase: str) -> re.Pattern[str]:
    return re.compile(
        r"\b" + re.escape(phrase) + r"\b", re.IGNORECASE
    )


def ref_find_mentions(
    question: str, tables: dict[str, list[str]]
) -> list[Mention]:
    """All phrase mentions resolvable against ``tables``, sorted by
    position; overlapping shorter matches are suppressed."""
    lowered_tables = {
        table.lower(): (table, columns)
        for table, columns in tables.items()
    }
    claimed: list[tuple[int, int]] = []
    mentions: list[Mention] = []
    ordered_hints = sorted(
        PHRASE_HINTS, key=lambda hint: -len(hint[0])
    )
    for phrase, hint_table, column in ordered_hints:
        resolved = ref_resolve(hint_table, column, lowered_tables)
        if resolved is None:
            continue
        table_name, column_name = resolved
        for match in ref_phrase_pattern(phrase).finditer(question):
            span = (match.start(), match.end())
            if any(
                span[0] < end and start < span[1]
                for start, end in claimed
            ):
                continue
            claimed.append(span)
            mentions.append(
                Mention(phrase, table_name, column_name, match.start())
            )
    mentions.sort(key=lambda mention: mention.position)
    return mentions


def ref_resolve(
    hint_table: str | None,
    column: str,
    lowered_tables: dict[str, tuple[str, list[str]]],
) -> tuple[str, str] | None:
    if hint_table is not None:
        entry = lowered_tables.get(hint_table.lower())
        if entry is None:
            return None
        table_name, columns = entry
        for actual in columns:
            if actual.lower() == column.lower():
                return table_name, actual
        return None
    for table_name, columns in lowered_tables.values():
        for actual in columns:
            if actual.lower() == column.lower():
                return table_name, actual
    return None


def ref_match_record_key(phrase: str, keys: list[str]) -> str | None:
    """Best record key for a phrase (used over serialized data points).

    Tries the hint bank first (ignoring tables), then containment of
    normalised names.
    """
    normalized = ref_normalize(phrase)
    for hint_phrase, _table, column in sorted(
        PHRASE_HINTS, key=lambda hint: -len(hint[0])
    ):
        if ref_normalize(hint_phrase) in normalized or normalized in (
            ref_normalize(hint_phrase)
        ):
            for key in keys:
                if key.lower() == column.lower():
                    return key
    for key in keys:
        key_normalized = ref_normalize(key)
        if key_normalized and (
            key_normalized in normalized or normalized in key_normalized
        ):
            return key
    return None


def ref_normalize(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


def ref_bucket(feature: str, dimensions: int) -> tuple[int, float]:
    digest = hashlib.md5(feature.encode("utf-8")).digest()
    index = int.from_bytes(digest[:4], "big") % dimensions
    sign = 1.0 if digest[4] % 2 == 0 else -1.0
    return index, sign


def ref_embed(text: str, dimensions: int, use_trigrams: bool) -> np.ndarray:
    """Unit-norm embedding of one text (sentinel for degenerate)."""
    vector = np.zeros(dimensions, dtype=np.float64)
    words = tokens(text)
    for word in words:
        index, sign = ref_bucket("w:" + word, dimensions)
        vector[index] += sign
    if use_trigrams:
        lowered = " " + text.lower() + " "
        for position in range(len(lowered) - 2):
            trigram = lowered[position : position + 3]
            index, sign = ref_bucket("t:" + trigram, dimensions)
            vector[index] += 0.4 * sign
    norm = np.linalg.norm(vector)
    if norm > 0:
        return vector / norm
    index, sign = ref_bucket("degenerate:", dimensions)
    vector[index] = sign
    return vector


def ref_prompt_schema(dataset: Dataset, sample_rows: int = 6) -> str:
    """Schema encoding for the Text2SQL prompt, BIRD style."""
    blocks: list[str] = []
    for table_name in dataset.db.table_names:
        table = dataset.db.table(table_name)
        lines = [table.schema.to_create_sql()]
        for position, column in enumerate(table.schema.columns):
            described = ref_describe_identifier(column.name)
            examples: list[str] = []
            for row in table.rows:
                value = str(row[position])
                if value not in examples:
                    examples.append(value)
                if len(examples) == 3:
                    break
            rendered_examples = ", ".join(examples)
            lines.append(
                f"-- {table_name}.{column.name} "
                f"({column.dtype.value}): {described}; value examples: "
                f"{rendered_examples}"
            )
        names = " | ".join(table.schema.column_names)
        lines.append(f"-- Sample rows ({table_name}): {names}")
        for row in table.rows[:sample_rows]:
            rendered = " | ".join(str(value) for value in row)
            lines.append(f"--   {rendered}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def ref_describe_identifier(name: str) -> str:
    """Readable phrase for a column name (GSoffered -> 'g s offered')."""
    import re

    spaced = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    spaced = spaced.replace("_", " ")
    return spaced.lower()


class RefVectorSearchExecutor:
    """The retrieval executor with its own records and index."""

    def __init__(self, dataset, embedder, k=10, index=None) -> None:
        self.dataset = dataset
        self.embedder = embedder
        self.k = k
        self._index = index
        self._records = []
        self._built = False

    def _build(self) -> None:
        texts: list[str] = []
        for table_name in self.dataset.db.table_names:
            table = self.dataset.db.table(table_name)
            names = table.schema.column_names
            for row in table.rows:
                record = dict(zip(names, row))
                self._records.append(record)
                texts.append(serialize_row(record))
        vectors = self.embedder.embed_batch(texts)
        if self._index is None:
            self._index = FlatIndex(self.embedder.dimensions)
        self._index.add(vectors)
        self._built = True

    def search(self, query: np.ndarray):
        """(ids, scores, records) of the top ``k``."""
        if not self._built:
            self._build()
        indices, scores = self._index.search(query, self.k)
        return (
            indices,
            scores,
            [self._records[int(index)] for index in indices],
        )


def _install_references(monkeypatch) -> None:
    """Route every handler through the frozen copies."""
    monkeypatch.setattr(text2sql, "_parse_schema", ref_parse_schema)
    monkeypatch.setattr(repair, "_parse_schema", ref_parse_schema)
    monkeypatch.setattr(schema_semantics, "_normalize", ref_normalize)
    monkeypatch.setattr(
        schema_semantics, "_phrase_pattern", ref_phrase_pattern
    )
    monkeypatch.setattr(
        schema_semantics, "find_mentions", ref_find_mentions
    )
    monkeypatch.setattr(
        schema_semantics, "match_record_key", ref_match_record_key
    )


# ---------------------------------------------------------------------------
# (a) LM responses over every suite question
# ---------------------------------------------------------------------------


def _fresh_lm() -> SimulatedLM:
    return SimulatedLM(LMConfig(seed=0))


def _ask(lm: SimulatedLM, prompt: str) -> tuple[str, int, int, float]:
    response = lm.complete(prompt)
    return (
        response.text,
        response.prompt_tokens,
        response.output_tokens,
        response.latency_s,
    )


def _records_for(dataset: Dataset, sql: str) -> list[dict]:
    """Rows for an answer prompt: what the SQL returns, else the head
    of the domain's first table."""
    try:
        records = SQLExecutor(dataset.db, max_rows=10).execute(sql)
    except ReproError:
        records = []
    if not records:
        first = dataset.db.table(dataset.db.table_names[0])
        records = first.to_dicts()[:10]
    return records


@pytest.fixture(scope="module")
def golden(suite, datasets):
    """``(prompts, expected)``: every prompt of the golden set and the
    response a reference-only LM gives it."""
    patcher = pytest.MonkeyPatch()
    _install_references(patcher)
    try:
        lm = _fresh_lm()
        schemas = {
            name: ref_prompt_schema(dataset)
            for name, dataset in datasets.items()
        }
        asked: list[str] = []
        sql_of: dict[str, str] = {}
        for spec in suite:
            schema = schemas[spec.domain]
            plain = prompts.text2sql_prompt(schema, spec.question)
            asked.append(plain)
            sql_of[spec.qid] = lm.complete(plain).text
            knowledge = oracle_external_knowledge(spec.question)
            if knowledge is not None:
                asked.append(
                    prompts.text2sql_prompt(
                        schema, spec.question, knowledge
                    )
                )
        by_domain: dict[str, list] = {}
        for spec in suite:
            by_domain.setdefault(spec.domain, []).append(spec)
        for domain, specs in by_domain.items():
            schema = schemas[domain]
            # One repair that re-derives the query from the question,
            # one that edits the failed SQL in place.
            table = datasets[domain].db.table_names[0]
            asked.append(
                prompts.repair_prompt(
                    schema,
                    specs[0].question,
                    "SELEC nothing FRM nowhere",
                    "error at 0..5: expected a statement",
                )
            )
            asked.append(
                prompts.repair_prompt(
                    schema,
                    specs[1].question,
                    f"SELECT hallucinated_col, * FROM {table.upper()}_X",
                    "unknown column 'hallucinated_col'",
                    attempt=2,
                )
            )
        for spec in suite:
            dataset = datasets[spec.domain]
            asked.append(
                prompts.answer_prompt(
                    spec.question,
                    _records_for(dataset, sql_of[spec.qid]),
                    aggregation=spec.query_type == "aggregation",
                )
            )
        expected = {prompt: _ask(lm, prompt) for prompt in asked}
    finally:
        patcher.undo()
    return asked, expected


def test_golden_set_covers_every_prompt_family(golden, suite):
    asked, _ = golden
    assert len(asked) > 2 * len(suite)
    assert sum("-- Failed SQL:" in prompt for prompt in asked) == 10
    assert any(
        "-- External Knowledge: The " in prompt for prompt in asked
    )
    assert sum(prompt.startswith("You will be") for prompt in asked) == len(
        suite
    )


#: sha256 over the Text2SQL prompt of every suite question, in suite
#: order, each followed by its External Knowledge variant when the
#: oracle has one (118 prompts over fresh seed-0 datasets).
TEXT2SQL_PROMPTS_SHA256 = (
    "a670462b0870d02661f0fe07de74143eca53d9ca36f7c5c36959b284c30fd28c"
)


def test_text2sql_prompt_bytes_are_pinned(suite):
    """The golden set builds its prompts with the live builder, so it
    cannot notice the builder's own bytes changing; this digest can."""
    fresh = load_all(seed=0)
    digest = hashlib.sha256()
    count = 0
    for spec in suite:
        schema = fresh[spec.domain].prompt_schema()
        knowledge = oracle_external_knowledge(spec.question)
        for evidence in [None] if knowledge is None else [None, knowledge]:
            prompt = prompts.text2sql_prompt(schema, spec.question, evidence)
            digest.update(prompt.encode("utf-8"))
            count += 1
    assert count == 118
    assert digest.hexdigest() == TEXT2SQL_PROMPTS_SHA256


def test_prompt_schema_equals_reference(datasets):
    for dataset in datasets.values():
        assert dataset.prompt_schema() == ref_prompt_schema(dataset)
        assert dataset.prompt_schema() == ref_prompt_schema(dataset)
        for sample_rows in (0, 2, 6):
            assert dataset.prompt_schema(
                sample_rows=sample_rows
            ) == ref_prompt_schema(dataset, sample_rows)


def test_responses_equal_reference_cold_warm_and_shuffled(
    golden, datasets, suite
):
    asked, expected = golden
    # The prompts the methods build today carry the live schema render.
    for spec in suite:
        live = prompts.text2sql_prompt(
            datasets[spec.domain].prompt_schema(), spec.question
        )
        assert live in expected
    lm = _fresh_lm()
    for label in ("cold", "warm"):
        for prompt in asked:
            assert _ask(lm, prompt) == expected[prompt], label
    shuffled = list(asked)
    random.Random(22).shuffle(shuffled)
    domains_met = [
        next(
            name
            for name, dataset in datasets.items()
            if dataset.db.table_names[0] in prompt
        )
        for prompt in shuffled[:40]
        if "CREATE TABLE" in prompt
    ]
    assert len(set(domains_met)) == 5  # the schemas really interleave
    other = _fresh_lm()
    for prompt in shuffled:
        assert _ask(other, prompt) == expected[prompt]


def test_handler_functions_equal_reference_directly(golden, suite, datasets):
    """The same comparison one level down, so a difference names the
    function and not just the prompt."""
    asked, _ = golden
    for prompt in asked:
        if "CREATE TABLE" in prompt:
            assert text2sql._parse_schema(prompt) == ref_parse_schema(prompt)
    for dataset in datasets.values():
        tables, _ = ref_parse_schema(ref_prompt_schema(dataset))
        keys = [column for columns in tables.values() for column in columns]
        for spec in suite:
            assert schema_semantics.find_mentions(
                spec.question, tables
            ) == ref_find_mentions(spec.question, tables)
        phrases = [phrase for phrase, _, _ in PHRASE_HINTS] + keys + [
            "", "?", "Grade Span!", "the most popular post", "height",
        ]
        for phrase in phrases:
            assert schema_semantics._normalize(phrase) == ref_normalize(
                phrase
            )
            assert schema_semantics.match_record_key(
                phrase, keys
            ) == ref_match_record_key(phrase, keys)
            assert schema_semantics.match_record_key(
                phrase, keys[::-1]
            ) == ref_match_record_key(phrase, keys[::-1])


def test_parse_schema_results_are_not_aliased(datasets):
    prompt = prompts.text2sql_prompt(
        datasets["formula_1"].prompt_schema(), "How many races?"
    )
    expected = ref_parse_schema(prompt)
    tables, edges = text2sql._parse_schema(prompt)
    tables["races"].append("injected")
    tables["ghost"] = ["x"]
    del tables["circuits"]
    edges.clear()
    assert text2sql._parse_schema(prompt) == expected
    again, _ = text2sql._parse_schema(prompt)
    assert again is not tables
    assert again["races"] is not text2sql._parse_schema(prompt)[0]["races"]


def test_unparseable_blocks_are_skipped_every_time():
    prompt = (
        "CREATE TABLE broken\n(\n    id INTEGER PRIMARY\n)\n\n"
        "CREATE TABLE ok\n(\n    id INTEGER PRIMARY KEY\n)"
    )
    for _ in range(2):
        assert text2sql._parse_schema(prompt) == ref_parse_schema(prompt)
    assert list(text2sql._parse_schema(prompt)[0]) == ["ok"]


# ---------------------------------------------------------------------------
# Hint resolution, once per schema: staleness and aliasing
# ---------------------------------------------------------------------------

_HINT_QUESTIONS = [
    "What is the average math score of the school with the most test takers?",
    "Which city has the highest grade span offered, and in which county?",
    "How many points did the drivers of each nationality score per season?",
    "List the races and the year of each race in that round.",
    "What is the score of the school in the city of Fresno?",
    "",
]


def _assert_mentions_equal_reference(tables: dict[str, list[str]]) -> None:
    for question in _HINT_QUESTIONS:
        assert schema_semantics.find_mentions(
            question, tables
        ) == ref_find_mentions(question, tables), (question, tables)


def test_schemas_one_column_apart_resolve_alternately():
    first = {
        "schools": ["School", "City", "County", "GSoffered"],
        "satscores": ["AvgScrMath", "NumTstTakr", "Score"],
    }
    second = {
        "schools": ["School", "Town", "County", "GSoffered"],
        "satscores": ["AvgScrMath", "NumTstTakr", "Score"],
    }
    for _ in range(3):
        for tables in (first, second):
            _assert_mentions_equal_reference(tables)
    question = _HINT_QUESTIONS[1]
    assert schema_semantics.find_mentions(
        question, first
    ) != schema_semantics.find_mentions(question, second)


def test_tables_mutated_after_a_call_are_read_afresh():
    tables = {"races": ["name", "year"], "results": ["points"]}
    _assert_mentions_equal_reference(tables)
    tables["races"].append("round")
    tables["drivers"] = ["surname", "nationality"]
    del tables["results"]
    _assert_mentions_equal_reference(tables)
    tables["races"].remove("year")
    _assert_mentions_equal_reference(tables)
    question = _HINT_QUESTIONS[3]
    mentions = schema_semantics.find_mentions(question, tables)
    mentions.clear()
    assert schema_semantics.find_mentions(
        question, tables
    ) == ref_find_mentions(question, tables) != []


def test_tables_whose_names_differ_only_in_case_resolve_as_before():
    layouts = [
        {"Races": ["name"], "races": ["year", "round"]},
        {"races": ["year", "round"], "Races": ["name"]},
        {"SATSCORES": ["Score"], "satscores": ["AvgScrMath"]},
        {"satscores": ["AvgScrMath"], "SATSCORES": ["Score"]},
    ]
    for _ in range(2):
        for tables in layouts:
            _assert_mentions_equal_reference(tables)
    # The last spelling wins, so the two orders resolve differently.
    question = _HINT_QUESTIONS[3]
    assert schema_semantics.find_mentions(
        question, layouts[0]
    ) != schema_semantics.find_mentions(question, layouts[1])


# ---------------------------------------------------------------------------
# Staleness: prompt_schema after every kind of change
# ---------------------------------------------------------------------------


def _scratch_dataset() -> Dataset:
    db = Database()
    db.create_table(
        TableSchema(
            "items",
            [
                Column(
                    "id", DataType.INTEGER, nullable=False, primary_key=True
                ),
                Column("label", DataType.TEXT),
            ],
        )
    )
    db.create_table(
        TableSchema("emptyTable", [Column("note", DataType.TEXT)])
    )
    db.insert("items", [[n, f"label{n}"] for n in range(9)])
    return Dataset("scratch", db, "staleness fixture")


def _assert_fresh(dataset: Dataset) -> None:
    for sample_rows in (6, 6, 2):
        expected = Dataset(
            dataset.name, dataset.db, dataset.description
        ).prompt_schema(sample_rows=sample_rows)
        assert expected == ref_prompt_schema(dataset, sample_rows)
        assert dataset.prompt_schema(sample_rows=sample_rows) == expected


def test_prompt_schema_follows_writes_and_ddl():
    dataset = _scratch_dataset()
    db = dataset.db
    _assert_fresh(dataset)
    db.execute("INSERT INTO emptyTable VALUES ('first')")
    _assert_fresh(dataset)
    assert "--   first" in dataset.prompt_schema()
    db.execute("UPDATE items SET label = 'changed' WHERE id = 4")
    _assert_fresh(dataset)
    assert "4 | changed" in dataset.prompt_schema()
    db.execute("DELETE FROM items WHERE id = 0")
    _assert_fresh(dataset)
    assert "--   0 | label0" not in dataset.prompt_schema()
    db.create_table(
        TableSchema("later", [Column("x", DataType.INTEGER)])
    )
    _assert_fresh(dataset)
    assert "CREATE TABLE later" in dataset.prompt_schema()
    db.drop_table("emptyTable")
    _assert_fresh(dataset)
    assert "emptyTable" not in dataset.prompt_schema()
    # A table dropped and re-created under its old name is a new table.
    db.drop_table("later")
    db.create_table(TableSchema("later", [Column("y", DataType.TEXT)]))
    db.insert("later", [["z"]])
    _assert_fresh(dataset)
    # Writes that reach the table without going through SQL.
    db.table("items").insert([100, "direct"])
    db.table("items").update_rows([(0, [1, "rewritten"])])
    _assert_fresh(dataset)
    assert "rewritten" in dataset.prompt_schema()


# ---------------------------------------------------------------------------
# (b) embeddings, bit for bit
# ---------------------------------------------------------------------------

_SHAPES = [(8, True), (8, False), (256, True), (256, False)]


@settings(max_examples=60, deadline=None)
@given(st.text(max_size=60))
@example("")
@example("?! ... ;;")
@example("ab")
@example("naïve café — 東京 ｆｕｌｌ ß İstanbul")
@example("The quick brown fox " * 512)  # 10 kB
def test_embed_equals_reference(text):
    for dimensions, use_trigrams in _SHAPES:
        embedder = HashingEmbedder(dimensions, use_trigrams)
        assert np.array_equal(
            embedder.embed(text), ref_embed(text, dimensions, use_trigrams)
        )


def test_dimensions_do_not_share_buckets():
    features = ["w:circuit", "t: ci", "degenerate:", "w:", "t:é  "]
    for _ in range(2):
        for dimensions in (8, 256, 8, 1024):
            for feature in features:
                assert hashing._bucket(feature, dimensions) == ref_bucket(
                    feature, dimensions
                )
    text = "Sepang International Circuit, Kuala Lumpur"
    small, large = HashingEmbedder(8), HashingEmbedder(256)
    for embedder in (small, large, small, large):
        assert np.array_equal(
            embedder.embed(text),
            ref_embed(text, embedder.dimensions, True),
        )
    batch = large.embed_batch([text, "", text])
    assert np.array_equal(batch[0], batch[2])
    assert np.array_equal(batch[1], ref_embed("", 256, True))


# ---------------------------------------------------------------------------
# (c) retrieval: same ids and scores whoever asks first
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def retrieval_reference(datasets):
    dataset = datasets["codebase_community"]
    embedder = HashingEmbedder()
    return {
        k: RefVectorSearchExecutor(dataset, embedder, k=k)
        for k in (10, 30)
    }


@pytest.mark.parametrize("order", [("RAG", "rerank"), ("rerank", "RAG")])
def test_shared_retrieval_equals_private_executors(
    order, datasets, suite, retrieval_reference, monkeypatch
):
    dataset = datasets["codebase_community"]
    specs = [s for s in suite if s.domain == dataset.name][:6]
    searches: list[tuple[int, np.ndarray, np.ndarray]] = []
    real_search = FlatIndex.search

    def spy(self, query, k):
        ids, scores = real_search(self, query, k)
        searches.append((k, ids, scores))
        return ids, scores

    monkeypatch.setattr(FlatIndex, "search", spy)
    methods = default_methods(_fresh_lm)
    rag, rerank = methods[1], methods[2]
    assert (rag.name, rerank.name) == ("RAG", "Retrieval + LM Rank")
    by_label = {"RAG": rag, "rerank": rerank}
    depth = {"RAG": 10, "rerank": 30}
    embedder = HashingEmbedder()
    for spec in specs:
        query = embedder.embed(spec.question)
        for label in order:
            before = len(searches)
            result = by_label[label].answer(spec, dataset)
            assert result.ok, result.error
            (k, ids, scores), = searches[before:]
            want_ids, want_scores, _ = retrieval_reference[
                depth[label]
            ].search(query)
            assert k == depth[label]
            assert np.array_equal(ids, want_ids)
            assert np.array_equal(scores, want_scores)


def test_methods_answer_as_with_private_executors(datasets, suite):
    """End to end: RAG and rerank from ``default_methods`` answer, and
    charge, exactly what two separately built methods do."""
    from repro.methods import RAGMethod, RetrievalRerankMethod

    dataset = datasets["codebase_community"]
    specs = [s for s in suite if s.domain == dataset.name][:6]
    methods = default_methods(_fresh_lm)
    private = [RAGMethod(_fresh_lm()), RetrievalRerankMethod(_fresh_lm())]
    for spec in specs:
        for shared, own in zip((methods[2], methods[1]), private[::-1]):
            got, want = shared.answer(spec, dataset), own.answer(spec, dataset)
            assert (got.answer, got.error, got.et_seconds) == (
                want.answer,
                want.error,
                want.et_seconds,
            )
            assert got.diagnostics == want.diagnostics
