"""How the simulated model reads an answer prompt and a Text2SQL prompt,
pinned against frozen copies.

``_parse_data_points``, the ``^Question: (.*)\\Z`` read, the row test
``_record_satisfies`` (with the three answers that call it), the
Text2SQL handler's ``_parse_question`` and
``_parse_external_knowledge_line`` are copied below exactly as they
stood when this file was written.  They are what the handlers get
rewritten from, so ``repro.lm.handlers`` cannot be its own oracle.  The
answers that do not call the row test (ranking, semantic superlative,
free-form) and the helpers no rewrite touches are the live ones.

Every test asks both sides about the same prompt and requires the same
answer (or the same exception) and the same parse:

- every answer and Text2SQL prompt the five ``default_methods`` send
  over the 80 suite questions, and a ``TagServer`` replay of the 80
  requests, recorded at LM seeds 0 and 7, and the Text2SQL prompts
  that carry the suite's External Knowledge hints;
- generated prompts whose lines are the awkward cases of the
  ``- key: value`` rule (line breaks ``str.splitlines`` honours and
  ``^`` does not, ``: `` inside a value, padded and non-ASCII-digit
  ``Data Point`` lines, malformed field lines, duplicate keys, a
  ``Question:`` line inside the data, no question at all);
- generated rows under questions that reach each row-test branch.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.external_knowledge import oracle_external_knowledge
from repro.core import (
    LMQuerySynthesizer,
    SingleCallGenerator,
    SQLExecutor,
    TAGPipeline,
)
from repro.lm import LMConfig, SimulatedLM, prompts, schema_semantics
from repro.lm.concepts import noisy_threshold
from repro.lm.handlers import answer, text2sql
from repro.lm.router import HandlerContext
from repro.methods import default_methods
from repro.serve import TagServer
from repro.text.sarcasm import sarcasm_score
from repro.text.sentiment import sentiment_score
from repro.text.technicality import technicality_score

# ---------------------------------------------------------------------------
# The frozen reference (verbatim copies; do not "tidy")
# ---------------------------------------------------------------------------

_DATA_POINT_RE = re.compile(
    r"^Data Point (\d+):$", re.MULTILINE
)
_FIELD_RE = re.compile(r"^- ([^:]+): (.*)$")
_QUESTION_RE = re.compile(r"^Question: (.*)\Z", re.MULTILINE | re.DOTALL)
_GT_RE = re.compile(
    r"(?:over|above|more than|greater than|at least) (\d+(?:\.\d+)?)",
    re.IGNORECASE,
)
_LT_RE = re.compile(
    r"(?:under|below|less than|fewer than|at most) (\d+(?:\.\d+)?)",
    re.IGNORECASE,
)
_TALLER_RE = re.compile(
    r"\b(taller|shorter) than ([A-Z][A-Za-z.'-]*(?: [A-Z][A-Za-z.'-]*)*)"
)
_ORDER_OF_RE = re.compile(
    r"in order of (most |least )?(\w+)", re.IGNORECASE
)
_SUPERLATIVE_RE = re.compile(
    r"\b(highest|largest|greatest|biggest|maximum|lowest|smallest"
    r"|minimum|fewest)\b",
    re.IGNORECASE,
)
_SEMANTIC_SUPERLATIVE_RE = re.compile(
    r"\b(most|least) (technical|sarcastic|positive|negative)\b",
    re.IGNORECASE,
)
_SEMANTIC_JUDGMENTS = (
    ("positive", sentiment_score, 0.05),
    ("negative", lambda text: -sentiment_score(text), 0.05),
    ("sarcastic", sarcasm_score, 0.4),
    ("technical", technicality_score, 0.3),
)
_TEXT_KEY_PREFERENCE = ("text", "title", "review", "body", "comment")


def ref_answer_handle(prompt: str, context: HandlerContext) -> str:
    records = ref_parse_data_points(prompt)
    question = ref_question(prompt)
    if prompt.startswith(prompts.ANSWER_FREEFORM_HEADER):
        return answer._freeform_answer(question, records, context)
    return ref_list_answer(question, records, context)


def ref_question(prompt: str) -> str:
    question_match = _QUESTION_RE.search(prompt)
    question = (
        question_match.group(1).strip() if question_match else ""
    )
    return question


def ref_parse_data_points(prompt: str) -> list[dict[str, str]]:
    records: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for line in prompt.splitlines():
        if _DATA_POINT_RE.match(line.strip()):
            current = {}
            records.append(current)
            continue
        if line.startswith("Question:"):
            break
        field = _FIELD_RE.match(line)
        if field and current is not None:
            current[field.group(1).strip()] = field.group(2)
    return records


def ref_list_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    if not records:
        return "[]"
    lowered = question.lower()
    if "how many" in lowered:
        return ref_count_answer(question, records, context)
    order_match = _ORDER_OF_RE.search(question)
    if order_match is not None:
        return answer._ranking_answer(question, order_match, records, context)
    semantic_match = _SEMANTIC_SUPERLATIVE_RE.search(question)
    if semantic_match is not None:
        return answer._semantic_superlative_answer(
            question, semantic_match, records, context
        )
    if _SUPERLATIVE_RE.search(question) is not None:
        return ref_superlative_answer(question, records, context)
    return ref_lookup_answer(question, records, context)


def ref_count_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    matching = [
        record
        for record in records
        if ref_record_satisfies(question, record, context)
    ]
    count = len(matching)
    if len(records) > context.reliable_rows:
        overflow = len(records) - context.reliable_rows
        magnitude = 1 + overflow // 10
        sign = 1 if answer._unit(context.seed, question, "count") < 0.5 else -1
        count = max(0, count + sign * magnitude)
    return f"[{count}]"


def ref_record_satisfies(
    question: str, record: dict[str, str], context: HandlerContext
) -> bool:
    """Evaluate the question's parseable conditions against one row."""
    keys = list(record)
    for pattern, greater in ((_GT_RE, True), (_LT_RE, False)):
        for match in pattern.finditer(question):
            phrase = ref_preceding_phrase(question, match.start())
            key = schema_semantics.match_record_key(phrase, keys)
            if key is None:
                continue
            value = ref_as_float(record.get(key))
            if value is None:
                return False
            bound = float(match.group(1))
            if greater and not value > bound:
                return False
            if not greater and not value < bound:
                return False
    text_key = ref_text_key(keys)
    if text_key is not None:
        text = record.get(text_key, "")
        for keyword, scorer, threshold in _SEMANTIC_JUDGMENTS:
            if re.search(
                rf"\b{keyword}\b", question, re.IGNORECASE
            ) and not noisy_threshold(
                scorer(text), threshold, 0.05, context.seed,
                keyword + text,
            ):
                return False
    taller = _TALLER_RE.search(question)
    if taller is not None:
        reference = context.fuzzy.believed_height_cm(
            taller.group(2).strip().rstrip("?.")
        )
        key = schema_semantics.match_record_key("height", keys)
        if reference is not None and key is not None:
            value = ref_as_float(record.get(key))
            if value is None:
                return False
            if taller.group(1) == "taller" and not value > reference:
                return False
            if taller.group(1) == "shorter" and not value < reference:
                return False
    return True


def ref_text_key(keys: list[str]) -> str | None:
    """The record field most likely to hold free text."""
    for preference in _TEXT_KEY_PREFERENCE:
        for key in keys:
            if preference in key.lower():
                return key
    return None


def ref_superlative_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    match = _SUPERLATIVE_RE.search(question)
    assert match is not None
    keyword = match.group(1).lower()
    ascending = keyword in ("lowest", "smallest", "minimum", "fewest")
    keys = list(records[0])
    phrase = question[match.end() : match.end() + 40]
    sort_key_name = schema_semantics.match_record_key(phrase, keys)
    candidates = [
        record
        for record in records
        if ref_record_satisfies(question, record, context)
    ] or records
    if sort_key_name is not None:
        candidates = sorted(
            candidates,
            key=lambda record: ref_as_float(record.get(sort_key_name)) or 0.0,
            reverse=not ascending,
        )
    best = candidates[0]
    target_key = answer._answer_key(question, records)
    if target_key is None:
        target_key = keys[0]
    return answer._format_list([best.get(target_key, "")])


def ref_lookup_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    target_key = answer._answer_key(question, records)
    if target_key is None:
        return "[]"
    candidates = [
        record
        for record in records
        if ref_record_satisfies(question, record, context)
    ]
    if not candidates:
        return "[]"
    values = [record.get(target_key, "") for record in candidates]
    seen: set[str] = set()
    unique: list[str] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return answer._format_list(unique)


def ref_preceding_phrase(question: str, position: int) -> str:
    return question[max(0, position - 40) : position]


def ref_as_float(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def ref_text2sql_handle(prompt: str, context: HandlerContext) -> str:
    tables, fk_edges = text2sql._parse_schema(prompt)
    question = ref_parse_question(prompt)
    if question is None or not tables:
        return "SELECT 1"
    overrides = text2sql.parse_external_knowledge(
        ref_parse_external_knowledge_line(prompt)
    )
    return text2sql._synthesize(
        question, tables, fk_edges, context.fuzzy, overrides
    )


def ref_parse_external_knowledge_line(prompt: str) -> str:
    match = re.search(
        r"^-- External Knowledge: (.*)$", prompt, re.MULTILINE
    )
    if match is None:
        return ""
    text = match.group(1).strip()
    return "" if text == "None" else text


def ref_parse_question(prompt: str) -> str | None:
    lines = [line.strip() for line in prompt.splitlines()]
    question = None
    for line in lines:
        if line.startswith("--") and not line.startswith(
            ("-- External Knowledge", "-- Using valid SQLite")
        ):
            text = line[2:].strip()
            if text:
                question = text
    return question


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

ANSWER = answer.AnswerHandler()
TEXT2SQL = text2sql.Text2SQLHandler()


def context_for(seed: int) -> HandlerContext:
    lm = SimulatedLM(LMConfig(seed=seed))
    return HandlerContext(
        fuzzy=lm.fuzzy,
        kb=lm.kb,
        seed=lm.config.seed,
        reliable_rows=lm.config.reliable_rows,
    )


CONTEXTS = {seed: context_for(seed) for seed in (0, 7)}


def outcome(handle, prompt, context):
    try:
        return ("ok", handle(prompt, context))
    except Exception as exc:  # noqa: BLE001 - an error must match too
        return ("raised", type(exc).__name__, str(exc))


def answer_reads(prompt: str, context: HandlerContext):
    """The ``(question, records)`` ``AnswerHandler.handle`` hands on."""
    seen = []

    def spy(question, records, context):
        seen.append((question, records))
        return ""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(answer, "_list_answer", spy)
        patch.setattr(answer, "_freeform_answer", spy)
        ANSWER.handle(prompt, context)
    (read,) = seen
    return read


def text2sql_reads(prompt: str, context: HandlerContext):
    """What ``Text2SQLHandler.handle`` hands to synthesis, or None."""
    seen = []

    def spy(question, tables, fk_edges, fuzzy, overrides):
        seen.append((question, tables, fk_edges, overrides))
        return ""

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(text2sql, "_synthesize", spy)
        TEXT2SQL.handle(prompt, context)
    return seen[0] if seen else None


def ref_text2sql_reads(prompt: str):
    tables, fk_edges = text2sql._parse_schema(prompt)
    question = ref_parse_question(prompt)
    if question is None or not tables:
        return None
    overrides = text2sql.parse_external_knowledge(
        ref_parse_external_knowledge_line(prompt)
    )
    return question, tables, fk_edges, overrides


def assert_same_answer_reading(prompt, context) -> None:
    assert answer._parse_data_points(prompt) == ref_parse_data_points(prompt)
    assert answer_reads(prompt, context) == (
        ref_question(prompt),
        ref_parse_data_points(prompt),
    )


def assert_same_text2sql_reading(prompt, context) -> None:
    assert text2sql._parse_question(prompt) == ref_parse_question(prompt)
    assert text2sql._parse_external_knowledge_line(
        prompt
    ) == ref_parse_external_knowledge_line(prompt)
    assert text2sql_reads(prompt, context) == (
        ref_text2sql_reads(prompt)
    )


# ---------------------------------------------------------------------------
# (a) every prompt the methods and a served replay send
# ---------------------------------------------------------------------------


class RecordingLM(SimulatedLM):
    """A ``SimulatedLM`` that keeps every prompt it is sent."""

    def __init__(self, seed: int, asked: list[str]) -> None:
        super().__init__(LMConfig(seed=seed))
        self.asked = asked

    def complete(self, prompt, max_tokens=None):
        self.asked.append(prompt)
        return super().complete(prompt, max_tokens)

    def complete_batch(self, prompts, max_tokens=None):
        self.asked.extend(prompts)
        return super().complete_batch(prompts, max_tokens)


class DomainRouter:
    """One Text2SQL -> SQL (50 rows) -> answer pipeline per domain,
    each request sent to its question's."""

    def __init__(self, lm, datasets, domains) -> None:
        self._domains = domains
        self._pipelines = {
            name: TAGPipeline(
                LMQuerySynthesizer(lm, dataset, retrieval_mode=True),
                SQLExecutor(dataset.db, analyze=True, max_rows=50),
                SingleCallGenerator(lm),
            )
            for name, dataset in datasets.items()
        }

    def run(self, request: str):
        return self._pipelines[self._domains[request]].run(request)


@pytest.fixture(scope="module")
def sent(suite, datasets) -> dict[int, list[str]]:
    """Per LM seed, every distinct prompt sent, in first-sent order, and
    the Text2SQL prompts that carry the suite's External Knowledge."""
    by_seed = {}
    domains = {spec.question: spec.domain for spec in suite}
    for seed in CONTEXTS:
        asked: list[str] = []
        for method in default_methods(lambda: RecordingLM(seed, asked)):
            for spec in suite:
                method.answer(spec, datasets[spec.domain])
        server = TagServer(
            lambda lm: DomainRouter(lm, datasets, domains),
            RecordingLM(seed, asked),
            workers=2,
            window=8,
        )
        server.serve([spec.question for spec in suite])
        for spec in suite:
            knowledge = oracle_external_knowledge(spec.question)
            if knowledge is not None:
                asked.append(
                    prompts.text2sql_prompt(
                        datasets[spec.domain].prompt_schema(),
                        spec.question,
                        knowledge,
                    )
                )
        by_seed[seed] = list(dict.fromkeys(asked))
    return by_seed


def test_the_recorded_prompts_reach_every_reader(sent):
    for asked in sent.values():
        answers = [p for p in asked if ANSWER.matches(p)]
        queries = [p for p in asked if TEXT2SQL.matches(p)]
        assert len(answers) > 250 and len(queries) >= 80
        assert any(
            p.startswith(prompts.ANSWER_FREEFORM_HEADER) for p in answers
        )
        questions = [ref_question(p).lower() for p in answers]
        assert any("how many" in q for q in questions)
        assert any(_SUPERLATIVE_RE.search(q) for q in questions)
        assert any(_TALLER_RE.search(ref_question(p)) for p in answers)
        assert any(ref_parse_external_knowledge_line(p) for p in queries)
        # Retrieval-sized and SQL-capped contexts, past reliable_rows.
        assert max(len(ref_parse_data_points(p)) for p in answers) >= 50


@pytest.mark.parametrize("seed", sorted(CONTEXTS))
def test_answer_prompts(sent, seed):
    context = CONTEXTS[seed]
    for prompt in sent[seed]:
        if not ANSWER.matches(prompt):
            continue
        assert outcome(ANSWER.handle, prompt, context) == outcome(
            ref_answer_handle, prompt, context
        ), prompt[-300:]
        assert_same_answer_reading(prompt, context)


@pytest.mark.parametrize("seed", sorted(CONTEXTS))
def test_text2sql_prompts(sent, seed):
    context = CONTEXTS[seed]
    for prompt in sent[seed]:
        if not TEXT2SQL.matches(prompt):
            continue
        assert outcome(TEXT2SQL.handle, prompt, context) == outcome(
            ref_text2sql_handle, prompt, context
        ), prompt[-300:]
        assert_same_text2sql_reading(prompt, context)


@pytest.mark.parametrize("seed", sorted(CONTEXTS))
def test_every_sent_prompt_reads_the_same_lines(sent, seed):
    """The line readers on prompts of every kind, not only their own."""
    for prompt in sent[seed]:
        assert answer._parse_data_points(prompt) == ref_parse_data_points(
            prompt
        )
        assert text2sql._parse_question(prompt) == ref_parse_question(prompt)
        assert text2sql._parse_external_knowledge_line(
            prompt
        ) == ref_parse_external_knowledge_line(prompt)


# ---------------------------------------------------------------------------
# (b) awkward lines
# ---------------------------------------------------------------------------

#: Characters ``str.splitlines`` breaks at although ``^``/``$`` under
#: MULTILINE and ``.`` do not, and the separators of the format.
AWKWARD = ["\r", "\x0b", "\x85", "\u2028", ": ", ":", " ", "-", "\t", "\n"]

pieces = st.one_of(
    st.sampled_from(AWKWARD),
    st.sampled_from(["a", "b", "Score", "Text", "7", "Question: q"]),
    st.text(max_size=3),
)
fragment = st.lists(pieces, max_size=4).map("".join)

#: Digits ``\d`` takes that are not ASCII (Arabic-Indic three,
#: fullwidth seven, Devanagari one).
DIGITS = st.sampled_from(["1", "12", "\u0663", "\uff17", "\u0967", "1\u0663"])

data_point_lines = st.builds(
    lambda pad, digits, tail: f"{pad}Data Point {digits}:{tail}",
    st.sampled_from(["", " ", "\t", "  \x0c"]),
    DIGITS,
    st.sampled_from(["", " ", "\t", ":", " x"]),
)
field_lines = st.builds(
    lambda key, value: f"- {key}: {value}", fragment, fragment
)
LITERAL_LINES = [
    "- :x", "-  a: b", "- a:b: c", "- a:", "- a: ", "- a: b", "- a: c",
    "-  : x", "- a :b", "-a: b", "- ", "-", "", " ", "Question: inside",
    "Question:", "Question:x", " Question: padded", "Data Point 1",
    "Data Point :", "Data Point 1: x",
]  # fmt: skip
lines = st.one_of(
    data_point_lines,
    field_lines,
    st.sampled_from(LITERAL_LINES),
    st.text(max_size=12),
)
separators = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x85", "\u2028"])


@st.composite
def answer_prompts(draw) -> str:
    body = ""
    for line in draw(st.lists(lines, max_size=12)):
        body += line + draw(separators)
    head = draw(
        st.sampled_from(
            [
                prompts.ANSWER_LIST_HEADER + "\n\n",
                prompts.ANSWER_FREEFORM_HEADER + "\n\n",
                "",
            ]
        )
    )
    tail = draw(
        st.one_of(
            st.just(""),
            st.builds(
                lambda sep, question: f"{sep}Question: {question}",
                st.sampled_from(["\n", "\n\n", "\r", "\x85", ""]),
                fragment,
            ),
        )
    )
    return head + body + tail


ANSWER_EXAMPLES = [
    prompts.answer_prompt("What is x?", [{"a": "1\rQuestion: no"}]),
    prompts.answer_prompt("What is x?", [{"a": "v\x85- b: 2"}]),
    prompts.answer_prompt("What is x?", [{"a": "v\u2028Data Point 9:"}]),
    prompts.answer_prompt("q", [{"a": "x\nQuestion: early"}, {"a": "2"}]),
    prompts.answer_prompt("q", [{"a": "1", "b": "2"}, {"a": "3"}]),
    prompts.answer_prompt("What is the highest score?", [{"a:b": 3}]),
    prompts.answer_prompt("How many?", [{"a": "x: y"}, {"a": ""}]),
    prompts.ANSWER_LIST_HEADER + "\n\nData Point 1:\n- a: 1\n- a: 2",
    prompts.ANSWER_LIST_HEADER + "\n\n  Data Point \u0663:  \n- a: 1",
    prompts.ANSWER_LIST_HEADER + "\n\nQuestion: first\nQuestion: second",
    prompts.ANSWER_LIST_HEADER + "\nQuestion:  \n\nQuestion: second ",
    "Question: at the start\n\nData Point 1:\n- a: 1\nQuestion: later",
    "Question: ",
    "",
]


@settings(max_examples=400, deadline=None)
@given(prompt=answer_prompts(), seed=st.sampled_from(sorted(CONTEXTS)))
@example(prompt=ANSWER_EXAMPLES[0], seed=0)
def test_answer_prompt_lines(prompt, seed):
    assert_same_answer_reading(prompt, CONTEXTS[seed])


@pytest.mark.parametrize("prompt", ANSWER_EXAMPLES, ids=repr)
def test_answer_prompt_examples(prompt):
    for context in CONTEXTS.values():
        assert_same_answer_reading(prompt, context)


XK = "-- External Knowledge: "
SCHEMA = "CREATE TABLE t (\n  a INTEGER,\n  b TEXT\n)"
text2sql_lines = st.one_of(
    st.builds(lambda text: XK + text, fragment),
    st.builds(lambda text: "--" + text, fragment),
    st.builds(
        lambda pad, text: pad + "-- " + text,
        st.sampled_from([" ", "\t", "\x0c"]),
        fragment,
    ),
    st.sampled_from(
        [
            prompts.TEXT2SQL_INSTRUCTION, "--", "-- ", "--  \t", XK,
            XK + "None", XK + " None ", "-- External Knowledge:x",
            "--External Knowledge: y", "-- Using valid SQLite", "SELECT",
            SCHEMA, "", "-- q?",
        ]
    ),  # fmt: skip
    st.text(max_size=12),
)


@st.composite
def text2sql_prompts(draw) -> str:
    body = ""
    for line in draw(st.lists(text2sql_lines, max_size=10)):
        body += line + draw(separators)
    return draw(st.sampled_from(["", SCHEMA + "\n\n"])) + body


TEXT2SQL_EXAMPLES = [
    prompts.text2sql_prompt(SCHEMA, "How many rows?"),
    prompts.text2sql_prompt(SCHEMA, "q", "Bay Area cities are: A, B."),
    prompts.text2sql_prompt(SCHEMA, "q\x85-- other", "x\ry"),
    prompts.text2sql_prompt(SCHEMA, "q\u2028--", "None"),
    prompts.repair_prompt(SCHEMA, "q?", "SELECT z", "ANA001 no z", "k"),
    XK + "first\n" + XK + "second\n-- q",
    "-- q\n" + XK + "x",
    SCHEMA + "\n" + XK + "\n--   \n-- last one \n--\nSELECT",
    "",
]


@settings(max_examples=400, deadline=None)
@given(prompt=text2sql_prompts(), seed=st.sampled_from(sorted(CONTEXTS)))
def test_text2sql_prompt_lines(prompt, seed):
    assert_same_text2sql_reading(prompt, CONTEXTS[seed])
    assert outcome(TEXT2SQL.handle, prompt, CONTEXTS[seed]) == outcome(
        ref_text2sql_handle, prompt, CONTEXTS[seed]
    )


@pytest.mark.parametrize("prompt", TEXT2SQL_EXAMPLES, ids=repr)
def test_text2sql_prompt_examples(prompt):
    for context in CONTEXTS.values():
        assert_same_text2sql_reading(prompt, context)
        assert outcome(TEXT2SQL.handle, prompt, context) == outcome(
            ref_text2sql_handle, prompt, context
        )


# ---------------------------------------------------------------------------
# (c) the row test, per question and per key tuple
# ---------------------------------------------------------------------------

#: Questions that reach the count, superlative and lookup answers with
#: bounds (numbers the key match finds and misses), the four judgment
#: keywords and a height reference the model knows or does not.
QUESTIONS = [
    "How many schools have an enrollment over 500?",
    "How many schools have more than 100 test takers and a score under 600?",
    "How many comments are positive?",
    "How many posts are technical and not sarcastic, with score at least 2?",
    "How many players are taller than Stephen Curry?",
    "How many players are shorter than Lionel Messi and weight below 80.5?",
    "How many players are taller than Nobody Known?",
    "What is the highest score of posts with more than 10 views?",
    "What is the lowest height of players taller than Stephen Curry?",
    "Which comment has the largest score among the negative ones?",
    "What is the name of the school with enrollment above 1000?",
    "What are the titles of positive posts with score greater than 3?",
    "List the names of players taller than Lionel Messi.",
    "What is the text of the sarcastic comments?",
    "Which schools have enrollment over \u0663\u0660?",
    "What is the highest score?",
]
KEYS = [
    "score", "Score", "Text", "Title", "height", "weight", "name",
    "enrollment", "views", "test takers", "City",
]  # fmt: skip
VALUES = st.one_of(
    st.sampled_from(
        ["", "0", "3", "12.5", "601", "1000", "180.3", "-2", "nan", "inf",
         "x", "Great answer, thanks!", "Oh great, another bug.",
         "Eigenvalue covariance shrinkage", "0012"]
    ),  # fmt: skip
    st.integers(min_value=-5, max_value=2_000).map(str),
    st.floats(min_value=100, max_value=250).map(lambda x: f"{x:.1f}"),
)
rows = st.lists(
    st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=4),
    min_size=1,
    max_size=16,
)


@settings(max_examples=400, deadline=None)
@given(
    question=st.sampled_from(QUESTIONS),
    records=rows,
    seed=st.sampled_from(sorted(CONTEXTS)),
    aggregation=st.booleans(),
)
@example(
    question=QUESTIONS[4],
    records=[{"height": "200.0", "name": "a"}, {"name": "b"}],
    seed=0,
    aggregation=False,
)
def test_row_conditions(question, records, seed, aggregation):
    """Where the reference answers, the handler gives the same answer.

    (A first row with no fields makes the reference's superlative
    answer raise ``IndexError``; such rows are left out here.)
    """
    prompt = prompts.answer_prompt(question, records, aggregation)
    context = CONTEXTS[seed]
    want = outcome(ref_answer_handle, prompt, context)
    if want[0] == "raised":
        assert want[1] == "IndexError" and not records[0]
        return
    assert outcome(ANSWER.handle, prompt, context) == want
