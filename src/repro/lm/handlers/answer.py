"""The answer-generation capability: QA over serialized data points.

This is what the RAG and Text2SQL+LM baselines exercise in their final
step (paper Appendix B.2): rows are serialized "- col: val" into the
prompt and the model must answer from them.  The handler mirrors real
LM behaviour:

- **point lookups** over a few rows work: find the row, read the value;
- **exact computation** (counting, comparisons) over many in-context
  rows is unreliable — beyond ``reliable_rows`` the count drifts by a
  seeded error, the long-context weakness the paper cites for why RAG
  cannot replace the database's exact computation;
- **semantic ordering** uses the text scorers, like any LM judgment;
- with **no data points** (or irrelevant ones), the model falls back to
  parametric knowledge, exactly the Text2SQL+LM behaviour shown for the
  Sepang query in Figure 2.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Callable

from repro.lm import prompts, schema_semantics
from repro.lm.concepts import noisy_threshold
from repro.lm.concepts import score as criterion_score
from repro.lm.router import HandlerContext
from repro.text.sarcasm import sarcasm_score
from repro.text.sentiment import sentiment_score
from repro.text.summarize import summarize_items
from repro.text.technicality import technicality_score

_DATA_POINT_RE = re.compile(
    r"^Data Point (\d+):$", re.MULTILINE
)
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
_COUNT_REQUEST_RE = re.compile(
    r"\btop (\d+)\b|\bthe (\d+) most\b|\b(\d+) most\b|\bthe (\d+) least\b",
    re.IGNORECASE,
)

#: (keyword, scorer, threshold) for in-context semantic judgments; the
#: thresholds mirror repro.lm.concepts so the model is self-consistent.
_SEMANTIC_JUDGMENTS = (
    ("positive", sentiment_score, 0.05),
    ("negative", lambda text: -sentiment_score(text), 0.05),
    ("sarcastic", sarcasm_score, 0.4),
    ("technical", technicality_score, 0.3),
)
_TEXT_KEY_PREFERENCE = ("text", "title", "review", "body", "comment")


class AnswerHandler:
    def matches(self, prompt: str) -> bool:
        return prompt.startswith(
            (prompts.ANSWER_LIST_HEADER, prompts.ANSWER_FREEFORM_HEADER)
        )

    def handle(self, prompt: str, context: HandlerContext) -> str:
        records = _parse_data_points(prompt)
        # The rest of the prompt after the first line that starts
        # "Question: " (a line starts after "\n" only).
        if prompt.startswith("Question: "):
            question = prompt[10:].strip()
        else:
            at = prompt.find("\nQuestion: ")
            question = prompt[at + 11 :].strip() if at >= 0 else ""
        if prompt.startswith(prompts.ANSWER_FREEFORM_HEADER):
            return _freeform_answer(question, records, context)
        return _list_answer(question, records, context)


def _parse_data_points(prompt: str) -> list[dict[str, str]]:
    """The ``Data Point N:`` rows up to the first ``Question:`` line.

    A field line is ``- key: value`` with a non-empty key up to the
    first colon and a space after it (what ``^- ([^:]+): (.*)$``
    accepts), so one ``partition`` decides it.
    """
    records: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for line in prompt.splitlines():
        if line.startswith("- "):
            key, _, value = line[2:].partition(":")
            if key and value.startswith(" ") and current is not None:
                current[key.strip()] = value[1:]
        elif _DATA_POINT_RE.match(line.strip()):
            current = {}
            records.append(current)
        elif line.startswith("Question:"):
            break
    return records


# ---------------------------------------------------------------------------
# free-form (aggregation) answers
# ---------------------------------------------------------------------------


def _freeform_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    if not records:
        return _parametric_answer(question, context)
    lines = [
        "; ".join(f"{key}: {value}" for key, value in record.items())
        for record in records
    ]
    if len(records) <= context.reliable_rows:
        body = " ".join(
            line if line.endswith(".") else line + "." for line in lines
        )
        return (
            "Based on the given data points, the following information "
            f"is available: {body}"
        )
    summary = summarize_items(lines, max_sentences=6)
    return (
        "Based on the given data points, the following information is "
        f"available: {summary}"
    )


def _parametric_answer(question: str, context: HandlerContext) -> str:
    """No usable rows: answer from (fuzzy) parametric knowledge."""
    for fact in context.kb.facts_for_relation("grand_prix_name"):
        circuit = str(fact.subject)
        if circuit.lower() in question.lower():
            years = context.fuzzy.believed_race_years(circuit)
            gp_name = context.fuzzy.believe(
                "grand_prix_name", circuit, "a Grand Prix"
            )
            location = context.fuzzy.believe(
                "circuit_location", circuit, "an unknown location"
            )
            if years:
                return (
                    "The data points provided do not contain specific "
                    f"information about {circuit}. However, based on "
                    f"general knowledge, {circuit} is located in "
                    f"{location} and hosted the {gp_name} from "
                    f"{min(years)} to {max(years)}."
                )
    return (
        "The data points provided do not contain the information "
        "needed to answer the question."
    )


# ---------------------------------------------------------------------------
# list-format answers
# ---------------------------------------------------------------------------


def _list_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    if not records:
        return "[]"
    lowered = question.lower()
    if "how many" in lowered:
        return _count_answer(question, records, context)
    order_match = _ORDER_OF_RE.search(question)
    if order_match is not None:
        return _ranking_answer(question, order_match, records, context)
    semantic_match = _SEMANTIC_SUPERLATIVE_RE.search(question)
    if semantic_match is not None:
        return _semantic_superlative_answer(
            question, semantic_match, records, context
        )
    if _SUPERLATIVE_RE.search(question) is not None:
        return _superlative_answer(question, records, context)
    return _lookup_answer(question, records, context)


def _count_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    count = sum(map(_row_test(question, context), records))
    if len(records) > context.reliable_rows:
        # Long-context arithmetic drift: deterministic signed error
        # whose magnitude grows with how far past the reliable window
        # the context extends.
        overflow = len(records) - context.reliable_rows
        magnitude = 1 + overflow // 10
        sign = 1 if _unit(context.seed, question, "count") < 0.5 else -1
        count = max(0, count + sign * magnitude)
    return f"[{count}]"


def _row_test(
    question: str, context: HandlerContext
) -> Callable[[dict[str, str]], bool]:
    """The question's parseable conditions as one test of a row.

    The bounds, the judgment keywords and the height reference depend
    on the question only, so they are read here once; the record keys
    they name are resolved once per distinct key tuple.  A row then
    costs dict reads and float tests, made in the order (and failing
    at the first false one) of the checks they stand for.
    """
    bounds = [
        (
            _preceding_phrase(question, match.start()),
            greater,
            float(match.group(1)),
        )
        for pattern, greater in ((_GT_RE, True), (_LT_RE, False))
        for match in pattern.finditer(question)
    ]
    judgments = [
        (keyword, scorer, threshold)
        for keyword, scorer, threshold in _SEMANTIC_JUDGMENTS
        if re.search(rf"\b{keyword}\b", question, re.IGNORECASE)
    ]
    taller = _TALLER_RE.search(question)
    reference = None
    if taller is not None:
        reference = context.fuzzy.believed_height_cm(
            taller.group(2).strip().rstrip("?.")
        )
    above = taller is not None and taller.group(1) == "taller"
    resolved: dict[tuple[str, ...], tuple] = {}

    def satisfies(record: dict[str, str]) -> bool:
        keys = tuple(record)
        found = resolved.get(keys)
        if found is None:
            names = list(keys)
            checks = []
            for phrase, greater, bound in bounds:
                key = schema_semantics.match_record_key(phrase, names)
                if key is not None:
                    checks.append((key, greater, bound))
            found = resolved[keys] = (
                checks,
                _text_key(names) if judgments else None,
                schema_semantics.match_record_key("height", names)
                if reference is not None
                else None,
            )
        checks, text_key, height_key = found
        for key, greater, bound in checks:
            value = _as_float(record[key])
            if value is None or not (
                value > bound if greater else value < bound
            ):
                return False
        if text_key is not None:
            text = record[text_key]
            for keyword, scorer, threshold in judgments:
                if not noisy_threshold(
                    scorer(text), threshold, 0.05, context.seed,
                    keyword + text,
                ):
                    return False
        if height_key is not None:
            value = _as_float(record[height_key])
            if value is None or not (
                value > reference if above else value < reference
            ):
                return False
        return True

    return satisfies


def _ranking_answer(
    question: str,
    order_match: re.Match[str],
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    criterion = order_match.group(2)
    ascending = (order_match.group(1) or "most ").strip() == "least"
    target_key = _answer_key(question, records)
    if target_key is None:
        return "[]"
    scored = [
        (
            criterion_score(
                criterion, record.get(target_key, ""), context.seed
            ),
            record.get(target_key, ""),
        )
        for record in records
    ]
    scored.sort(key=lambda pair: pair[0], reverse=not ascending)
    values = [value for _, value in scored]
    count_match = re.search(
        r"\btop (\d+)\b|\bthe (\d+) most\b|\b(\d+) most\b",
        question,
        re.IGNORECASE,
    )
    if count_match is not None:
        requested = int(next(filter(None, count_match.groups())))
        values = values[:requested]
    return _format_list(values)


def _text_key(keys: list[str]) -> str | None:
    """The record field most likely to hold free text."""
    for preference in _TEXT_KEY_PREFERENCE:
        for key in keys:
            if preference in key.lower():
                return key
    return None


def _semantic_superlative_answer(
    question: str,
    match: re.Match[str],
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    """'most sarcastic' / 'least technical' picks over the rows."""
    ascending = match.group(1).lower() == "least"
    criterion = match.group(2)
    keys = list(records[0])
    text_key = _text_key(keys)
    if text_key is None:
        return "[]"
    scored = sorted(
        records,
        key=lambda record: criterion_score(
            criterion, record.get(text_key, ""), context.seed
        ),
        reverse=not ascending,
    )
    requested = 1
    count_match = _COUNT_REQUEST_RE.search(question)
    if count_match is not None:
        requested = int(next(filter(None, count_match.groups())))
    target_key = _answer_key(question, records) or text_key
    values = [record.get(target_key, "") for record in scored[:requested]]
    return _format_list(values)


def _superlative_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    match = _SUPERLATIVE_RE.search(question)
    assert match is not None
    keyword = match.group(1).lower()
    ascending = keyword in ("lowest", "smallest", "minimum", "fewest")
    target_key = _answer_key(question, records)
    if target_key is None:  # the first row has no fields
        return "[]"
    phrase = question[match.end() : match.end() + 40]
    sort_key_name = schema_semantics.match_record_key(
        phrase, list(records[0])
    )
    candidates = (
        list(filter(_row_test(question, context), records)) or records
    )
    if sort_key_name is not None:
        candidates = sorted(
            candidates,
            key=lambda record: _as_float(record.get(sort_key_name)) or 0.0,
            reverse=not ascending,
        )
    return _format_list([candidates[0].get(target_key, "")])


def _lookup_answer(
    question: str,
    records: list[dict[str, str]],
    context: HandlerContext,
) -> str:
    target_key = _answer_key(question, records)
    if target_key is None:
        return "[]"
    candidates = list(filter(_row_test(question, context), records))
    if not candidates:
        return "[]"
    values = [record.get(target_key, "") for record in candidates]
    seen: set[str] = set()
    unique: list[str] = []
    for value in values:
        if value not in seen:
            seen.add(value)
            unique.append(value)
    return _format_list(unique)


def _answer_key(
    question: str, records: list[dict[str, str]]
) -> str | None:
    """Which record field the question asks for."""
    keys = list(records[0])
    match = re.search(
        r"(?:what (?:is|are) the|list (?:the |their )?)([\w ()-]{3,40}?)"
        r"(?: of| in| for| offered| with|\?|$)",
        question,
        re.IGNORECASE,
    )
    if match is not None:
        key = schema_semantics.match_record_key(match.group(1), keys)
        if key is not None:
            return key
    for phrase in re.findall(r"[A-Za-z ]{4,}", question):
        key = schema_semantics.match_record_key(phrase.strip(), keys)
        if key is not None:
            return key
    return keys[0] if keys else None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _preceding_phrase(question: str, position: int) -> str:
    return question[max(0, position - 40) : position]


def _as_float(value: str | None) -> float | None:
    if value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def _format_list(values: list[str]) -> str:
    rendered: list[str] = []
    for value in values:
        as_number = _as_float(value)
        if as_number is not None and not value.strip().startswith("0"):
            rendered.append(value.strip())
        else:
            escaped = value.replace('"', '\\"')
            rendered.append(f'"{escaped}"')
    return "[" + ", ".join(rendered) + "]"


def _unit(seed: int, *parts: str) -> float:
    key = "|".join((str(seed),) + parts)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64
