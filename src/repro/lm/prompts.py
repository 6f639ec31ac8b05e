"""Canonical prompt templates.

Pipelines talk to the simulated LM through these builders, and the
prompt router recognises prompts by their headers.  The answer-generation
and query-synthesis formats reproduce the paper's Appendix B verbatim
(BIRD schema encoding for Text2SQL; "Data Point N" serialization for
generation); the judgment/scoring/comparison formats are the operator
prompts a LOTUS-style runtime issues.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

JUDGMENT_HEADER = (
    "Decide whether the statement is true. "
    "Answer exactly 'yes' or 'no'."
)
SCORING_HEADER = (
    "Rate how well the item matches the criterion. "
    "Respond with a single number between 0.0 and 1.0."
)
RELEVANCE_HEADER = (
    "Rate the relevance of the document to the query. "
    "Respond with a single number between 0.0 and 1.0."
)
COMPARISON_HEADER = (
    "Given two items, decide which one better matches the criterion. "
    "Answer exactly 'A' or 'B'."
)
SUMMARY_HEADER = (
    "Summarize the following items to answer the instruction. "
    "Be faithful to the items."
)
ANSWER_LIST_HEADER = (
    "You will be given a list of data points and a question. Use the "
    "data points to answer the question. Your answer must be a list of "
    "values that is evaluatable in Python. Respond in the format "
    "[value1, value2, ..., valueN]. If you are unable to answer the "
    "question, respond with []. Respond with only the list of values "
    "and nothing else. If a value is a string, it must be enclosed in "
    "double quotes."
)
ANSWER_FREEFORM_HEADER = (
    "You will be given a list of data points and a question. Use the "
    "data points to answer the question. If a value is a string, it "
    "must be enclosed in double quotes."
)
TEXT2SQL_INSTRUCTION = (
    "-- Using valid SQLite and understading External Knowledge, answer "
    "the following questions for the tables provided above."
)
REPAIR_INSTRUCTION = (
    "-- The SQL above failed against the tables provided. Using the "
    "diagnostics, write a corrected SQLite query that answers the "
    "question below."
)


def judgment_prompt(condition: str) -> str:
    """Boolean judgment of a filled-in condition."""
    return f"{JUDGMENT_HEADER}\nStatement: {condition}"


def scoring_prompt(criterion: str, item: str) -> str:
    """Graded 0-1 judgment of an item against a criterion."""
    return f"{SCORING_HEADER}\nCriterion: {criterion}\nItem: {item}"


def relevance_prompt(query: str, document: str) -> str:
    """Relevance of a document to a query (reranking)."""
    return f"{RELEVANCE_HEADER}\nQuery: {query}\nDocument: {document}"


def comparison_prompt(criterion: str, left: str, right: str) -> str:
    """Pairwise A/B comparison on a criterion."""
    return (
        f"{COMPARISON_HEADER}\nCriterion: {criterion}\n"
        f"A: {left}\nB: {right}"
    )


def summary_prompt(instruction: str, items: Sequence[str]) -> str:
    """Summarise numbered items under an instruction."""
    numbered = "\n".join(
        f"Item {position + 1}: {item}"
        for position, item in enumerate(items)
    )
    return f"{SUMMARY_HEADER}\nInstruction: {instruction}\n{numbered}"


def serialize_data_point(index: int, record: Mapping[str, object]) -> str:
    """One row in the paper's "- col: val" encoding."""
    lines = [f"Data Point {index}:"]
    lines.extend(f"- {key}: {value}" for key, value in record.items())
    return "\n".join(lines)


def answer_prompt(
    question: str,
    records: Sequence[Mapping[str, object]],
    aggregation: bool = False,
) -> str:
    """Answer-generation prompt (paper Appendix B.2)."""
    header = ANSWER_FREEFORM_HEADER if aggregation else ANSWER_LIST_HEADER
    points = "\n\n".join(
        serialize_data_point(index + 1, record)
        for index, record in enumerate(records)
    )
    return f"{header}\n\n{points}\n\nQuestion: {question}"


def text2sql_prompt(
    schema_sql: str,
    question: str,
    external_knowledge: str | None = None,
) -> str:
    """Query-synthesis prompt in the BIRD format (paper Appendix B.1)."""
    knowledge = external_knowledge or "None"
    return (
        f"{schema_sql}\n\n"
        f"-- External Knowledge: {knowledge}\n"
        f"{TEXT2SQL_INSTRUCTION}\n"
        f"-- {question}\n"
        f"SELECT"
    )


def repair_prompt(
    schema_sql: str,
    question: str,
    failed_sql: str,
    diagnostics: str,
    external_knowledge: str | None = None,
    attempt: int = 1,
) -> str:
    """SQL-repair prompt: the BIRD schema plus the failed attempt.

    Extends the Text2SQL format with the SQL that failed and the
    analyzer/engine diagnostics describing why, so the model can
    correct rather than regenerate blindly.  The failed SQL and
    diagnostics are flattened to single ``--`` comment lines to keep
    the BIRD line-oriented structure parseable by the prompt router.
    ``attempt`` (1-based) is embedded so consecutive repairs of the
    same failed SQL are distinct prompts — a later attempt is never
    served a stale response by a prompt cache, and fault draws advance
    naturally.
    """
    knowledge = external_knowledge or "None"
    flat_sql = " ".join(failed_sql.split()) or "<empty>"
    flat_diag = " ".join(diagnostics.split()) or "unknown failure"
    return (
        f"{schema_sql}\n\n"
        f"-- External Knowledge: {knowledge}\n"
        f"-- Repair attempt: {attempt}\n"
        f"-- Failed SQL: {flat_sql}\n"
        f"-- Diagnostics: {flat_diag}\n"
        f"{REPAIR_INSTRUCTION}\n"
        f"-- {question}\n"
        f"SELECT"
    )
