"""Detailed unit tests for the in-context answer handler internals."""

import pytest

from repro.lm.handlers import answer as answer_module
from repro.lm.handlers.answer import (
    _answer_key,
    _as_float,
    _format_list,
    _parse_data_points,
    _text_key,
)
from repro.lm.prompts import answer_prompt
from repro.lm.router import HandlerContext


class TestParsing:
    def test_parse_data_points(self):
        prompt = answer_prompt(
            "q", [{"a": "1", "b": "two"}, {"a": "3", "b": "four"}]
        )
        records = _parse_data_points(prompt)
        assert records == [
            {"a": "1", "b": "two"},
            {"a": "3", "b": "four"},
        ]

    def test_parse_stops_at_question(self):
        prompt = answer_prompt("what about - a: fake?", [{"a": "1"}])
        records = _parse_data_points(prompt)
        assert records == [{"a": "1"}]

    def test_values_with_colons_preserved(self):
        prompt = answer_prompt("q", [{"time": "12:30:00"}])
        assert _parse_data_points(prompt) == [{"time": "12:30:00"}]


class TestHelpers:
    def test_as_float(self):
        assert _as_float("2.5") == 2.5
        assert _as_float("x") is None
        assert _as_float(None) is None

    def test_text_key_preference(self):
        assert _text_key(["Id", "Text", "Title"]) == "Text"
        assert _text_key(["Id", "Title"]) == "Title"
        assert _text_key(["Id", "Score"]) is None

    def test_format_list_quotes_strings(self):
        assert _format_list(["K-8", "9"]) == '["K-8", 9]'

    def test_format_list_escapes_quotes(self):
        rendered = _format_list(['he said "hi"'])
        import ast

        assert ast.literal_eval(rendered) == ['he said "hi"']

    def test_answer_key_prefers_question_phrase(self):
        records = [{"GSoffered": "K-8", "City": "X"}]
        key = _answer_key(
            "What is the grade span offered in the school?", records
        )
        assert key == "GSoffered"


class TestRankingTruncation:
    def test_top_n_request_truncates(self, lm):
        records = [
            {"Text": "Oh great, broken again."},
            {"Text": "See the survey."},
            {"Text": "Yeah right, that will work."},
            {"Text": "Helpful link, thanks."},
        ]
        response = lm.complete(
            answer_prompt(
                "List the texts of the 2 most sarcastic comments.",
                records,
            )
        )
        import ast

        values = ast.literal_eval(response.text)
        assert len(values) == 2

    def test_in_order_of_with_top_n(self, lm):
        records = [{"Title": f"t{i}"} for i in range(6)]
        response = lm.complete(
            answer_prompt(
                "Of the top 3, list their titles in order of most "
                "technical to least technical.",
                records,
            )
        )
        import ast

        assert len(ast.literal_eval(response.text)) == 3


class TestCountDrift:
    def test_drift_magnitude_grows_with_overflow(self, kb):
        from repro.knowledge import FuzzyKnowledge

        context = HandlerContext(
            fuzzy=FuzzyKnowledge(kb, seed=0),
            kb=kb,
            seed=0,
            reliable_rows=12,
        )
        small = [{"v": str(i)} for i in range(14)]
        large = [{"v": str(i)} for i in range(60)]
        small_answer = answer_module._count_answer(
            "How many rows?", small, context
        )
        large_answer = answer_module._count_answer(
            "How many rows?", large, context
        )
        small_error = abs(int(small_answer.strip("[]")) - 14)
        large_error = abs(int(large_answer.strip("[]")) - 60)
        assert 1 <= small_error <= 2
        assert large_error >= small_error

    def test_no_drift_within_reliable_window(self, kb):
        from repro.knowledge import FuzzyKnowledge

        context = HandlerContext(
            fuzzy=FuzzyKnowledge(kb, seed=0),
            kb=kb,
            seed=0,
            reliable_rows=12,
        )
        records = [{"v": str(i)} for i in range(10)]
        answer = answer_module._count_answer(
            "How many rows?", records, context
        )
        assert answer == "[10]"


class TestRowsWithoutFields:
    """``- a:b: 3`` is not a field line (the key ends at the first
    colon and no space follows it), so such rows parse with no fields.
    A count still counts the rows; every other answer is ``[]``, the
    model's "unable to answer" (the superlative raised ``IndexError``)."""

    QUESTIONS = [
        "What is the highest score?",
        "What is the score?",
        "How many rows have a score over 4?",
        "Which is the most sarcastic?",
        "List the scores in order of most technical.",
    ]

    @pytest.mark.parametrize("question", QUESTIONS)
    def test_unable_to_answer(self, lm, question):
        prompt = answer_prompt(question, [{"a:b": 3}, {"a:b": 5}])
        assert _parse_data_points(prompt) == [{}, {}]
        expected = "[2]" if question.startswith("How many") else "[]"
        assert lm.complete(prompt).text == expected

    def test_a_column_alias_with_a_colon(self, lm, movies_db):
        from repro.core import SingleCallGenerator, SQLExecutor

        rows = SQLExecutor(movies_db).execute(
            'SELECT revenue AS "a:b" FROM movies WHERE revenue > 100'
        )
        assert rows[0] == {"a:b": 2257.8}
        generated = SingleCallGenerator(lm).generate(
            "What is the highest revenue?", rows
        )
        assert generated == "[]"
