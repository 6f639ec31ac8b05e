"""Unit tests for prompt builders."""

from repro.lm import prompts


class TestOperatorPrompts:
    def test_judgment(self):
        prompt = prompts.judgment_prompt("X is true")
        assert prompt.startswith(prompts.JUDGMENT_HEADER)
        assert prompt.endswith("Statement: X is true")

    def test_scoring_and_relevance(self):
        assert "Criterion: c\nItem: i" in prompts.scoring_prompt("c", "i")
        assert "Query: q\nDocument: d" in prompts.relevance_prompt(
            "q", "d"
        )

    def test_comparison(self):
        prompt = prompts.comparison_prompt("c", "left", "right")
        assert "A: left" in prompt and "B: right" in prompt

    def test_summary_numbers_items(self):
        prompt = prompts.summary_prompt("sum it", ["one", "two"])
        assert "Item 1: one" in prompt and "Item 2: two" in prompt


class TestAnswerPrompt:
    def test_paper_serialization(self):
        prompt = prompts.answer_prompt(
            "How many?", [{"School": "A", "AvgScrMath": 600}]
        )
        assert prompt.startswith(prompts.ANSWER_LIST_HEADER)
        assert "Data Point 1:\n- School: A\n- AvgScrMath: 600" in prompt
        assert prompt.endswith("Question: How many?")

    def test_aggregation_variant_differs(self):
        prompt = prompts.answer_prompt("Summarize", [], aggregation=True)
        assert prompt.startswith(prompts.ANSWER_FREEFORM_HEADER)
        assert "evaluatable in Python" not in prompt

    def test_multiple_points_blank_line_separated(self):
        prompt = prompts.answer_prompt(
            "q", [{"a": 1}, {"a": 2}]
        )
        assert "Data Point 1" in prompt and "Data Point 2" in prompt


class TestText2SQLPrompt:
    def test_bird_format(self):
        prompt = prompts.text2sql_prompt(
            "CREATE TABLE t (a INTEGER)", "How many rows?"
        )
        assert prompt.startswith("CREATE TABLE")
        assert "-- External Knowledge: None" in prompt
        assert prompt.rstrip().endswith("SELECT")
        assert "-- How many rows?" in prompt

    def test_bird_format_bytes(self):
        assert prompts.text2sql_prompt("CREATE TABLE t (a TEXT);", "q?") == (
            "CREATE TABLE t (a TEXT);\n\n"
            "-- External Knowledge: None\n"
            "-- Using valid SQLite and understading External Knowledge, "
            "answer the following questions for the tables provided "
            "above.\n"
            "-- q?\n"
            "SELECT"
        )

    def test_external_knowledge_included(self):
        prompt = prompts.text2sql_prompt(
            "CREATE TABLE t (a INTEGER)",
            "q",
            external_knowledge="A hint.",
        )
        assert "-- External Knowledge: A hint." in prompt
