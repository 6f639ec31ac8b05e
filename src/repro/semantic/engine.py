"""Batched LM execution primitives used by the semantic operators."""

from __future__ import annotations

from collections.abc import Sequence

from repro.lm import SimulatedLM, prompts


class SemanticEngine:
    """Chunks operator workloads into LM batches.

    ``batch_size`` bounds how many judgments share one batch; larger
    batches amortise overhead better (the batching ablation sweeps it).

    Identical prompts within a chunk are deduplicated before
    ``complete_batch`` — duplicate cell values in a ``sem_filter``
    column cost one judgment, not one per row.  Dedup traffic is
    metered on the LM's ``usage.udf_cache_hits``/``udf_cache_misses``,
    same contract as the SQL engine's batched UDF operators: a hit is
    an occurrence served without a new invocation, a miss a dispatched
    prompt.
    """

    def __init__(self, lm: SimulatedLM, batch_size: int = 32) -> None:
        if (
            isinstance(batch_size, bool)
            or not isinstance(batch_size, int)
            or batch_size < 1
        ):
            raise ValueError(
                f"batch_size must be an int >= 1, got {batch_size!r}"
            )
        self.lm = lm
        self.batch_size = batch_size

    def _run_batched(
        self, built_prompts: list[str], max_tokens: int | None = None
    ) -> list[str]:
        results: list[str] = []
        for start in range(0, len(built_prompts), self.batch_size):
            chunk = built_prompts[start : start + self.batch_size]
            # First occurrence of each distinct prompt is dispatched;
            # repeats within the chunk share its response.
            distinct = list(dict.fromkeys(chunk))
            self.lm.usage.add(
                udf_cache_misses=len(distinct),
                udf_cache_hits=len(chunk) - len(distinct),
            )
            responses = self.lm.complete_batch(distinct, max_tokens)
            texts = {
                prompt: response.text
                for prompt, response in zip(distinct, responses)
            }
            results.extend(texts[prompt] for prompt in chunk)
        return results

    def judge(self, conditions: Sequence[str]) -> list[bool]:
        """Boolean judgment per condition (yes/no prompts)."""
        built = [
            prompts.judgment_prompt(condition) for condition in conditions
        ]
        return [
            text.strip().lower().startswith("yes")
            for text in self._run_batched(built, max_tokens=4)
        ]

    def score(self, criterion: str, items: Sequence[str]) -> list[float]:
        """Graded score per item against one criterion."""
        built = [prompts.scoring_prompt(criterion, item) for item in items]
        return [
            _parse_float(text)
            for text in self._run_batched(built, max_tokens=8)
        ]

    def relevance(
        self, query: str, documents: Sequence[str]
    ) -> list[float]:
        """Relevance score per document (reranking)."""
        built = [
            prompts.relevance_prompt(query, document)
            for document in documents
        ]
        return [
            _parse_float(text)
            for text in self._run_batched(built, max_tokens=8)
        ]

    def compare(
        self, criterion: str, pairs: Sequence[tuple[str, str]]
    ) -> list[bool]:
        """Pairwise winner per (left, right): True when left wins."""
        built = [
            prompts.comparison_prompt(criterion, left, right)
            for left, right in pairs
        ]
        return [
            text.strip().upper().startswith("A")
            for text in self._run_batched(built, max_tokens=4)
        ]

    def summarize(self, instruction: str, items: Sequence[str]) -> str:
        """One summarisation call over listed items."""
        response = self.lm.complete(
            prompts.summary_prompt(instruction, items), max_tokens=256
        )
        return response.text

    def summarize_batch(
        self, instruction: str, chunks: Sequence[Sequence[str]]
    ) -> list[str]:
        """Summarise several chunks in one batch (sem_agg's fold step)."""
        built = [
            prompts.summary_prompt(instruction, chunk)
            for chunk in chunks
        ]
        return self._run_batched(built, max_tokens=256)


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        return 0.0
