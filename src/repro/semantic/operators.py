"""The semantic operators: sem_filter, sem_topk, sem_agg.

Operator semantics follow LOTUS:

- ``sem_filter`` keeps rows the LM judges to satisfy the instruction
  (one batched yes/no judgment per row);
- ``sem_topk`` returns the k best rows *in order*, using quickselect
  with an LM pairwise comparator — pivot comparisons are batched, the
  optimisation LOTUS's engine applies;
- ``sem_agg`` folds rows into one text answer hierarchically, so
  arbitrarily many rows fit the model's context window.
"""

from __future__ import annotations

import re

from repro.errors import SemanticOperatorError
from repro.frame import DataFrame
from repro.lm import SimulatedLM
from repro.semantic.engine import SemanticEngine

_PLACEHOLDER_RE = re.compile(r"\{([^{}]+)\}")

#: Rows folded per sem_agg leaf call (keeps each call inside context).
_AGG_CHUNK_ROWS = 24


def placeholders(instruction: str) -> list[str]:
    """Column placeholders referenced by an instruction, in order."""
    return _PLACEHOLDER_RE.findall(instruction)


def fill(instruction: str, record: dict[str, object]) -> str:
    """Substitute ``{Column}`` placeholders with the row's values."""

    def replace(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in record:
            raise SemanticOperatorError(
                f"instruction references unknown column {name!r}"
            )
        return str(record[name])

    return _PLACEHOLDER_RE.sub(replace, instruction)


def _criterion_of(instruction: str) -> str:
    """The instruction with placeholders blanked, used as a criterion."""
    return _PLACEHOLDER_RE.sub("", instruction).strip()


class SemanticOperators:
    """Semantic operators bound to one LM (via a batching engine)."""

    def __init__(
        self,
        lm: SimulatedLM,
        batch_size: int = 32,
    ) -> None:
        self.engine = SemanticEngine(lm, batch_size=batch_size)

    # ------------------------------------------------------------------
    # sem_filter
    # ------------------------------------------------------------------

    def sem_filter(self, frame: DataFrame, instruction: str) -> DataFrame:
        """Rows for which the LM judges the filled instruction true."""
        self._check_instruction(frame, instruction)
        if frame.empty:
            return frame
        conditions = [
            fill(instruction, record) for _, record in frame.iterrows()
        ]
        verdicts = self.engine.judge(conditions)
        return frame.filter_mask(verdicts)

    # ------------------------------------------------------------------
    # sem_topk
    # ------------------------------------------------------------------

    def sem_topk(
        self,
        frame: DataFrame,
        instruction: str,
        k: int,
        method: str = "quickselect",
    ) -> DataFrame:
        """The ``k`` rows best matching the instruction, best first.

        Two strategies, mirroring LOTUS's top-k algorithms:

        - ``"quickselect"`` (default): pairwise LM comparisons,
          batching every candidate-vs-pivot round; O(n log n)
          comparisons worst case, but each comparison is a sharper
          judgment than an absolute score;
        - ``"score"``: one graded scoring call per row (one batch
          total) and a sort — cheaper, but absolute scores are noisier
          than pairwise preferences on near-ties.

        The strategy ablation benchmark compares their cost/accuracy.
        """
        if k < 1:
            raise SemanticOperatorError("k must be >= 1")
        if method not in ("quickselect", "score"):
            raise SemanticOperatorError(
                f"sem_topk method must be 'quickselect' or 'score', "
                f"got {method!r}"
            )
        self._check_instruction(frame, instruction)
        if len(frame) <= 1:
            return frame
        criterion = _criterion_of(instruction)
        # Items are the raw placeholder values, not the filled sentence:
        # the comparator judges the data, with the instruction as the
        # criterion (mirrors LOTUS's sem_topk(langex) semantics).
        names = placeholders(instruction)
        items = [
            ", ".join(str(record[name]) for name in names)
            for _, record in frame.iterrows()
        ]
        if method == "score":
            scores = self.engine.score(criterion, items)
            order = sorted(
                range(len(items)),
                key=lambda index: scores[index],
                reverse=True,
            )
        else:
            order = self._quickselect_order(
                criterion,
                items,
                list(range(len(items))),
                min(k, len(items)),
            )
        return frame.take(order[:k])

    def _quickselect_order(
        self,
        criterion: str,
        items: list[str],
        indices: list[int],
        k: int,
    ) -> list[int]:
        if len(indices) <= 1 or k <= 0:
            return indices
        pivot = indices[len(indices) // 2]
        others = [index for index in indices if index != pivot]
        wins = self.engine.compare(
            criterion,
            [(items[index], items[pivot]) for index in others],
        )
        better = [index for index, won in zip(others, wins) if won]
        worse = [index for index, won in zip(others, wins) if not won]
        if len(better) >= k:
            return self._quickselect_order(criterion, items, better, k)
        ordered_better = self._quickselect_order(
            criterion, items, better, len(better)
        )
        remaining = k - len(better) - 1
        ordered_worse = self._quickselect_order(
            criterion, items, worse, max(remaining, 0)
        )
        return ordered_better + [pivot] + ordered_worse

    # ------------------------------------------------------------------
    # sem_agg
    # ------------------------------------------------------------------

    def sem_agg(
        self,
        frame: DataFrame,
        instruction: str,
        columns: list[str] | None = None,
    ) -> str:
        """Fold all rows into one natural-language answer.

        Rows are serialized (optionally restricted to ``columns``),
        summarised in chunks, and the chunk summaries are folded again
        until a single text remains — the iterative aggregation pattern
        the paper highlights for reasoning across many rows.
        """
        use_columns = columns or frame.columns
        missing = [name for name in use_columns if name not in frame]
        if missing:
            raise SemanticOperatorError(f"unknown column(s) {missing}")
        if frame.empty:
            return ""
        items = [
            "; ".join(
                f"{name}: {record[name]}" for name in use_columns
            )
            for _, record in frame.iterrows()
        ]
        while len(items) > _AGG_CHUNK_ROWS:
            chunks = [
                items[start : start + _AGG_CHUNK_ROWS]
                for start in range(0, len(items), _AGG_CHUNK_ROWS)
            ]
            items = self.engine.summarize_batch(instruction, chunks)
        return self.engine.summarize(instruction, items)

    # ------------------------------------------------------------------

    @staticmethod
    def _check_instruction(frame: DataFrame, instruction: str) -> None:
        names = placeholders(instruction)
        if not names:
            raise SemanticOperatorError(
                "instruction must reference at least one {Column}"
            )
        missing = [name for name in names if name not in frame]
        if missing:
            raise SemanticOperatorError(
                f"instruction references unknown column(s) {missing}"
            )
