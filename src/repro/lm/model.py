"""The SimulatedLM: a deterministic stand-in for an instruction-tuned LM.

Exposes the two entry points real LM serving stacks expose:

- :meth:`SimulatedLM.complete` — one request;
- :meth:`SimulatedLM.complete_batch` — a batch sharing scheduling
  overhead and decode bandwidth (the vLLM-style batched inference the
  paper credits for hand-written TAG's low execution time).

Operational behaviour mirrors a real deployment: prompts beyond the
context window raise :class:`~repro.errors.ContextLengthError`; all
calls and tokens are metered in :class:`~repro.lm.usage.Usage`; latency
is accumulated from the :class:`~repro.lm.latency.LatencyModel` rather
than wall-clock, so ET measurements are machine-independent and exactly
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ContextLengthError
from repro.knowledge import FuzzyKnowledge, KnowledgeBase
from repro.lm.latency import LatencyModel
from repro.lm.router import HandlerContext, Router
from repro.lm.tokenizer import count_tokens
from repro.lm.usage import Usage
from repro.obs import trace


@dataclass(frozen=True)
class LMConfig:
    """Simulated model configuration.

    ``context_window`` defaults to 8192 tokens: serialising hundreds of
    retrieved rows overflows it, reproducing the context-length failures
    the paper observes on the Text2SQL+LM baseline.
    """

    context_window: int = 8192
    max_output_tokens: int = 512
    seed: int = 0
    #: Scales knowledge-error probability; 0 disables knowledge errors
    #: (an "oracle LM" useful in tests), 1.25 is the calibrated default
    #: (see EXPERIMENTS.md, calibration section).
    skepticism: float = 1.25
    #: How many in-context rows the model handles reliably for exact
    #: computation before long-context degradation sets in.
    reliable_rows: int = 12
    latency: LatencyModel = field(default_factory=LatencyModel)


@dataclass(frozen=True)
class LMResponse:
    text: str
    prompt_tokens: int
    output_tokens: int
    #: Simulated latency attributed to this response, in seconds.
    latency_s: float


class SimulatedLM:
    """Deterministic prompt-routed language model."""

    def __init__(
        self,
        config: LMConfig | None = None,
        kb: KnowledgeBase | None = None,
        router: Router | None = None,
    ) -> None:
        self.config = config or LMConfig()
        self.kb = kb or KnowledgeBase.default()
        self.fuzzy = FuzzyKnowledge(
            self.kb,
            seed=self.config.seed,
            skepticism=self.config.skepticism,
        )
        if router is None:
            from repro.lm.handlers import default_handlers

            router = Router(default_handlers())
        self._router = router
        self.usage = Usage()

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def complete(
        self, prompt: str, max_tokens: int | None = None
    ) -> LMResponse:
        """One unbatched request."""
        text, prompt_tokens, output_tokens = self._generate(
            prompt, max_tokens
        )
        latency = self.config.latency.call_seconds(
            prompt_tokens, output_tokens
        )
        self.usage.add(
            calls=1,
            batches=1,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            simulated_seconds=latency,
        )
        if trace.active():
            trace.leaf(
                "lm.complete",
                latency,
                prompt_tokens=prompt_tokens,
                output_tokens=output_tokens,
            )
        return LMResponse(text, prompt_tokens, output_tokens, latency)

    def complete_batch(
        self, prompts: list[str], max_tokens: int | None = None
    ) -> list[LMResponse]:
        """A batch of requests sharing overhead and decode bandwidth."""
        if not prompts:
            return []
        generated = [
            self._generate(prompt, max_tokens) for prompt in prompts
        ]
        shape = [
            (prompt_tokens, output_tokens)
            for _, prompt_tokens, output_tokens in generated
        ]
        batch_latency = self.config.latency.batch_seconds(shape)
        per_request = batch_latency / len(prompts)
        total_prompt = sum(tokens for tokens, _ in shape)
        total_output = sum(tokens for _, tokens in shape)
        self.usage.add(
            calls=len(prompts),
            batches=1,
            prompt_tokens=total_prompt,
            output_tokens=total_output,
            simulated_seconds=batch_latency,
        )
        if trace.active():
            trace.leaf(
                "lm.batch",
                batch_latency,
                size=len(prompts),
                prompt_tokens=total_prompt,
                output_tokens=total_output,
            )
        return [
            LMResponse(text, prompt_tokens, output_tokens, per_request)
            for (text, prompt_tokens, output_tokens) in generated
        ]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _generate(
        self, prompt: str, max_tokens: int | None
    ) -> tuple[str, int, int]:
        prompt_tokens = count_tokens(prompt)
        if prompt_tokens > self.config.context_window:
            self.usage.add(context_errors=1)
            raise ContextLengthError(
                prompt_tokens, self.config.context_window
            )
        context = HandlerContext(
            fuzzy=self.fuzzy,
            kb=self.kb,
            seed=self.config.seed,
            reliable_rows=self.config.reliable_rows,
        )
        text = self._router.route(prompt, context)
        budget = (
            self.config.max_output_tokens
            if max_tokens is None
            else min(max_tokens, self.config.max_output_tokens)
        )
        output_tokens = count_tokens(text)
        if output_tokens > budget:
            text = self._truncate_to_tokens(text, budget)
            output_tokens = count_tokens(text)
        return text, prompt_tokens, output_tokens

    @staticmethod
    def _truncate_to_tokens(text: str, budget: int) -> str:
        """Longest prefix of ``text`` with ``count_tokens(prefix) <= budget``.

        The 4-chars-per-token inverse alone is not enough: the tokenizer
        floors the count by the word count, so a whitespace-dense slice
        of ``budget * 4`` characters can still exceed the budget.
        ``count_tokens`` is monotone in prefix length, so binary-search
        the cut point and recount.
        """
        if budget <= 0:
            return ""
        low, high = 0, min(len(text), budget * 4)
        while low < high:
            mid = (low + high + 1) // 2
            if count_tokens(text[:mid]) <= budget:
                low = mid
            else:
                high = mid - 1
        return text[:low]
