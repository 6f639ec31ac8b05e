"""Registering a :class:`SimulatedLM` as a SQL UDF, batched form included.

The TAG ``exec`` step pushes semantic reasoning into SQL via an ``LLM``
UDF (paper §2.1, Figure 1).  Benchmarks and the serving layer used to
register the scalar form by hand::

    db.register_udf("LLM", lambda task, value: lm.complete(...).text,
                    expensive=True)

which pays one synchronous ``complete()`` per row.  This module is the
one place that registration idiom lives now: :func:`register_llm_judge`
registers *both* forms — the per-row scalar (kept as the correctness
oracle) and a vectorised batch form that turns a morsel of distinct
argument tuples into a single ``complete_batch()`` — and binds the
database's UDF-cache counters to the model's
:class:`~repro.lm.usage.Usage`, so ``db.execute(sql,
udf_batch_size=N)`` gets the batched/deduplicated/memoized path with
full accounting and no per-call-site wiring.
"""

from __future__ import annotations

from repro.lm.model import SimulatedLM
from repro.lm.prompts import judgment_prompt

#: Generation budget of one judgment: a yes/no answer.
_MAX_TOKENS = 4


def judgment_udf_prompt(task: str, value: object) -> str:
    """The prompt both UDF forms build for ``LLM(task, value)``.

    One shared builder is what makes scalar/batched equivalence exact:
    the batch form must send byte-identical prompts to the ones the
    scalar oracle would send.
    """
    return judgment_prompt(f"'{value}' is {task}")


def register_llm_judge(db, lm: SimulatedLM, cheap=None) -> None:
    """Register ``LLM(task, value)`` on ``db`` with scalar + batch forms.

    The UDF answers yes/no judgment prompts ("``'value' is task``"),
    the shape the paper's Figure 1 query uses.  The scalar form calls
    ``lm.complete`` per invocation; the batch form sends one
    ``complete_batch`` for a whole morsel of argument tuples.  Also
    binds ``lm.usage`` as the database's UDF-cache meter, so
    ``udf_cache_hits``/``udf_cache_misses`` accumulate next to the
    model's own call/batch/token counters.

    ``cheap`` optionally supplies the *cheap classifier tier* for the
    optimizer's cascade route: a callable ``(task, value) -> str |
    None`` that either answers exactly what the expensive judge would
    ("yes"/"no") or returns ``None`` to escalate the tuple to the LM.
    Soundness is the caller's contract — a cheap tier that disagrees
    with the LM changes query results.  In practice this is a
    high-precision heuristic (keyword match, lookup table, small
    distilled model) that abstains whenever unsure.  The executor
    calls it once per distinct argument tuple and treats an exception
    it raises as an abstention.
    """

    def scalar(task, value):
        return lm.complete(
            judgment_udf_prompt(task, value), max_tokens=_MAX_TOKENS
        ).text

    def batch(argument_tuples):
        responses = lm.complete_batch(
            [
                judgment_udf_prompt(task, value)
                for task, value in argument_tuples
            ],
            max_tokens=_MAX_TOKENS,
        )
        return [response.text for response in responses]

    db.register_udf("LLM", scalar, expensive=True, batch=batch, cheap=cheap)
    db.bind_udf_meters(usage=lm.usage)
