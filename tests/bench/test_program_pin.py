"""Pins what the TAG-Bench suite computes, independent of how it is written.

Every exact-answer query's gold is pinned at four seeds of the shipped
datasets and at two seeds of larger ones (more schools per city, more
players, twice the comments, transactions and race results), so a
rewrite of the suite must reproduce each gold exactly (``repr``-equal,
not just exact-match equal).  Hand-written TAG is pinned at seed 0 over
all 80 queries: its answers, ET and every ``Usage`` field, and a sha256
over the ordered sequence of prompts the LM saw.  The 20 aggregation
queries' quality oracles are pinned at the same six dataset
configurations: the entities a complete answer must mention, and the
values its numbers may be grounded in.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple

import pytest

from repro.bench.agg_quality import source_numbers
from repro.data import (
    california_schools,
    codebase_community,
    debit_card_specializing,
    european_football_2,
    formula_1,
    load_all,
)
from repro.lm import LMConfig, SimulatedLM
from repro.methods import HandwrittenTAGMethod

GOLD_DIGESTS = {
    0: "ae46995ac878ad144b04ec45f20186153cd84853899fd299075e08156d306ca8",
    1: "8950d590af31ec4d03cb3e4cb5a71201bad81385546cef040ebd4926303b944a",
    2: "7f1a9da22be5175ac36309edcb659c974deb6be6d9e96491824cdcca734be1b4",
    7: "5fad774ec56bccad045989e7f5b536e069703b3c832eb397315e540edad28d02",
}

LARGE_GOLD_DIGESTS = {
    0: "1413c00327a76e449e9eb582b1abed07ac18b15261ae9a392810ba4095a36f13",
    1: "80d375c95d418d39550df841ae6c881b50264ba9b2ca03ab15684639a28973db",
}

AGG_DIGESTS = {
    0: "66f58bb7806e2b50558eaffe893d3c316ab014af70ef131c19f326821942613f",
    1: "ee485a8516015b10a2f7f55c2dee9b7c7de09ea355075b51de965dd6a22dafd7",
    2: "ea3f02d771a88727c1fd77e2f08d9e4f9c828ffcbc943cd8000b9fde56e72132",
    7: "202e9a139dd2a4a55e1051cd77d3e653699147088f4f777f44ff76646344e220",
}

LARGE_AGG_DIGESTS = {
    0: "ff849002e97baec537caacef339e4f4b6a8e633a1f1d10ff19762dc9db4f254b",
    1: "17ce32486a47d7d7926c6e928d1b21dd32019b724b6a26867df7bb638265d71e",
}

TAG_DIGEST = (
    "3ba0338bdb19bd80f6d833d976507445619e107fd54ab386a921369150e86f05"
)
PROMPT_DIGEST = (
    "ba797f1bae9269ff9e36d7cbd32d0288f09ff62bb4615a7f3fda460d07dc8dde"
)
PROMPT_COUNT = 3221


def _sha(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _large_datasets(seed: int) -> dict:
    builds = [
        california_schools.build(seed=seed, schools_per_city=8),
        european_football_2.build(seed=seed, players=400),
        codebase_community.build(seed=seed, comments_per_post=12),
        formula_1.build(seed=seed, results_per_race=20),
        debit_card_specializing.build(seed=seed, transactions=1200),
    ]
    return {dataset.name: dataset for dataset in builds}


def _gold_lines(suite, datasets) -> list[str]:
    return [
        f"{spec.qid}={spec.gold(datasets[spec.domain])!r}"
        for spec in suite
        if spec.gold is not None
    ]


def _agg_lines(suite, datasets) -> list[str]:
    lines = []
    for spec in suite:
        if spec.query_type != "aggregation":
            continue
        dataset = datasets[spec.domain]
        sources = sorted(source_numbers(spec.agg_source(dataset)))
        lines.append(
            f"{spec.qid}={spec.agg_entities(dataset)!r}|{sources!r}"
        )
    return lines


def test_exact_queries_are_sixty(suite):
    assert sum(spec.gold is not None for spec in suite) == 60


@pytest.mark.parametrize("seed", sorted(GOLD_DIGESTS))
def test_gold_answers_are_pinned(suite, seed):
    datasets = load_all(seed=seed)
    lines = _gold_lines(suite, datasets)
    assert _sha(lines) == GOLD_DIGESTS[seed], lines


@pytest.mark.parametrize("seed", sorted(LARGE_GOLD_DIGESTS))
def test_gold_answers_are_pinned_on_larger_datasets(suite, seed):
    lines = _gold_lines(suite, _large_datasets(seed))
    assert _sha(lines) == LARGE_GOLD_DIGESTS[seed], lines


@pytest.mark.parametrize("seed", sorted(AGG_DIGESTS))
def test_aggregation_oracles_are_pinned(suite, seed):
    lines = _agg_lines(suite, load_all(seed=seed))
    assert len(lines) == 20
    assert _sha(lines) == AGG_DIGESTS[seed], lines


@pytest.mark.parametrize("seed", sorted(LARGE_AGG_DIGESTS))
def test_aggregation_oracles_are_pinned_on_larger_datasets(suite, seed):
    lines = _agg_lines(suite, _large_datasets(seed))
    assert _sha(lines) == LARGE_AGG_DIGESTS[seed], lines


def test_handwritten_tag_is_pinned(suite, datasets):
    lm = SimulatedLM(LMConfig(seed=0))
    prompts: list[str] = []
    generate = lm._generate

    def recording(prompt, max_tokens):
        prompts.append(prompt)
        return generate(prompt, max_tokens)

    lm._generate = recording
    method = HandwrittenTAGMethod(lm)
    lines = []
    for spec in suite:
        before = lm.usage.snapshot()
        result = method.answer(spec, datasets[spec.domain])
        usage = astuple(lm.usage.since(before))
        lines.append(
            f"{spec.qid}={result.answer!r}|{result.et_seconds!r}"
            f"|{result.error!r}|{usage!r}"
        )
    assert len(prompts) == PROMPT_COUNT
    assert _sha(prompts) == PROMPT_DIGEST
    assert _sha(lines) == TAG_DIGEST, lines
