"""What a served request is charged, pinned at several worker counts.

The demo server runs one duplicate-heavy request stream at workers
1/2/4/8 in four settings: plain, with a semantic result cache, with a
prompt cache, and under injected faults with retries (so backoff is
charged to the request that slept).  Each run pins its per-request
rows — ``(index, worker, semantic, et_seconds rounded to 9 places,
lm_calls, cache_hits, answer)`` — and its ``ServeReport.usage``
exactly.  A change to where the counters are written must leave every
digest as it is.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.lm import FaultPlan, LMConfig, SimulatedLM
from repro.serve import (
    BreakerPolicy,
    ResiliencePolicy,
    RetryPolicy,
    SemanticResultCache,
    TagServer,
    demo,
)

_FACTORY = demo.pipeline_factory(demo.build_dataset(), fallback=True)
_REQUESTS = demo.requests(12, distinct=6, deep_scans=True)


def _settings(name: str) -> dict:
    if name == "plain":
        return {}
    if name == "semantic":
        return {"semantic_cache": SemanticResultCache(capacity=16)}
    if name == "prompt-cache":
        return {"cache_size": 32}
    assert name == "faults"
    return {
        "fault_plan": FaultPlan.uniform(0.3, seed=5),
        "resilience": ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3),
            deadline_s=1.0,
            breaker=BreakerPolicy(failure_threshold=3),
        ),
    }


def _digests(name: str, workers: int) -> tuple[str, str]:
    server = TagServer(
        _FACTORY,
        SimulatedLM(LMConfig(seed=0)),
        workers=workers,
        window=3,
        **_settings(name),
    )
    report = server.serve(_REQUESTS)
    rows = [
        (r.index, r.worker, r.semantic, round(r.et_seconds, 9),
         r.lm_calls, r.cache_hits, r.result.answer)
        for r in report.results
    ]
    return (
        hashlib.sha256(repr(rows).encode()).hexdigest(),
        hashlib.sha256(repr(report.usage).encode()).hexdigest(),
    )


#: (setting, workers) -> (sha256 of the rows, sha256 of the usage).
EXPECTED = {
    ('plain', 1): (
        '9715c663889478ad97370f2a47487953acaac43509f1cc3c1112542de525ddca',
        '21596805483b362e1382d3477c7827a974f8d63b6c36dd48b1cad49f5e0a19e1',
    ),
    ('plain', 2): (
        '0607375a78d25530c9a45a917de1363c8d890677b8a757f872175660010ba03a',
        'e2fc5434cf42e140921a6dd6a6ffb8bd1d1489afb54be7dc2f33ad2436c7f59d',
    ),
    ('plain', 4): (
        '43888220cd7f106ec1d4f138a3a98b602b29083ad6046a441c32262d034266af',
        '6eb6869ec5b9bac83c0f686023f08e4d602e803c7b4cc42aad55e2a98ec80678',
    ),
    ('plain', 8): (
        'a839db3135e74c6a0facbd8fb026e05e314725d6bc073ebf5075b958fe7d2491',
        'd8f5484b8f5380502355e9f8b063432236579febd32b8bdaff64e9f21c5fba76',
    ),
    ('semantic', 1): (
        '665c893a777cfc27eb12fe1f9c43f9de8f62c62ba736bcb89866b7a7b54a0d94',
        '2eee8f339377ea0d251196677ead04ae994845ac2fbec50f1397345659786ebb',
    ),
    ('semantic', 2): (
        '21d9405076ddea13ee893cd09b644862da5289dfa4c9da00fdf0b60391f6d0b7',
        '67424d15bfda0a9134334bdc88c8135199c1d6037cc099a95a82cbd29d64cf39',
    ),
    ('semantic', 4): (
        '2090f42629f28621086fd18fb18f7ab583415e184d7c33b45eb9998490bea279',
        '8180317d18662c97743608f93f91afe6a1822ac2223f653c48f29ba1bc0724b9',
    ),
    ('semantic', 8): (
        '00a223afdec1f56a5f72beaae0dfe61c1693fc6b5c70be54239e7a125426aeba',
        '6e2b59258daff3235e1e1744a8e6bc80a86723825c9fd9271c7c22c3f927cca4',
    ),
    ('prompt-cache', 1): (
        'dd84d765644300273627c690763de45f77a9836f9a7e933fa6ecc88ad7211063',
        '5a95d190a1e6637e14a1463e0e9ee1b959d92beaeccca1892f1cc7dbb8c71a3b',
    ),
    ('prompt-cache', 2): (
        '3deac9ea8c84bf5237202d8cf90d39b4329b120a8c582741521e5e45ee4d4de4',
        'c62bf8a0d2b3ac1be7df5fffcc382e94c0c2cbea4af96d1d82c5da4287668f3d',
    ),
    ('prompt-cache', 4): (
        '61eeb30e8eab08b891565807aeee44b314b441d5c8aa3f9987e0e13302920789',
        '1aee4587813e7f40950f67923dff3d578feb3c00e4b9490f13926fb8e7d51765',
    ),
    ('prompt-cache', 8): (
        '7d2958860b96cc06c9bac4105d144e168b250ba86023ed7e819812c3bab37dca',
        '1aee4587813e7f40950f67923dff3d578feb3c00e4b9490f13926fb8e7d51765',
    ),
    ('faults', 1): (
        '58a317099eae86bd0e19ee6cbac5e861e3e28b913525e110ab2ac44d8c4d8007',
        '85cb2c58931f949969c4e6435315b4053d070883e77d8ff5ce7dbfcdd4e63c8e',
    ),
    ('faults', 2): (
        '0a84f290de9a5111bdef2ba2d98286d63b3e796219f5a5083b47fb9ea2ba6f4b',
        '1004966b8a4236beaecd6397144ed86f88196a33a7e0d7fc6f06f03f4753c24f',
    ),
    ('faults', 4): (
        '546c43c7d5e69030cb6f7a43117c213388336844371466a19f311da6234af20d',
        'e3032a4dedf19e5d79b56feaa8f9a497cb26f2cd3e602bdf28ed95240c0725f8',
    ),
    ('faults', 8): (
        '74c9bb94cd44cafe8c9f322c2d602eff9b4b63255c09aafd192bce28cfd0d917',
        '5aa36cf39870256abb473de04d178fc37a4e3ee321d161c9f7656b8ca4ee97b3',
    ),
}


@pytest.mark.parametrize(
    "name, workers", sorted(EXPECTED), ids=lambda value: str(value)
)
def test_served_counts_are_pinned(name, workers):
    assert _digests(name, workers) == EXPECTED[name, workers]
