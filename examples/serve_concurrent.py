"""Concurrent TAG serving: many requests, one micro-batching LM.

Spins up a :class:`repro.serve.TagServer` over the movies dataset and
serves the same request stream three ways — one worker with no
batching, a worker pool with micro-batching, and the pool again with
the LRU prompt cache on — to show where a TAG deployment's throughput
comes from.  All times are simulated (virtual clock), so the printed
numbers are identical on any machine.

Run:  python examples/serve_concurrent.py
"""

from repro.lm import LMConfig, SimulatedLM
from repro.serve import TagServer, demo


def main() -> None:
    factory = demo.pipeline_factory(demo.build_dataset())

    # A realistic stream repeats popular questions: 8 distinct
    # requests, each asked by three different users.
    requests = [f"{demo.REQUEST} (topic {i % 8})" for i in range(24)]

    configurations = [
        ("sequential (1 worker, window 1)", dict(workers=1, window=1)),
        ("micro-batched (16 workers, window 16)",
         dict(workers=16, window=16)),
        ("micro-batched + prompt cache",
         dict(workers=16, window=16, cache_size=256)),
    ]
    for label, kwargs in configurations:
        server = TagServer(factory, SimulatedLM(LMConfig(seed=0)), **kwargs)
        report = server.serve(requests)
        print(
            f"{label:42s} {report.throughput_rps:8.2f} req/s  "
            f"({report.simulated_seconds:6.2f}s simulated, "
            f"{report.usage.calls} LM calls, "
            f"{report.usage.cache_hits} cache hits)"
        )

    # Identical answers whichever way the requests are served.
    baseline = TagServer(
        factory, SimulatedLM(LMConfig(seed=0)), workers=1, window=1
    ).serve(requests)
    batched = TagServer(
        factory, SimulatedLM(LMConfig(seed=0)), workers=16, window=16
    ).serve(requests)
    assert baseline.answers() == batched.answers()
    print("\nAnswers are identical across all serving configurations.")
    print(f"Example answer: {str(baseline.results[0].result.answer)[:120]}")


if __name__ == "__main__":
    main()
