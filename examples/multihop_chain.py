"""Multi-hop TAG: chaining syn/exec/gen iterations.

The paper defines TAG as one syn/exec/gen iteration and points to
multi-hop execution as the natural extension (§2, §5).  This example
answers a question no single hop can:

    "Provide information about the races held at the Southeast Asian
     circuit that hosted the most races."

Hop 1 resolves *which* circuit that is (LM knowledge filter + exact
aggregation); hop 2 runs a fresh TAG iteration about that circuit,
splicing hop 1's answer into its request, and folds the rows with
``sem_agg`` as the hand-written TAG pipelines do.

Run:  python examples/multihop_chain.py
"""

from repro.core import (
    FixedQuerySynthesizer,
    Hop,
    NoGenerator,
    SQLExecutor,
    TAGChain,
    TAGPipeline,
)
from repro.data import load_domain
from repro.frame import DataFrame
from repro.lm import LMConfig, SimulatedLM
from repro.semantic import SemanticOperators


class SoutheastAsiaCircuitSynthesizer:
    """Hop 1 syn: an expert query with the LM's knowledge inlined.

    Uses a semantic filter over circuit names to decide which circuits
    are in Southeast Asia (world knowledge), then emits exact SQL that
    counts races per circuit.
    """

    def __init__(self, dataset, ops: SemanticOperators) -> None:
        self.dataset = dataset
        self.ops = ops

    def synthesize(self, request: str) -> str:
        circuits = self.dataset.frame("circuits")
        southeast = self.ops.sem_filter(
            DataFrame({"name": circuits["name"].unique()}),
            "{name} is located in southeast asia",
        )
        quoted = ", ".join(
            "'" + name.replace("'", "''") + "'"
            for name in southeast["name"].tolist()
        )
        return (
            "SELECT c.name FROM circuits c JOIN races r "
            "ON c.circuitId = r.circuitId "
            f"WHERE c.name IN ({quoted}) "
            "GROUP BY c.name ORDER BY COUNT(*) DESC LIMIT 1"
        )


class CircuitRacesSynthesizer:
    """Hop 2 syn: parse the circuit from the spliced request."""

    def synthesize(self, request: str) -> str:
        circuit = request.split("held on ")[1].rstrip(".").replace(
            "'", "''"
        )
        return (
            "SELECT r.year, r.round, r.date, r.name FROM races r "
            "JOIN circuits c ON r.circuitId = c.circuitId "
            f"WHERE c.name = '{circuit}' ORDER BY r.year"
        )


class SemAggGenerator:
    """Hop 2 gen: fold every row into one answer with ``sem_agg``."""

    def __init__(self, ops: SemanticOperators) -> None:
        self.ops = ops

    def generate(self, request: str, table: list[dict]) -> str:
        return self.ops.sem_agg(DataFrame.from_records(table), request)


def main() -> None:
    dataset = load_domain("formula_1", seed=0)
    lm = SimulatedLM(LMConfig(seed=0))
    ops = SemanticOperators(lm, batch_size=32)

    chain = TAGChain(
        [
            Hop(
                "Which Southeast Asian circuit hosted the most races?",
                TAGPipeline(
                    SoutheastAsiaCircuitSynthesizer(dataset, ops),
                    SQLExecutor(dataset.db),
                    NoGenerator(),
                ),
            ),
            Hop(
                "Provide information about the races held on {answer}.",
                TAGPipeline(
                    CircuitRacesSynthesizer(),
                    SQLExecutor(dataset.db),
                    SemAggGenerator(ops),
                ),
            ),
        ]
    )
    result = chain.run()
    print("Hop 1 answer:", result.hops[0].answer)
    print("Hop 2 request:", result.hops[1].request)
    print("\nFinal answer:\n", result.answer[:500])
    print(
        f"\nLM usage: {lm.usage.calls} calls, "
        f"{lm.usage.simulated_seconds:.2f}s simulated"
    )


if __name__ == "__main__":
    main()
