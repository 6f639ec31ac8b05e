"""Entry point: ``PYTHONPATH=src python -m benchmarks.perf ...`` from the
repo root, or ``python3 benchmarks/perf/__main__.py ...`` (the form
``BENCHMARK.json`` uses), which finds ``src/`` itself."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        # A directory holding only the benchmark: nothing to measure.
        sys.stderr.write(
            f"benchmarks.perf: no program under {ROOT / 'src' / 'repro'}\n"
        )
        sys.exit(2)
    # Run as a script, sys.path[0] is this directory, whose trace.py
    # would shadow the stdlib module of that name: import the harness
    # as the package benchmarks.perf instead.
    sys.path[:] = [
        entry for entry in sys.path if Path(entry or ".").resolve() != HERE
    ]
    for entry in (str(ROOT / "src"), str(ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from benchmarks.perf.cli import main

    sys.exit(main())
