"""Pin what the serving demo prints and writes.

The romance-movie demo (the paper's Figure 1 request) backs ``repro
serve``, ``repro trace`` and ``examples/serve_concurrent.py``.  Each
case below hashes the bytes one of them produces: ``serve``'s stdout and
exit code under seven flag sets, the Chrome file ``serve --trace``
writes, ``trace``'s Chrome and JSONL files at one and three workers, and
the example's stdout.  A change to how the demo is built must leave
every digest as it is.
"""

from __future__ import annotations

import hashlib
import runpy
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: serve flags -> (exit code, sha256 of stdout).
SERVE = {
    (): (
        0,
        "43297b2df6ca3535780dbc777596a914bca85336ba97eae69d295020f1459f42",
    ),
    ("--fault-rate", "0.25", "--seed", "5", "--retries", "3"): (
        0,
        "432fc5e91918822ca7b1caf21933bb1f1f8968b012d3730f3a863318b1b64e3d",
    ),
    ("--fault-rate", "0.4", "--retries", "0", "--no-fallback"): (
        1,
        "dfe171f9372c6c9750d775fedb3ee363d2410e764d5d34940d679a1629c54b4f",
    ),
    ("--requests", "8", "--admit-budget", "10"): (
        0,
        "5c8cffa69d09e3020525dcff43a25c9b56b4f181880ce1c3a3658d5c83bf5892",
    ),
    ("--max-repairs", "2", "--fault-rate", "0.25"): (
        0,
        "054d3b72c10985ca997df4c83c1820bc85acabbceea5ae91b1f2bd152d628f7a",
    ),
    ("--semantic-cache", "8", "--workers", "8"): (
        0,
        "435ad5c91ce004362dda45416f0a4ac48af4ff62bd21ffed3406989d30a167fb",
    ),
    ("--no-optimize", "--admit-budget", "100000"): (
        0,
        "114069605e85ff63f137b372f6ca323d3c95532b4899e5f2d6b281cb7fca8899",
    ),
}

SERVE_TRACE = (
    "b8aa2b493f78429caa591aebe383e124e1d31f9354c1666b8aba2d1ddd6f5a6a"
)

#: trace --format -> sha256 of the file, the same at --workers 1 and 3.
TRACE = {
    "chrome": (
        "c23b7ae7269dbba5a81953cf8936a061b74eb42aa23f77fbfb55320cef089187"
    ),
    "jsonl": (
        "6f0061ea579270469a08118a66bf95dfa23cfe8b41d538b41b02569c984fbe51"
    ),
}

EXAMPLE = (
    "f0a15ac9db0da85d343166678d0c20a1fb5a5d23810fb4d6a49b8484825846a8"
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags", list(SERVE), ids=" ".join)
def test_serve_stdout_and_exit_code(flags, capsys):
    code = main(["serve", *flags])
    stdout = capsys.readouterr().out
    assert (code, _sha256(stdout.encode("utf-8"))) == SERVE[flags]


def test_serve_trace_file(tmp_path, capsys):
    out = tmp_path / "serve.json"
    assert main(["serve", "--trace", str(out)]) == 0
    assert _sha256(out.read_bytes()) == SERVE_TRACE


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("trace_format", list(TRACE))
def test_trace_file(trace_format, workers, tmp_path, capsys):
    out = tmp_path / f"trace.{trace_format}"
    assert (
        main(
            [
                "trace",
                "--workers", workers,
                "--format", trace_format,
                "--out", str(out),
            ]
        )
        == 0
    )
    assert _sha256(out.read_bytes()) == TRACE[trace_format]


def test_serve_concurrent_example_stdout(capsys):
    runpy.run_path(
        str(ROOT / "examples" / "serve_concurrent.py"), run_name="__main__"
    )
    stdout = capsys.readouterr().out
    assert _sha256(stdout.encode("utf-8")) == EXAMPLE
