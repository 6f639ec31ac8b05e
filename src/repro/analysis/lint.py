"""Determinism linter for this codebase (``python -m repro lint``).

The deterministic serving layer's guarantees (bit-identical reports for
a fixed seed, at any worker count) only hold if *no* code path reads
wall-clock time, consumes unseeded randomness, or mutates shared state
outside its lock.  Those invariants are easy to break in review-sized
diffs, so this module enforces them statically over ``src/`` with
Python's own ``ast``:

======= ==============================================================
code    rule
======= ==============================================================
DET101  wall-clock read (``time.time``/``monotonic``/``perf_counter``/
        ``process_time``, ``datetime.now``/``utcnow``, ``date.today``)
        anywhere but ``serve/clock.py`` — simulated time must come from
        the virtual clock
DET102  unseeded randomness: module-level ``random.*`` calls (use a
        seeded ``random.Random`` instance) or ``numpy.random.*`` calls
        other than ``default_rng``/``Generator``/``SeedSequence``
DET103  bare ``except:`` (swallows ``KeyboardInterrupt`` and hides the
        failure taxonomy the serving layer depends on)
DET104  mutable default argument (``def f(x=[])``) — shared across
        calls, a classic source of cross-request state leaks
DET105  lock discipline: a ``*_locked`` helper reachable with an empty
        lockset (the naming convention the serve layer uses for state
        that must be mutated under its lock).  Backed by the
        interprocedural lockset inference in
        :mod:`repro.analysis.concurrency`, so aliased method references
        (``m = self._f_locked; m()``), ``self.__class__`` dispatch,
        helpers whose callers hold the lock for them, and
        ``racecheck.guard(...)``-wrapped scopes are all resolved —
        fixing the old name-only check's blind spots in both directions
DET106  runtime identity in trace stamping: ``id()``/``hash()``/
        ``uuid.*`` calls inside ``repro/obs/`` — span identity must be
        assigned at export time from (request index, tree order), never
        from interpreter addresses, salted hashes, or UUIDs, or trace
        bytes vary run-to-run
======= ==============================================================

Findings can be suppressed via ``[tool.repro.lint]`` in
``pyproject.toml``::

    [tool.repro.lint]
    allow = [
        "src/repro/serve/clock.py:DET101  # the clock IS the time source",
    ]

Each entry is ``<path>:<CODE>`` with an optional ``#``-comment
justification; the path is repo-root-relative with forward slashes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

# One-way dependency: the linter consumes the concurrency analyzer's
# lockset engine (for DET105); concurrency.py never imports this module.
from repro.analysis import concurrency as _conc

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.11 is the floor
    tomllib = None

#: Paths (suffix-matched, "/"-normalized) where DET101 is expected:
#: the virtual clock itself is the one sanctioned time source.
_CLOCK_PATHS = ("serve/clock.py",)

#: Path fragment ("/"-normalized) marking the observability package,
#: where DET106 forbids runtime-identity sources in span stamping.
_OBS_FRAGMENT = "repro/obs/"

#: Builtins whose results vary across interpreter runs (addresses,
#: salted string hashing) — banned in repro/obs/ by DET106.
_IDENTITY_BUILTINS = ("id", "hash")

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: numpy.random entry points that take an explicit seed.
_SEEDED_NP_RANDOM = {"default_rng", "Generator", "SeedSequence", "RandomState"}

#: random-module attributes that are classes (instantiating is fine,
#: the instance is seeded explicitly), not global-state functions.
_RANDOM_CLASSES = {"Random", "SystemRandom"}


@dataclass(frozen=True)
class LintFinding:
    """One linter finding, addressable for allowlisting."""

    path: str  # repo-root-relative, forward slashes
    line: int
    column: int
    code: str
    message: str

    @property
    def key(self) -> str:
        """The ``path:CODE`` string an allowlist entry must match."""
        return f"{self.path}:{self.code}"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.code} {self.message}"
        )

    def __str__(self) -> str:
        return self.render()


class _FileLinter(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        is_clock_module: bool,
        is_obs_module: bool = False,
    ) -> None:
        self.path = path
        self.is_clock_module = is_clock_module
        self.is_obs_module = is_obs_module
        self.findings: list[LintFinding] = []
        #: module aliases: local name -> canonical module ("time",
        #: "random", "numpy.random", "datetime")
        self.modules: dict[str, str] = {}
        #: names imported from modules: local name -> (module, attr)
        self.from_imports: dict[str, tuple[str, str]] = {}

    # -- bookkeeping -----------------------------------------------------

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                self.path,
                getattr(node, "lineno", 0),
                getattr(node, "col_offset", 0),
                code,
                message,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name in (
                "time",
                "random",
                "datetime",
                "numpy.random",
                "uuid",
            ):
                self.modules[local] = alias.name
            elif alias.name == "numpy":
                self.modules[local] = "numpy"
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            local = alias.asname or alias.name
            if module in ("time", "random", "datetime", "uuid"):
                self.from_imports[local] = (module, alias.name)
            elif module == "numpy" and alias.name == "random":
                self.modules[local] = "numpy.random"
            elif module == "numpy.random":
                self.from_imports[local] = ("numpy.random", alias.name)
        self.generic_visit(node)

    # -- resolution ------------------------------------------------------

    def _call_target(self, func: ast.expr) -> tuple[str, str] | None:
        """(module, attribute) a call resolves to, or None."""
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            base = func.value.id
            if base in self.modules:
                return self.modules[base], func.attr
            if base in self.from_imports:
                # e.g. ``from datetime import datetime`` then
                # ``datetime.now()``: base resolves to a class.
                module, attribute = self.from_imports[base]
                if module == "datetime":
                    return attribute, func.attr
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Attribute
        ):
            # e.g. ``np.random.random()`` / ``datetime.datetime.now()``
            inner = func.value
            if isinstance(inner.value, ast.Name):
                base = inner.value.id
                if (
                    self.modules.get(base) == "numpy"
                    and inner.attr == "random"
                ):
                    return "numpy.random", func.attr
                if self.modules.get(base) == "datetime":
                    return inner.attr, func.attr
            return None
        if isinstance(func, ast.Name) and func.id in self.from_imports:
            return self.from_imports[func.id]
        return None

    # -- rules -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        target = self._call_target(node.func)
        if target is not None:
            module, attribute = target
            if (
                (module, attribute) in _WALL_CLOCK
                and not self.is_clock_module
            ):
                self._flag(
                    node,
                    "DET101",
                    f"wall-clock read {module}.{attribute}() — use the "
                    "virtual clock (serve/clock.py)",
                )
            if module == "random" and attribute not in _RANDOM_CLASSES:
                self._flag(
                    node,
                    "DET102",
                    f"global random.{attribute}() — use a seeded "
                    "random.Random instance",
                )
            if (
                module == "numpy.random"
                and attribute not in _SEEDED_NP_RANDOM
            ):
                self._flag(
                    node,
                    "DET102",
                    f"global numpy.random.{attribute}() — use "
                    "numpy.random.default_rng(seed)",
                )
            if module == "uuid" and self.is_obs_module:
                self._flag(
                    node,
                    "DET106",
                    f"uuid.{attribute}() in repro/obs/ — span ids are "
                    "assigned at export time from tree order",
                )
        # DET106: interpreter-identity builtins in the obs package.
        if (
            self.is_obs_module
            and isinstance(node.func, ast.Name)
            and node.func.id in _IDENTITY_BUILTINS
        ):
            self._flag(
                node,
                "DET106",
                f"builtin {node.func.id}() in repro/obs/ — varies "
                "across interpreter runs; derive identity from "
                "(request index, tree order) at export time",
            )
        # DET105 is no longer checked here: the lockset inference in
        # repro.analysis.concurrency handles it (see _det105_findings).
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(
                node,
                "DET103",
                "bare 'except:' — catch a concrete exception type",
            )
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            default
            for default in node.args.kw_defaults
            if default is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set")
            )
            if mutable:
                self._flag(
                    default,
                    "DET104",
                    f"mutable default argument in {node.name}() — "
                    "default to None and construct inside",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]


def _det105_findings(tree: ast.Module, path: str) -> list[LintFinding]:
    """DET105 via the concurrency analyzer's lockset inference.

    A ``*_locked`` helper is flagged at every call site reachable with
    an empty effective lockset — interprocedurally, so helpers invoked
    through aliases or ``self.__class__``, and helpers whose callers
    provably hold the lock, are both resolved correctly.
    """
    collector = _conc._ModuleCollector(path)
    collector.visit(tree)
    findings: list[LintFinding] = []
    for model in collector.classes:
        for callee, line, column, _method in _conc.unlocked_locked_calls(
            model
        ):
            findings.append(
                LintFinding(
                    path,
                    line,
                    column,
                    "DET105",
                    f"{callee}() called outside a 'with <lock>:' block",
                )
            )
    for callee, line, column, _name in _conc.unlocked_module_locked_calls(
        collector.module_functions
    ):
        findings.append(
            LintFinding(
                path,
                line,
                column,
                "DET105",
                f"{callee}() called outside a 'with <lock>:' block",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Running the linter
# ---------------------------------------------------------------------------


def lint_file(path: Path, root: Path) -> list[LintFinding]:
    """Lint one Python file; returns findings (unfiltered)."""
    relative = path.relative_to(root).as_posix()
    is_clock = any(relative.endswith(clock) for clock in _CLOCK_PATHS)
    is_obs = _OBS_FRAGMENT in relative
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError as error:
        return [
            LintFinding(
                relative,
                error.lineno or 0,
                error.offset or 0,
                "DET100",
                f"file does not parse: {error.msg}",
            )
        ]
    linter = _FileLinter(relative, is_clock, is_obs)
    linter.visit(tree)
    findings = linter.findings + _det105_findings(tree, relative)
    return sorted(findings, key=lambda f: (f.line, f.column, f.code))


def load_allowlist(root: Path) -> dict[str, str]:
    """``path:CODE -> justification`` from pyproject's [tool.repro.lint]."""
    pyproject = root / "pyproject.toml"
    if tomllib is None or not pyproject.exists():
        return {}
    with pyproject.open("rb") as handle:
        data = tomllib.load(handle)
    entries = (
        data.get("tool", {}).get("repro", {}).get("lint", {}).get("allow", [])
    )
    allowlist: dict[str, str] = {}
    for entry in entries:
        key, _, justification = entry.partition("#")
        allowlist[key.strip()] = justification.strip()
    return allowlist


def lint_tree(root: Path) -> tuple[list[LintFinding], list[LintFinding]]:
    """Lint every ``.py`` under ``root/src``.

    Returns ``(reported, suppressed)`` after applying the pyproject
    allowlist; both lists are deterministically ordered.
    """
    allowlist = load_allowlist(root)
    reported: list[LintFinding] = []
    suppressed: list[LintFinding] = []
    for path in sorted((root / "src").rglob("*.py")):
        for finding in lint_file(path, root):
            if finding.key in allowlist:
                suppressed.append(finding)
            else:
                reported.append(finding)
    return reported, suppressed
