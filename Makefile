PYTHON ?= python
export PYTHONPATH := src

.PHONY: test loc test-durations test-optimizer test-repair test-conc test-semcache test-shard test-access test-lm bench bench-smoke artifacts-check perf perf-smoke lint lint-conc analyze-smoke trace-smoke verify

# pyproject's addopts already pass one -q; a second would drop the
# "N passed" summary line.
test:
	$(PYTHON) -m pytest -x

# Code lines of src/repro, per file and in total: physical lines that
# hold a token other than a comment or layout, outside docstrings (see
# tools/code_lines.py; tests/test_code_lines.py pins the rules).
loc:
	$(PYTHON) tools/code_lines.py src/repro

# Tier-1 wall time and its 20 slowest tests (the ledger's time tier:
# EXPERIMENTS.md records the table per perf PR); not part of verify.
test-durations:
	$(PYTHON) -m pytest --durations=20

# The query-optimizer suites on their own: plan-equivalence harness,
# golden EXPLAIN footers, selectivity regressions, and the suites of
# the name resolver they all read: how each statement binds at every
# layer (test_name_resolution), the analyzer's soundness both ways
# (test_property, the engine's error the analyzer's first included) and
# the golden diagnostics; every builtin's verdict and outcome at each
# arity (test_function_signatures), that a name's span is its whole
# source text (test_name_spans), and the code-line count's rules
# (test_code_lines).
test-optimizer:
	$(PYTHON) -m pytest tests/db/test_optimizer_equivalence.py tests/db/test_optimizer_explain.py tests/analysis/test_selectivity.py tests/db/test_name_resolution.py tests/analysis/test_property.py tests/analysis/test_diagnostics_golden.py tests/analysis/test_function_signatures.py tests/db/test_name_spans.py tests/test_code_lines.py

# The self-correction suites on their own: repair-loop mechanics,
# worker-invariance with repairs firing, the repair handler, metered
# row-cap truncation, and a smoke pass of the E18 sweep.
test-repair:
	$(PYTHON) -m pytest tests/core/test_repair.py tests/serve/test_repair_determinism.py tests/lm/test_repair_handler.py tests/db/test_max_rows.py
	REPRO_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_repair.py

# The semantic-cache suites on their own: canonicalizer properties,
# cache unit tests (including both retrieval-path regression
# suites), the serve-integration equivalence/invariance tests, and the
# vector indexes' score pin (flat and IVF results bit for bit) and spin
# test (BLAS runs on the calling thread, no pool burns a second core).
test-semcache:
	$(PYTHON) -m pytest tests/serve/test_semantic.py tests/serve/test_semantic_serve.py tests/embed/test_hashing.py tests/vector/test_indexes.py -q

# The sharded-execution suites on their own: partitioning specs,
# shard/worker equivalence and pruning, shard-merge trace determinism,
# and a smoke pass of the E21 shard x fault sweep.
test-shard:
	$(PYTHON) -m pytest tests/db/test_sharding.py tests/obs/test_shard_trace.py -q
	REPRO_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_sharding.py -q

# The index access-path suites on their own: index-vs-no-index and
# sqlite3 properties for ranges and key joins, Top-N against the full
# sort, golden IndexRange/IndexJoin renders, and the write state
# machine (ordered-index upkeep under every write shape); the
# comparison kernel's frozen-reference oracle, which every one of those
# paths compares through, and the morsel kernels' (Aggregate folds,
# Sort key encodings, Filter and the HashJoin probe against frozen
# copies of their row-at-a-time loops, around a morsel boundary); the
# expression kernels' pins: which error a statement raises when rows
# fail on either side of a morsel boundary and how often a UDF runs
# (test_morsel_errors, test_kernel_errors, test_where_narrowing), the
# reads, UDF/LM calls and EXPLAIN ANALYZE rows under LIMIT
# (test_limit_reads), and WHERE and SELECT-list values against sqlite3
# on NULL-heavy columns (test_sqlite_differential); and the statement
# cache's pin (a repeated
# statement answers as one never seen, after any interleaving of writes,
# index builds, UDF re-registration and DDL) with its unit and stress
# tests; and the template pin (a text run after its literal siblings
# answers, explains and is rejected as on a cold database) with the
# binding tests (a bound AST is parse_statement's, positions included),
# a template key's rows against sqlite3 around every catalog event (its
# kept owners dropped after each), and the lexer's tests and its token
# digest over a fixed corpus, since template binding reads token
# positions.
test-access:
	$(PYTHON) -m pytest tests/db/test_access_paths.py tests/db/test_top_n.py tests/obs/test_access_path_explain.py tests/db/test_write_state_machine.py tests/db/test_compare_kernel.py tests/db/test_morsel_kernels.py tests/db/test_morsel_errors.py tests/db/test_kernel_errors.py tests/db/test_where_narrowing.py tests/db/test_limit_reads.py tests/db/test_sqlite_differential.py tests/db/test_statement_cache.py tests/db/test_statement_reuse.py tests/db/test_statement_templates.py tests/db/test_template_binding.py tests/db/test_kept_resolution.py tests/db/test_lexer.py tests/db/test_token_digest.py -q

# What is derived once, against its frozen references: the handlers'
# schema and vocabulary derivations, the embedder's buckets and the
# shared row corpus (tests/lm/test_handler_memo.py; do not edit its
# reference half), the simulated judge's condition bank against a
# frozen copy of the ungated bank (tests/lm/test_condition_bank.py;
# same rule), how the answer and Text2SQL handlers read a prompt and
# test a row against frozen copies of the line readers and the row test
# (tests/lm/test_prompt_reading.py; same rule), the prompt-schema
# staleness and Table.version tests, and the reference-cycle check on a
# served pass.
test-lm:
	$(PYTHON) -m pytest tests/lm/test_handler_memo.py tests/lm/test_condition_bank.py tests/lm/test_prompt_reading.py tests/data/test_datasets.py tests/core/test_tag.py tests/serve/test_server.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-smoke:
	REPRO_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_resilience.py benchmarks/bench_repair.py benchmarks/bench_trace_overhead.py benchmarks/bench_udf_batching.py benchmarks/bench_optimizer.py benchmarks/bench_racecheck.py benchmarks/bench_semcache.py benchmarks/bench_sharding.py -q

# Regenerate, full-size, the nineteen artifacts that are deterministic
# and quick (~35 s together), and fail if any differs from the committed
# file.  Tables 1 and 2 hold every method's answers and virtual ET over
# the 80 questions; aggregation_quality, figure2 and the top-k strategy,
# external-knowledge, batching and retrieval-depth ablations read the
# suite and its oracles; the UDF-pushdown and vector-index ablations
# and repair their own fixed workloads;
# serving_throughput and semcache_sweep the serving demo's;
# racecheck_overhead the checked replay's event and variable counts and
# trace_overhead the traced replay's makespans and span count (their
# wall times go to ignored racecheck_overhead.wall.txt and
# trace_overhead.wall.txt).
# Smoke runs never write under benchmarks/out (see
# benchmarks/conftest.py), so the committed files stay the full-size ones.
ARTIFACTS = udf_batching optimizer_plan_choice sharding resilience table1 table2 aggregation_quality figure2 ablation_topk_strategy ablation_external_knowledge ablation_batching ablation_retrieval_k ablation_udf_pushdown ablation_vector_index repair serving_throughput semcache_sweep racecheck_overhead trace_overhead
artifacts-check:
	$(PYTHON) -m pytest benchmarks/bench_udf_batching.py benchmarks/bench_optimizer.py benchmarks/bench_sharding.py benchmarks/bench_resilience.py benchmarks/bench_table1.py benchmarks/bench_table2.py benchmarks/bench_aggregation_quality.py benchmarks/bench_figure2.py benchmarks/bench_ablation_topk_strategy.py benchmarks/bench_ablation_external_knowledge.py benchmarks/bench_ablation_batching.py benchmarks/bench_ablation_retrieval_k.py benchmarks/bench_ablation_udf_pushdown.py benchmarks/bench_ablation_vector_index.py benchmarks/bench_repair.py benchmarks/bench_serving.py benchmarks/bench_semcache.py benchmarks/bench_racecheck.py benchmarks/bench_trace_overhead.py -q
	git diff --exit-code -- $(ARTIFACTS:%=benchmarks/out/%.txt)

# Wall-clock benchmark (benchmarks/perf, see its README): measure all
# five workloads, then hold the eight end-to-end metrics to their
# bounds against the committed baseline.  Exits nonzero when a metric
# is worse than the baseline by more than its bound or an output check
# fails.  ~3 minutes; not part of verify.
perf:
	$(PYTHON) -m benchmarks.perf run --all
	$(PYTHON) -m benchmarks.perf compare benchmarks/perf/results.json benchmarks/perf/out/results.json

# The benchmark harness's own smoke tests (short windows, every
# workload's output checks, the comparison rules).
perf-smoke:
	$(PYTHON) -m pytest benchmarks/perf -q

# The concurrency suites on their own: static-analyzer golden rules
# and lockset properties, dynamic checker unit tests, the serve
# worker-sweep replay under an installed RaceChecker, and the meter's
# pin (every dual-sink counter, no count lost under contention, one
# seam).
test-conc:
	$(PYTHON) -m pytest tests/analysis/test_concurrency.py tests/obs/test_racecheck.py tests/serve/test_racecheck_serve.py tests/obs/test_meter.py -q

# Determinism linter over src/ (see repro.analysis.lint); exits
# nonzero on any unsuppressed finding.
lint:
	$(PYTHON) -m repro lint

# Static concurrency analyzer over src/ (lockset inference, shared
# state, lock order — see repro.analysis.concurrency); exits nonzero
# on any unwaived CONC finding.
lint-conc:
	$(PYTHON) -m repro lint --conc

# The static analyzer must accept a known-good query and reject a
# known-bad one, end to end through the CLI.
analyze-smoke:
	$(PYTHON) -m repro analyze "SELECT name FROM circuits LIMIT 3" --db formula_1
	! $(PYTHON) -m repro analyze "SELECT nope FROM circuits" --db formula_1

# Trace determinism smoke: the same traced demo workload must export
# byte-identical Chrome traces at different worker counts (the
# tentpole contract of repro.obs).
trace-smoke:
	@mkdir -p benchmarks/out
	$(PYTHON) -m repro trace --workers 1 --out benchmarks/out/trace-w1.json
	$(PYTHON) -m repro trace --workers 3 --out benchmarks/out/trace-w3.json
	cmp benchmarks/out/trace-w1.json benchmarks/out/trace-w3.json
	@rm -f benchmarks/out/trace-w1.json benchmarks/out/trace-w3.json
	@echo "trace-smoke: byte-identical across worker counts"

# The pre-merge gate: full tier-1 suite, the concurrency,
# semantic-cache, access-path and derived-once suites, a smoke-mode
# pass of the resilience, repair,
# trace-overhead, race-check, and semantic-cache benchmarks, the
# full-size regeneration check of nineteen committed artifacts, the
# wall-clock harness's smoke tests, clean determinism-lint and
# concurrency baselines, an analyzer round-trip through the CLI, and
# the trace worker-invariance smoke.
verify: test test-conc test-semcache test-access test-lm bench-smoke artifacts-check perf-smoke lint lint-conc analyze-smoke trace-smoke
	@echo "verify: OK"
