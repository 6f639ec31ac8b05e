"""Wall-clock benchmark for the TAG reproduction.

Everything here lives outside ``src/`` on purpose: the determinism
linter (DET101) bans wall-clock reads in library code, so the harness
measures each layer from outside, by timing calls into its public
functions.  See ``README.md`` in this directory for the workloads, the
metric vocabulary, and how to read the output.
"""
