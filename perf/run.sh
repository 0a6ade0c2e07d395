#!/bin/sh
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#   sh perf/run.sh --workload t1-small --seed 7 --seconds 15 --trace 0
# dune builds only what qs_bench needs, into _build, and bypasses the
# shared dune cache so nothing is written outside the checkout.
exec dune exec --root . --cache=disabled --no-print-directory --display=quiet ./perf/qs_bench.exe -- "$@"
