#!/usr/bin/env bash
# Builds the simulator and its end-to-end benchmark from source, then runs
# the benchmark; every argument passes through to e2e.exe (see README.md).
# Run from the repository root.  Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
dune build --root . --cache=disabled ./bench/e2e/e2e.exe >&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
