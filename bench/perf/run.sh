#!/usr/bin/env bash
# Builds bench/perf/perf.exe from source (release profile, without the
# shared dune cache, so everything it writes stays in this checkout's
# _build) and runs one workload:
#
#   bash bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# The last line of standard output is the run's JSON summary.  A failed
# build exits non-zero without printing one.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --profile release --cache=disabled ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe run "$@"
