#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it; every argument
# goes to e2e.exe. Run from the root of a full checkout:
#   bash bench_e2e/run.sh --workload hotlock-64 --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench_e2e/run.sh: needs the repository's dune-project and lib/ next to it" >&2
  exit 2
fi
# Keep every build product inside the checkout (no shared dune cache).
DUNE_CACHE=disabled dune build --root . ./bench_e2e/e2e.exe >&2
exec ./_build/default/bench_e2e/e2e.exe "$@"
