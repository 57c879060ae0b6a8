#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload NAME --seed S --seconds T --trace 0|1
#   bash perfbench/run.sh sweep --runs 10 --out set.json
#   bash perfbench/run.sh compare PARENT.json CHANGE.json
#
# Run from the root of a checkout; without one (no dune-project and
# lib/ beside perfbench/) it fails before building anything.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d perfbench ]; then
  echo "perfbench: run from the root of a source checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi
dune build --root . --display quiet ./perfbench/main.exe >&2

case "${1:-}" in
  run | sweep | compare) ;;
  *) set -- run "$@" ;;
esac
exec ./_build/default/perfbench/main.exe "$@"
