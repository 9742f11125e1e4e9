#!/usr/bin/env bash
# Build roload_bench from this checkout's sources, then measure one workload:
#
#   bash roload_bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from anywhere inside a full checkout.  Build output goes to stderr,
# so the last stdout line is the run's summary JSON.  Results files, Chrome
# traces and the GC event ring stay under .roload_bench/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "roload_bench: $root holds no dune-project and lib/; run it from a full checkout" >&2
  exit 2
fi
out=.roload_bench
mkdir -p "$out/events"
dune build --root . --cache=disabled --display=quiet roload_bench/roload_bench.exe 1>&2
OCAML_RUNTIME_EVENTS_DIR="$root/$out/events" \
  exec ./_build/default/roload_bench/roload_bench.exe run --out "$out" "$@"
