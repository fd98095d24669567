#!/usr/bin/env bash
# Report-identity gate. Every engine knob that must not change results is
# run on `repro fig10 --tiny` and on every artifact config in configs/ at
# tiny scale, and each report must equal the default run's byte for byte.
# The thread-count variants run the campaign units on a different schedule
# (one worker; three workers pulling from the shared queue), so this also
# compares reports across schedules.
#
# Usage: ci/report_identity.sh [REPRO]   (default: target/release/repro)
# Run from the repository root after `cargo build --release`.
set -euo pipefail

repro=${1:-target/release/repro}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# label | repro flags for fig10 | config keys (';'-separated)
variants=(
  "collapse off|--no-collapse|collapse = off"
  "one-lane batches|--lanes 1 --timing-lanes 1|lanes = 1;timing_lanes = 1"
  "timing_lanes 1|--timing-lanes 1|timing_lanes = 1"
  "lanes 64|--lanes 64 --timing-lanes 64|lanes = 64;timing_lanes = 64"
  "lanes 256|--lanes 256 --timing-lanes 256|lanes = 256;timing_lanes = 256"
  "lanes 512|--lanes 512 --timing-lanes 512|lanes = 512;timing_lanes = 512"
  "dormant strata 9|--strata 9|strata = 9"
  "threads 1|--threads 1|threads = 1"
  "threads 3|--threads 3|threads = 3"
)

mkdir "$work/base" "$work/run"
"$repro" fig10 --tiny > "$work/base/fig10.txt" 2>/dev/null
for cfg in configs/*.cfg; do
  name=$(basename "$cfg" .cfg)
  { cat "$cfg"; echo "scale = tiny"; echo "percent_sampled_cycles_delay = 0.5"; } > "$work/base/$name.cfg"
  "$repro" --config "$work/base/$name.cfg" > "$work/base/$name.txt" 2>/dev/null
done

for variant in "${variants[@]}"; do
  IFS='|' read -r label flags keys <<< "$variant"
  # shellcheck disable=SC2086 # the flags are deliberately word-split
  "$repro" fig10 --tiny $flags > "$work/run/fig10.txt" 2>/dev/null
  cmp "$work/base/fig10.txt" "$work/run/fig10.txt" || {
    echo "fig10 report changed under $label" >&2
    exit 1
  }
  for cfg in "$work"/base/*.cfg; do
    name=$(basename "$cfg" .cfg)
    { cat "$cfg"; tr ';' '\n' <<< "$keys"; } > "$work/run/$name.cfg"
    "$repro" --config "$work/run/$name.cfg" > "$work/run/$name.txt" 2>/dev/null
    cmp "$work/base/$name.txt" "$work/run/$name.txt" || {
      echo "$name report changed under $label" >&2
      exit 1
    }
  done
  echo "reports identical under $label"
done
