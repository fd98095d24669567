#!/usr/bin/env bash
# Report-identity gate. Every engine knob that must not change results is
# run on `repro fig10 --tiny` and on every artifact config in configs/ at
# tiny scale, and each report must equal the default run's byte for byte.
# The thread-count variants run the campaign units on a different schedule
# (one worker; three workers pulling from the shared queue), so this also
# compares reports across schedules. Adaptive sampling (`--ci-target
# 0.05`) gets its own base: its later rounds start from the classes
# earlier rounds settled, and the schedule and lane variants must not move
# its reports either.
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
declare -A flags_of keys_of
labels=()
for variant in "${variants[@]}"; do
  IFS='|' read -r label flags keys <<< "$variant"
  flags_of[$label]=$flags
  keys_of[$label]=$keys
  labels+=("$label")
done

# Config keys given ';'-separated, one per line.
key_lines() {
  if [ -n "$1" ]; then tr ';' '\n' <<< "$1"; fi
}

# check NAME BASE_FLAGS BASE_KEYS LABEL...: writes the base reports of
# fig10 and every config under the base flags and keys, then checks that
# each labelled variant on top of them reproduces every report.
check() {
  local name=$1 base_flags=$2 base_keys=$3
  shift 3
  local base="$work/$name" run="$work/$name-run" cfg cfg_name label
  mkdir "$base" "$run"
  # shellcheck disable=SC2086 # the flags are deliberately word-split
  "$repro" fig10 --tiny $base_flags > "$base/fig10.txt" 2>/dev/null
  for cfg in configs/*.cfg; do
    cfg_name=$(basename "$cfg" .cfg)
    {
      cat "$cfg"
      echo "scale = tiny"
      echo "percent_sampled_cycles_delay = 0.5"
      key_lines "$base_keys"
    } > "$base/$cfg_name.cfg"
    "$repro" --config "$base/$cfg_name.cfg" > "$base/$cfg_name.txt" 2>/dev/null
  done
  for label in "$@"; do
    # shellcheck disable=SC2086
    "$repro" fig10 --tiny $base_flags ${flags_of[$label]} > "$run/fig10.txt" 2>/dev/null
    cmp "$base/fig10.txt" "$run/fig10.txt" || {
      echo "$name fig10 report changed under $label" >&2
      exit 1
    }
    for cfg in "$base"/*.cfg; do
      cfg_name=$(basename "$cfg" .cfg)
      { cat "$cfg"; key_lines "${keys_of[$label]}"; } > "$run/$cfg_name.cfg"
      "$repro" --config "$run/$cfg_name.cfg" > "$run/$cfg_name.txt" 2>/dev/null
      cmp "$base/$cfg_name.txt" "$run/$cfg_name.txt" || {
        echo "$name $cfg_name report changed under $label" >&2
        exit 1
      }
    done
    echo "$name reports identical under $label"
  done
}

check uniform "" "" "${labels[@]}"
check adaptive "--ci-target 0.05" "ci_target = 0.05" \
  "threads 1" "threads 3" "one-lane batches"
