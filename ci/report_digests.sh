#!/usr/bin/env bash
# Report-digest gate. Runs `repro fig10 --tiny` and every artifact config
# in configs/ at tiny scale (`percent_sampled_cycles_delay = 0.5`), once
# uniform and once under adaptive sampling (`--ci-target 0.05` /
# `ci_target = 0.05`), and checks each report's SHA-256 against the
# checked-in ci/expected_reports.sha256. ci/report_identity.sh compares
# knob variants with each other, so a change that moves a class on both
# sides passes it; this gate pins the reports themselves.
#
# When a change is meant to move a result, regenerate the digests with
#   ci/report_digests.sh --update
# and commit the new ci/expected_reports.sha256 with that change, saying
# in its description which reports moved and why.
#
# Usage: ci/report_digests.sh [--update] [REPRO]   (default: target/release/repro)
# Run from the repository root after `cargo build --release`.
set -euo pipefail

update=false
if [ "${1:-}" = "--update" ]; then
  update=true
  shift
fi
repro=${1:-target/release/repro}
expected=ci/expected_reports.sha256
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# reports NAME FIG10_FLAGS CONFIG_KEY: writes NAME/fig10.txt and one
# NAME/<config>.txt per artifact config.
reports() {
  local name=$1 flags=$2 key=$3 cfg cfg_name
  mkdir "$work/$name"
  # shellcheck disable=SC2086 # the flags are deliberately word-split
  "$repro" fig10 --tiny $flags > "$work/$name/fig10.txt" 2>/dev/null
  for cfg in configs/*.cfg; do
    cfg_name=$(basename "$cfg" .cfg)
    {
      cat "$cfg"
      echo "scale = tiny"
      echo "percent_sampled_cycles_delay = 0.5"
      if [ -n "$key" ]; then echo "$key"; fi
    } > "$work/$name/$cfg_name.cfg"
    "$repro" --config "$work/$name/$cfg_name.cfg" > "$work/$name/$cfg_name.txt" 2>/dev/null
  done
}

reports uniform "" ""
reports adaptive "--ci-target 0.05" "ci_target = 0.05"

if $update; then
  (cd "$work" && sha256sum uniform/*.txt adaptive/*.txt) > "$expected"
  echo "wrote $expected"
else
  if ! (cd "$work" && sha256sum --check --quiet) < "$expected"; then
    echo "reports differ from $expected; see the header of $0" >&2
    exit 1
  fi
  echo "every report matches $expected"
fi
