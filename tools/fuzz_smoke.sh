#!/usr/bin/env bash
# Fuzz smoke: a bounded, seeded fuzz campaign (mpsoc_fuzz, 50 cases).  A
# fixed seed, so a failure here is a regression, never noise.
#
#   1. Two --emit passes of the same seed must print byte-identical scenario
#      sets: the generator is a pure function of seed and index.
#   2. The campaign runs every case fully monitored with activity gating on
#      and off, and fails on monitor violations, invariant trips,
#      gated/ungated digest divergence and run-to-completion cases that never
#      complete (hangs).  Any failure is delta-debugged down to a minimal
#      reproducer under <corpus-dir>, printed with its replay command.
#
# CI (.github/workflows/ci.yml) and tools/check.sh both run it.
#
# Usage: tools/fuzz_smoke.sh <path/to/mpsoc_fuzz> <corpus-dir>
set -uo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <path/to/mpsoc_fuzz> <corpus-dir>" >&2
  exit 2
fi
FUZZ="$1"
CORPUS="$2"
SEED=2026
COUNT=50

emit1="$(mktemp)"
emit2="$(mktemp)"
trap 'rm -f "$emit1" "$emit2"' EXIT

if ! "$FUZZ" --seed "$SEED" --count "$COUNT" --emit > "$emit1" ||
   ! "$FUZZ" --seed "$SEED" --count "$COUNT" --emit > "$emit2"; then
  echo "fuzz smoke: generator run failed"
  exit 1
fi
if ! diff "$emit1" "$emit2" > /dev/null; then
  echo "fuzz smoke: two --emit passes of the same seed differ (the"
  echo "generator must be a pure function of seed and index)"
  exit 1
fi
if ! "$FUZZ" --seed "$SEED" --count "$COUNT" --corpus-dir "$CORPUS"; then
  echo "fuzz smoke: campaign found a failure (minimal reproducer and"
  echo "replay command above; corpus under $CORPUS)"
  exit 1
fi
echo "fuzz smoke: $COUNT cases clean"
