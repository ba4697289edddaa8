#!/usr/bin/env bash
# Digest-equivalence oracles over the shipped scenarios.  Every
# tools/scenarios/*.scn runs as a plain sweep and three more ways, and each
# must print the same per-scenario digests as the plain sweep:
#
#   --verify --statecheck  fully monitored, checkpointed mid-run, stepped,
#                          rewound and replayed (Simulator::replayCheck).  A
#                          state holder whose SIM_STATE manifest misses a
#                          member diverges inside the window (named,
#                          non-zero exit) or carries wrong state out of the
#                          rewind, which moves the final digest.
#   --no-gating            every component evaluated on every edge: one that
#                          sleeps while its evaluate() would still act
#                          changes the gated run.
#   -j 2                   two simulations side by side in the sweep pool:
#                          any state they share changes a digest.
#
# Fails on a failing run, on any digest difference and on an empty digest
# table.  CI (.github/workflows/ci.yml) and tools/check.sh both run it.
#
# Usage: tools/digest_sweeps.sh <path/to/mpsoc_run>
set -uo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 <path/to/mpsoc_run>" >&2
  exit 2
fi
RUN="$1"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# digests [flag...]: one "scenario digest" line per point of the sweep table.
digests() {
  "$RUN" "$@" --sweep "$ROOT"/tools/scenarios/*.scn |
    awk '/^== sweep/ {f = 1; next}
         f && length($NF) == 16 && $NF ~ /^[0-9a-f]+$/ {print $1, $NF}'
}

if ! plain="$(digests)" || [ -z "$plain" ]; then
  echo "digest sweeps: the plain sweep failed or printed no digests"
  exit 1
fi
echo "$plain"
status=0
for flags in "--verify --statecheck" "--no-gating" "-j 2"; do
  # Unquoted on purpose: each entry is a list of flags.
  # shellcheck disable=SC2086
  if ! other="$(digests $flags)"; then
    echo "digest sweeps: mpsoc_run $flags --sweep failed"
    status=1
  elif [ "$other" != "$plain" ]; then
    echo "digest sweeps: $flags digests differ from the plain sweep:"
    diff <(echo "$plain") <(echo "$other")
    status=1
  else
    echo "digest sweeps: $flags matches the plain sweep"
  fi
done
exit "$status"
