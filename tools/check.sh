#!/usr/bin/env bash
# One-command analysis stack for mpsocsim:
#   1. build (ASan+UBSan)
#   2. full ctest pass under AddressSanitizer + UndefinedBehaviorSanitizer
#      (includes the whole-tree mpsoc_lint run, the monitored platform smoke
#      runs and the protocol-monitor negative tests)
#   3. monitored scenario sweep: every shipped scenario under
#      mpsoc_run --verify (protocol monitors, leaks checked at the end)
#   4. parallel-sweep smoke: the shipped scenarios at -j 2 vs -j 1 must emit
#      byte-identical digest sets (determinism under parallelism)
#   5. gating smoke: fig3-small and a small NoC mesh, gated vs --no-gating
#      digest compare — a mismatch means some component slept with work
#      pending
#   6. statecheck sweep: every shipped scenario under the
#      checkpoint-equivalence oracle (mpsoc_run --verify --statecheck) — the
#      oracle checkpoints mid-run, re-runs a window of edges after a rewind
#      and fails the stage if any state holder's digest diverges (an
#      incomplete SIM_STATE manifest); final digests must still match the
#      unchecked sweep
#   7. fuzz smoke: a bounded seeded campaign (mpsoc_fuzz, 50 cases) —
#      generator determinism is asserted by diffing two --emit passes, then
#      the monitored campaign gates on violations, invariant trips,
#      gated/ungated digest divergence and run-to-completion cases that never
#      complete (hangs), auto-shrinking any failure to a minimal reproducer
#   8. ThreadSanitizer sweep: separate TSan build (tsan is incompatible with
#      asan) running every shipped scenario, monitored, as one
#      mpsoc_run --sweep -j 4 — the sweep pool is the only multi-threaded
#      path, so any state shared between concurrent simulations fails here
#   9. clang-format --dry-run over src/ tests/ tools/ (skipped with a notice
#      when clang-format is not installed; tests/lint/ fixtures excluded)
#
# Usage: tools/check.sh [build-dir]     (default: build-check)
# Exit status is non-zero if any stage fails; all stages run so one pass
# reports every failure.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-check}"
JOBS="$(nproc 2>/dev/null || echo 4)"
FAILED=0

stage() { printf '\n=== %s ===\n' "$*"; }

# same_digests A.json B.json WHY: succeed when two mpsoc_run --json outputs
# carry the same non-empty list of per-point digests; otherwise print WHY and
# the digest diff.
same_digests() {
  local a b
  a="$(grep -o '"digest": "[0-9a-f]*"' "$1")"
  b="$(grep -o '"digest": "[0-9a-f]*"' "$2")"
  [ -n "$a" ] && [ "$a" = "$b" ] && return 0
  echo "$3"
  diff <(echo "$a") <(echo "$b")
  return 1
}

stage "configure (ASan+UBSan)"
cmake -B "$BUILD" -S "$ROOT" -DMPSOC_SANITIZE="address;undefined" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo || exit 1

stage "build"
cmake --build "$BUILD" -j "$JOBS" || exit 1

stage "ctest under ASan+UBSan"
# halt_on_error makes UBSan findings fail the test instead of just logging.
if ! (cd "$BUILD" && \
      ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
      ctest --output-on-failure -j "$JOBS"); then
  FAILED=1
fi

stage "monitored scenario sweep (mpsoc_run --verify)"
if ! "$BUILD/tools/mpsoc_run" --verify "$ROOT"/tools/scenarios/*.scn; then
  FAILED=1
fi

stage "parallel-sweep smoke (-j 2 vs -j 1 digest compare)"
# A tiny grid (reduced workload scale) so the smoke stays fast; the digest
# sets of the serial and parallel runs must be byte-identical.
mkdir -p "$BUILD/sweep-smoke"
for topo in single-layer collapsed full; do
  cat > "$BUILD/sweep-smoke/$topo.scn" <<EOF
name = smoke-$topo
protocol = stbus
topology = $topo
memory = onchip
wait_states = 1
workload_scale = 0.1
include_cpu = false
EOF
done
if "$BUILD/tools/mpsoc_run" --sweep -j 1 --json "$BUILD/sweep-smoke/j1.json" \
      "$BUILD/sweep-smoke"/*.scn > /dev/null && \
   "$BUILD/tools/mpsoc_run" --sweep -j 2 --json "$BUILD/sweep-smoke/j2.json" \
      "$BUILD/sweep-smoke"/*.scn > /dev/null; then
  if same_digests "$BUILD/sweep-smoke/j1.json" "$BUILD/sweep-smoke/j2.json" \
       "sweep smoke: -j 1 and -j 2 digests differ (determinism regression)"
  then
    echo "sweep smoke: digests identical at -j 1 and -j 2"
  else
    FAILED=1
  fi
else
  echo "sweep smoke: mpsoc_run failed"
  FAILED=1
fi

stage "gating smoke (activity gating on vs off)"
# The Fig. 3 full-platform instance and a 4x3 NoC mesh (sleeping routers
# and master adapters) at reduced workload scale, gated vs --no-gating: the
# digests must match, or some component slept with work pending.
mkdir -p "$BUILD/gating-smoke"
cat > "$BUILD/gating-smoke/fig3-small.scn" <<EOF
name = fig3-small
protocol = stbus
topology = full
memory = onchip
wait_states = 1
workload_scale = 0.25
EOF
cat > "$BUILD/gating-smoke/noc-small.scn" <<EOF
name = noc-small
protocol = stbus
topology = noc-mesh
memory = lmi
noc_width = 4
noc_height = 3
workload_scale = 0.1
EOF
if "$BUILD/tools/mpsoc_run" --sweep --json "$BUILD/gating-smoke/gated.json" \
      "$BUILD/gating-smoke"/*.scn > /dev/null && \
   "$BUILD/tools/mpsoc_run" --sweep --no-gating \
      --json "$BUILD/gating-smoke/ungated.json" \
      "$BUILD/gating-smoke"/*.scn > /dev/null; then
  if same_digests "$BUILD/gating-smoke/gated.json" \
       "$BUILD/gating-smoke/ungated.json" \
       "gating smoke: gated and ungated digests differ (activity gating must
be behaviour-neutral; a component slept with work pending)"; then
    echo "gating smoke: digests identical with activity gating on and off"
  else
    FAILED=1
  fi
else
  echo "gating smoke: mpsoc_run failed"
  FAILED=1
fi

stage "statecheck sweep (checkpoint-equivalence oracle)"
# The --statecheck replay check (Simulator::replayCheck) over every shipped
# scenario, fully monitored: each run checkpoints at 1 us, executes a window
# of edges, rewinds and re-executes; any diverging state digest (an
# incomplete SIM_STATE manifest, or an evaluate() depending on
# un-checkpointed state) aborts the run.  The oracle replays a window
# mid-run, so the final results must still match the unchecked baseline
# digests bit-for-bit.
mkdir -p "$BUILD/statecheck-smoke"
if ! "$BUILD/tools/mpsoc_run" --sweep \
      --json "$BUILD/statecheck-smoke/base.json" \
      "$ROOT"/tools/scenarios/*.scn > /dev/null; then
  echo "statecheck sweep: unchecked baseline run failed"
  FAILED=1
elif ! "$BUILD/tools/mpsoc_run" --verify --statecheck \
        --sweep --json "$BUILD/statecheck-smoke/checked.json" \
        "$ROOT"/tools/scenarios/*.scn > /dev/null; then
  echo "statecheck sweep: divergence or failure"
  FAILED=1
elif same_digests "$BUILD/statecheck-smoke/base.json" \
       "$BUILD/statecheck-smoke/checked.json" \
       "statecheck sweep: digests differ from the unchecked run (the oracle's
rewind must be invisible to results)"; then
  echo "statecheck sweep: oracle green, digests identical"
else
  FAILED=1
fi

stage "fuzz smoke (seeded campaign, 50 cases, gated vs ungated)"
# Bounded deterministic fuzz campaign: a fixed seed, so a failure here is a
# regression, never noise.  Two --emit passes must print byte-identical
# scenario sets (generator determinism); the campaign itself runs every case
# fully monitored with activity gating on and off, gating on monitor
# violations, invariant trips, gated/ungated digest divergence and
# run-to-completion cases that never complete (hangs), and delta-debugs any
# failure down to a minimal reproducer under
# $BUILD/fuzz-smoke/corpus.
FZ_OK=1
mkdir -p "$BUILD/fuzz-smoke"
if ! "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 --emit \
      > "$BUILD/fuzz-smoke/emit1.txt" || \
   ! "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 --emit \
      > "$BUILD/fuzz-smoke/emit2.txt"; then
  echo "fuzz smoke: generator run failed"
  FZ_OK=0
elif ! diff "$BUILD/fuzz-smoke/emit1.txt" "$BUILD/fuzz-smoke/emit2.txt" \
      > /dev/null; then
  echo "fuzz smoke: two --emit passes of the same seed differ (the"
  echo "generator must be a pure function of seed and index)"
  FZ_OK=0
fi
if [ "$FZ_OK" -eq 1 ]; then
  if "$BUILD/tools/mpsoc_fuzz" --seed 2026 --count 50 \
        --corpus-dir "$BUILD/fuzz-smoke/corpus"; then
    echo "fuzz smoke: 50 cases clean"
  else
    echo "fuzz smoke: campaign found a failure (minimal reproducer and"
    echo "replay command above; corpus under $BUILD/fuzz-smoke/corpus)"
    FZ_OK=0
  fi
fi
[ "$FZ_OK" -eq 1 ] || FAILED=1

stage "tsan sweep (all scenarios, monitored, mpsoc_run --sweep -j 4)"
# ThreadSanitizer build in its own tree (tsan and asan cannot share one).
# The sweep pool is the only multi-threaded path: four simulations run side
# by side, so any state they share (src/ should hold none; a stray static
# would) is exercised under the race detector.
TSAN_BUILD="$BUILD-tsan"
if cmake -B "$TSAN_BUILD" -S "$ROOT" -DMPSOC_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null; then
  if cmake --build "$TSAN_BUILD" -j "$JOBS" --target mpsoc_run \
        > "$TSAN_BUILD/build.log" 2>&1; then
    if TSAN_OPTIONS=halt_on_error=1 \
       "$TSAN_BUILD/tools/mpsoc_run" --verify --sweep -j 4 \
          "$ROOT"/tools/scenarios/*.scn > /dev/null; then
      echo "tsan sweep: clean"
    else
      echo "tsan sweep: data race or failure"
      FAILED=1
    fi
  else
    echo "tsan sweep: build failed (tail of log):"
    tail -20 "$TSAN_BUILD/build.log"
    FAILED=1
  fi
else
  echo "tsan sweep: configure failed"
  FAILED=1
fi

stage "clang-format --dry-run"
# tests/lint/ holds deliberately-bad lint fixtures; they are not part of the
# formatted tree.
if command -v clang-format >/dev/null 2>&1; then
  if ! find "$ROOT/src" "$ROOT/tests" "$ROOT/tools" \
        \( -name '*.cpp' -o -name '*.hpp' \) \
        ! -path "*/tests/lint/*" | \
       xargs clang-format --dry-run --Werror; then
    FAILED=1
  fi
else
  echo "clang-format not installed; skipping format check"
fi

if [ "$FAILED" -ne 0 ]; then
  echo
  echo "check.sh: FAILURES above"
  exit 1
fi
echo
echo "check.sh: all stages passed"
