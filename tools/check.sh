#!/usr/bin/env bash
# One-command analysis stack for mpsocsim:
#   1. build (ASan+UBSan)
#   2. full ctest pass under AddressSanitizer + UndefinedBehaviorSanitizer
#      (includes the whole-tree mpsoc_lint run, the monitored platform smoke
#      runs and the protocol-monitor negative tests)
#   3. digest sweeps (tools/digest_sweeps.sh, the script CI runs): every
#      shipped scenario plain, monitored under the checkpoint-equivalence
#      oracle (--verify --statecheck), ungated (--no-gating) and two at a
#      time (-j 2); all four must print the same digests — a mismatch means
#      an incomplete SIM_STATE manifest, a component that slept with work
#      pending, or state shared between concurrent simulations
#   4. fuzz smoke (tools/fuzz_smoke.sh, the script CI runs): a bounded
#      seeded campaign (mpsoc_fuzz, 50 cases) — generator determinism is
#      asserted by diffing two --emit passes, then the monitored campaign
#      gates on violations, invariant trips, gated/ungated digest divergence
#      and run-to-completion cases that never complete (hangs),
#      auto-shrinking any failure to a minimal reproducer
#   5. ThreadSanitizer sweep: separate TSan build (tsan is incompatible with
#      asan) running every shipped scenario, monitored, as one
#      mpsoc_run --sweep -j 4 — the sweep pool is the only multi-threaded
#      path, so any state shared between concurrent simulations fails here
#   6. clang-format --dry-run over src/ tests/ tools/ (skipped with a notice
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

stage "digest sweeps (plain vs --verify --statecheck, --no-gating, -j 2)"
if ! "$ROOT/tools/digest_sweeps.sh" "$BUILD/tools/mpsoc_run"; then
  FAILED=1
fi

stage "fuzz smoke (seeded campaign, 50 cases, gated vs ungated)"
if ! "$ROOT/tools/fuzz_smoke.sh" "$BUILD/tools/mpsoc_fuzz" \
      "$BUILD/fuzz-smoke/corpus"; then
  FAILED=1
fi

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
