#!/usr/bin/env bash
# CI entrypoint: runs the scripts/check.sh stages in two phases so the
# cheap invariant gates (lint, tidy, thread-safety build) fail fast
# before any sanitizer build is configured. Build directories persist
# between runs (and are cached by .github/workflows/ci.yml), so
# incremental CI runs only recompile what changed.
#
# Usage: scripts/ci.sh [fast|full]   (default: full)
#   fast  lint + tidy + tsa + tier1 + obs + bench smoke (no sanitizers)
#   full  everything, ending with the flake gate
set -euo pipefail

cd "$(dirname "$0")/.."
MODE="${1:-full}"

echo "=== ci: fail-fast gates (lint, tidy, thread-safety) ==="
scripts/check.sh lint tidy tsa

echo "=== ci: tier-1 build + tests ==="
scripts/check.sh tier1 obs bench

if [[ "$MODE" == "full" ]]; then
  echo "=== ci: sanitizer stages ==="
  scripts/check.sh asan ubsan tsan chaos recovery serve shard
  echo "=== ci: flake gate (repeat under CPU contention) ==="
  scripts/check.sh flake
fi

echo "=== ci: done ==="
