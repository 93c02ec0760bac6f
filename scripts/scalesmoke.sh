#!/usr/bin/env sh
# scalesmoke.sh — run BenchmarkScale on a streamed corpus and gate the
# two claims the scale work makes: the incremental retrain must be
# decisively faster than a forced full rebuild over the same snapshot,
# and the compact (columnar) layout must stay well
# under the legacy row-struct layout's heap-live bytes per change.
# CI runs this at SCALE=1 (~1.2M changes, minutes not hours) and uploads
# the report; the paper-scale numbers in BENCH_SCALE.json come from a
# SCALE=8 (~10M changes) run of the same benchmark.
#
# Environment knobs:
#   SCALE        corpus multiplier over dataset.Default() (default 1)
#   OUT          report path (default bench-scale-smoke.json)
#   MIN_SPEEDUP  minimum full/incremental retrain ratio (default 5)
#   BASELINE     recorded report to gate compact bytes-per-change against
#                (default BENCH_SCALE.json; gate skipped when absent or
#                when it is the output file itself)
#   MAX_GROWTH   allowed bytes-per-change growth over baseline (default 1.25)
set -eu

SCALE=${SCALE:-1}
OUT=${OUT:-bench-scale-smoke.json}
MIN_SPEEDUP=${MIN_SPEEDUP:-5}
BASELINE=${BASELINE:-BENCH_SCALE.json}
MAX_GROWTH=${MAX_GROWTH:-1.25}

WIKISTALE_SCALE="$SCALE" WIKISTALE_SCALE_OUT="$OUT" \
  go test -run '^$' -bench '^BenchmarkScale$' -benchtime 1x -timeout 60m .

[ -f "$OUT" ] || { echo "FAIL: $OUT was not written"; exit 1; }

# Gate 1: incremental retrain speedup.
jq -e --argjson min "$MIN_SPEEDUP" '.retrain.speedup >= $min' "$OUT" > /dev/null || {
  echo "FAIL: incremental retrain speedup below ${MIN_SPEEDUP}x:"
  jq '.retrain' "$OUT"
  exit 1
}

# Gate 2: the compact layout must beat the legacy shadow by at least 2x.
jq -e '.memory.legacy_over_compact_ratio >= 2' "$OUT" > /dev/null || {
  echo "FAIL: compact layout is not >= 2x smaller than the legacy layout:"
  jq '.memory' "$OUT"
  exit 1
}

# Gate 3: bytes-per-change must not creep past the recorded baseline.
# Skipped on re-baselining runs or when no baseline is checked in.
if [ "$OUT" != "$BASELINE" ] && [ -f "$BASELINE" ]; then
  base_bpc=$(jq -r '.memory.compact_bytes_per_change // empty' "$BASELINE")
  now_bpc=$(jq -r '.memory.compact_bytes_per_change // empty' "$OUT")
  if [ -n "$base_bpc" ] && [ -n "$now_bpc" ]; then
    if awk -v now="$now_bpc" -v base="$base_bpc" -v g="$MAX_GROWTH" \
        'BEGIN { exit !(now > g * base) }'; then
      echo "FAIL: compact bytes-per-change regressed: ${now_bpc} vs baseline ${base_bpc} (> ${MAX_GROWTH}x)"
      exit 1
    fi
    echo "bytes-per-change gate OK: ${now_bpc} vs baseline ${base_bpc} (limit ${MAX_GROWTH}x)"
  else
    echo "bytes-per-change gate skipped: no entry in $BASELINE"
  fi
fi

echo "scale smoke OK:"
jq -r '"  scale \(.scale): \(.ingest.staged_changes) changes, " +
  "ingest \(.ingest.events_per_sec | floor) ev/s, " +
  "retrain \(.retrain.speedup * 10 | floor / 10)x faster incremental, " +
  "memory \(.memory.compact_bytes_per_change | floor) B/change compact vs \(.memory.legacy_bytes_per_change | floor) legacy"' "$OUT"
