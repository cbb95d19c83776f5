#!/usr/bin/env bash
# restart_smoke.sh — end-to-end restart-recovery check for f2served.
#
# Starts f2served with a temp data dir, creates a dataset, appends rows
# (flushed and pending), SIGTERMs the process, restarts it over the same
# directory, and verifies the dataset survived: before the first flush
# the decrypt returns the flushed rows and the FDs equal those served
# before the restart; after it the decrypt round-trips every
# acknowledged row, appends still work, and DELETE removes the dataset
# from the registry, the metrics gauge, and the store directory.
#
# Needs: go, curl. Used by CI; runnable locally from the repo root.
set -euo pipefail

ADDR="127.0.0.1:${F2_SMOKE_PORT:-8097}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DATA="$WORK/data"
BIN="$WORK/f2served"
PID=""
RUN=0
SERVER_LOG=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

die() {
  echo "restart_smoke: FAIL: $*" >&2
  if [ -n "$SERVER_LOG" ] && [ -f "$SERVER_LOG" ]; then
    echo "--- last server log lines ($SERVER_LOG):" >&2
    tail -20 "$SERVER_LOG" >&2 || true
  fi
  exit 1
}

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fs "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "server at $BASE never became healthy"
}

start_server() {
  RUN=$((RUN + 1))
  SERVER_LOG="$WORK/server-run$RUN.log"
  "$BIN" -addr "$ADDR" -data-dir "$DATA" >"$SERVER_LOG" 2>&1 &
  PID=$!
  wait_healthy
}

stop_server() {
  kill -TERM "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""
}

# Recovery and request handling must be ERROR-free: every HTTP check can
# pass while the server quietly logs a recovery failure it papered over.
# Any ERROR-level slog record (JSON or text handler) fails the run.
check_logs() {
  if grep -En '"level":"ERROR"|level=ERROR' "$WORK"/server-run*.log >&2; then
    die "unexpected ERROR-level log records (lines above)"
  fi
}

# /metrics must be a well-formed Prometheus exposition: every sample
# family carries HELP and TYPE, no series (name+labels) appears twice,
# every histogram is cumulative (within one series set, le rises, the
# bucket counts never fall, and le="+Inf" equals the matching _count),
# and the flight recorder's f2_runtime_* series are present. A renamed
# gauge, a double-registered callback or a renderer emitting per-bucket
# counts shows up here, not in a scrape dashboard three weeks later.
check_metrics() {
  local metrics="$1"
  local problems
  problems="$(printf '%s\n' "$metrics" | awk '
    /^# HELP /  { help[$3] = 1; next }
    /^# TYPE /  { type[$3] = 1; next }
    /^#/        { next }
    /^[[:space:]]*$/ { next }
    {
      series = $0
      sub(/ [^ ]*$/, "", series)      # strip the value
      if (seen[series]++) { print "duplicate series: " series; bad = 1 }
      fam = series
      sub(/\{.*/, "", fam)            # strip labels
      base = fam
      sub(/_(bucket|sum|count|max)$/, "", base)   # histogram children share the family HELP/TYPE
      if (!(fam in help) && !(base in help)) { print "missing HELP for " fam; bad = 1 }
      if (!(fam in type) && !(base in type)) { print "missing TYPE for " fam; bad = 1 }
      value = $NF + 0
      if (fam ~ /_bucket$/) {
        le = series
        sub(/.*le="/, "", le)
        sub(/".*/, "", le)
        set = series                    # the series set: family and labels but le
        sub(/,?le="[^"]*"/, "", set)
        sub(/_bucket/, "", set)
        sub(/\{\}$/, "", set)
        if (set in lastle) {
          if (lastle[set] == "+Inf" || (le != "+Inf" && le + 0 <= lastle[set] + 0)) {
            print "bucket le not rising: " series; bad = 1
          }
          if (value < lastcount[set]) { print "bucket count falls (not cumulative): " series; bad = 1 }
        }
        lastle[set] = le
        lastcount[set] = value
        if (le == "+Inf") inf[set] = value
      } else if (fam ~ /_count$/) {
        set = series
        sub(/_count/, "", set)
        count[set] = value
      }
    }
    END {
      for (set in lastle) {
        if (!(set in inf)) { print "histogram without le=\"+Inf\": " set; bad = 1 }
        else if (!(set in count) || count[set] != inf[set]) {
          print "le=\"+Inf\" bucket " inf[set] " != _count " count[set] " for " set; bad = 1
        }
      }
      exit bad
    }
  ' 2>&1)" || {
    printf '%s\n' "$problems" >&2
    die "malformed /metrics exposition (details above)"
  }
  printf '%s' "$metrics" | grep -q '^f2_runtime_heap_bytes ' \
    || die "f2_runtime_heap_bytes missing from /metrics"
  printf '%s' "$metrics" | grep -q '^f2_runtime_goroutines ' \
    || die "f2_runtime_goroutines missing from /metrics"
  printf '%s' "$metrics" | grep -q '^f2_runtime_gc_pause_seconds{quantile="0.99"}' \
    || die "f2_runtime_gc_pause_seconds quantile series missing from /metrics"
}

echo "== build"
go build -o "$BIN" ./cmd/f2served

echo "== first run: create + append + flush"
start_server

CREATE_RESP="$(curl -fs "$BASE/v1/datasets" -d '{
  "name": "smoke",
  "columns": ["G", "ID"],
  "rows": [["g1","id1"],["g1","id2"],["g1","id3"],["g2","id4"],["g2","id5"]],
  "keySeed": "restart-smoke-key"
}')"
ID="$(printf '%s' "$CREATE_RESP" | grep -o 'ds_[0-9a-f]\{12\}' | head -1)"
[ -n "$ID" ] || die "no dataset id in create response: $CREATE_RESP"
echo "   dataset $ID"

# This batch crosses the auto-flush threshold; the next row stays pending.
curl -fs "$BASE/v1/datasets/$ID/rows" -d '{"rows":[["g1","id6"],["g2","id7"]]}' >/dev/null
# Wait out the background flush, so the FDs captured below are the ones
# of the snapshot the restart recovers.
for _ in $(seq 1 100); do
  curl -fs "$BASE/v1/datasets/$ID" | grep -q '"rows":7' && break
  sleep 0.1
done
curl -fs "$BASE/v1/datasets/$ID" | grep -q '"rows":7' || die "auto-flush of id6,id7 never committed"
FDS_BEFORE="$(curl -fs "$BASE/v1/datasets/$ID/fds")"
curl -fs "$BASE/v1/datasets/$ID/rows" -d '{"rows":[["g1","id8"]]}' >/dev/null

echo "== SIGTERM + restart"
stop_server
start_server

echo "== verify recovery"
GET_RESP="$(curl -fs "$BASE/v1/datasets/$ID")"
printf '%s' "$GET_RESP" | grep -q '"rows":7' || die "recovered dataset rows != 7: $GET_RESP"
printf '%s' "$GET_RESP" | grep -q '"pendingRows":1' || die "recovered pending != 1: $GET_RESP"

# Before the first flush the ciphertext loads on demand: the readers
# must see exactly what the server held before the restart.
DECRYPT="$(curl -fs -X POST "$BASE/v1/datasets/$ID/decrypt")"
for rowid in id1 id2 id3 id4 id5 id6 id7; do
  printf '%s' "$DECRYPT" | grep -q "\"$rowid\"" || die "row $rowid missing from the pre-flush decrypt: $DECRYPT"
done
printf '%s' "$DECRYPT" | grep -q '"id8"' && die "pending row id8 decrypted before its flush: $DECRYPT"
printf '%s' "$DECRYPT" | grep -q '"pendingRows":1' || die "pre-flush decrypt pending != 1: $DECRYPT"
FDS_AFTER="$(curl -fs "$BASE/v1/datasets/$ID/fds")"
[ "$FDS_AFTER" = "$FDS_BEFORE" ] || die "FDs changed across the restart: before $FDS_BEFORE, after $FDS_AFTER"

curl -fs -X POST "$BASE/v1/datasets/$ID/flush?wait=1" >/dev/null
DECRYPT="$(curl -fs -X POST "$BASE/v1/datasets/$ID/decrypt")"
for rowid in id1 id2 id3 id4 id5 id6 id7 id8; do
  printf '%s' "$DECRYPT" | grep -q "\"$rowid\"" || die "row $rowid lost across restart: $DECRYPT"
done
# Appends keep working on the recovered dataset.
curl -fs "$BASE/v1/datasets/$ID/rows" -d '{"rows":[["g2","id9"]]}' >/dev/null

echo "== delete"
curl -fs -X DELETE "$BASE/v1/datasets/$ID" >/dev/null
STATUS="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/datasets/$ID")"
[ "$STATUS" = "404" ] || die "deleted dataset still served (status $STATUS)"
# Capture before grepping: grep -q's early exit would SIGPIPE curl and
# trip pipefail even on a match.
METRICS="$(curl -fs "$BASE/metrics")"
printf '%s' "$METRICS" | grep -q '^f2_datasets 0$' || die "f2_datasets gauge not decremented"
echo "== validate metrics exposition"
check_metrics "$METRICS"
[ ! -d "$DATA/datasets/$ID" ] || die "store directory survives delete"

# And deletion is durable too.
stop_server
start_server
STATUS="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/datasets/$ID")"
[ "$STATUS" = "404" ] || die "deleted dataset resurrected after restart (status $STATUS)"

echo "== scan server logs"
stop_server
check_logs

echo "restart_smoke: PASS"
