#!/usr/bin/env sh
# Observability smoke test: boot `netout -serve` with an event log, run one
# query twice, and assert every admin surface answers — /metrics, /debug/events,
# /debug/slow, /debug/requests, /readyz — and that the JSONL journal got the
# event; send a whole-type scan until its numerators are read from the store,
# and two scans of it COMPARED TO two sets in turn until each reads its own;
# then run a two-query batch on two workers and assert it journals one
# event per query, like every other mode. Run via `make obs-smoke`; CI runs it
# next to bench-smoke.
set -eu

PORT="${OBS_SMOKE_PORT:-19187}"
ADDR="127.0.0.1:$PORT"
TMP="$(mktemp -d)"
BIN="$TMP/netout"
LOG="$TMP/events.jsonl"
SRV_OUT="$TMP/serve.log"

cleanup() {
    [ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
    [ -n "${SRV_PID:-}" ] && wait "$SRV_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "obs-smoke: FAIL: $*" >&2
    [ -f "$SRV_OUT" ] && sed 's/^/  serve: /' "$SRV_OUT" >&2
    exit 1
}

go build -o "$BIN" ./cmd/netout

"$BIN" -gen 1 -serve "$ADDR" -event-log "$LOG" -quiet >"$SRV_OUT" 2>&1 &
SRV_PID=$!

# Wait for readiness (graph generation + pool start), bounded at ~10s.
i=0
until curl -fsS "http://$ADDR/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && fail "/readyz never became ready"
    kill -0 "$SRV_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
done

Q='FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 3;'
RESP="$(curl -fsS -D "$TMP/headers" -X POST --data "$Q" "http://$ADDR/query")" \
    || fail "POST /query failed"
echo "$RESP" | grep -q '"entries"' || fail "/query response has no entries: $RESP"
grep -qi '^traceparent: 00-' "$TMP/headers" || fail "response carries no traceparent header"

# grep -q a saved copy rather than the pipe: -q closes the pipe on first
# match, which curl reports as a write failure.
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics" || fail "/metrics unreachable"
grep -q '^netout_queries_total' "$TMP/metrics" \
    || fail "/metrics missing netout_queries_total"
grep -q '^netout_http_request_seconds_bucket' "$TMP/metrics" \
    || fail "/metrics missing the request latency histogram"
curl -fsS "http://$ADDR/debug/events" >"$TMP/events" || fail "/debug/events unreachable"
grep -q '"outcome": "ok"' "$TMP/events" || fail "/debug/events has no ok event"
RID="$(tr -d '\r' <"$TMP/headers" | sed -n 's/^[Xx]-[Rr]equest-[Ii]d: //p')"
[ -n "$RID" ] || fail "response carries no X-Request-Id header"
curl -fsS "http://$ADDR/debug/slow" >"$TMP/slow" || fail "/debug/slow unreachable"
grep -q "rid=$RID" "$TMP/slow" || fail "/debug/slow does not list request $RID: $(cat "$TMP/slow")"
curl -fsS "http://$ADDR/debug/requests" >"$TMP/requests" || fail "/debug/requests unreachable"
grep -q 'in-flight' "$TMP/requests" || fail "/debug/requests did not answer"

# The first query compiled its text; the same text again is served from the
# pool's compiled entry, and every per-query surface says so.
grep -q '"compiled": "miss"' "$TMP/events" || fail "/debug/events does not report the first query as compiled=miss"
curl -fsS -X POST --data "$Q" "http://$ADDR/query" >/dev/null || fail "second POST /query failed"
curl -fsS "http://$ADDR/debug/events" >"$TMP/events" || fail "/debug/events unreachable"
grep -q '"compiled": "hit"' "$TMP/events" || fail "/debug/events does not report the repeated query as compiled=hit"
grep -q '"refside": "memo"' "$TMP/events" || fail "/debug/events does not report the repeated query as refside=memo"
curl -fsS "http://$ADDR/debug/slow" >"$TMP/slow" || fail "/debug/slow unreachable"
grep -q 'compiled=hit refside=memo' "$TMP/slow" || fail "/debug/slow does not show compiled=hit: $(cat "$TMP/slow")"
curl -fsS "http://$ADDR/metrics" >"$TMP/metrics" || fail "/metrics unreachable"
grep -q '^netout_compiled_queries_total{result="hit"} 1$' "$TMP/metrics" \
    || fail "/metrics does not count one compiled hit"

# A whole-type scan sent four times (1 057 authors clear the candidate side's
# crossover): cold norms, a walk of S, a walk that keeps N in the store, then a
# read of it. The newest event says numer=memo and traversed
# nothing.
SCAN='FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;'
for _ in 1 2 3 4; do
    curl -fsS -X POST --data "$SCAN" "http://$ADDR/query" >/dev/null || fail "POST of the scan failed"
done
curl -fsS "http://$ADDR/debug/events" >"$TMP/events" || fail "/debug/events unreachable"
awk '/^  }/ { exit } { print }' "$TMP/events" >"$TMP/newest"
grep -q 'numer=memo' "$TMP/newest" || fail "the fourth scan did not read its kept N: $(cat "$TMP/newest")"
grep -q '"traversed_vectors"' "$TMP/newest" && fail "the fourth scan traversed vectors: $(cat "$TMP/newest")"

# Two scans of that path COMPARED TO two reference sets, sent in turn three
# times each: every S keeps an N of its own (noted on its first sighting, N
# kept on its second), so each third sighting reads it. The two newest events, B's
# and A's, both say numer=memo.
A='FIND OUTLIERS FROM author COMPARED TO author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 4;'
B='FIND OUTLIERS FROM author COMPARED TO author{"Christos Hub"}.paper.venue.paper.author JUDGED BY author.paper.venue TOP 6;'
for _ in 1 2 3; do
    for q in "$A" "$B"; do
        curl -fsS -X POST --data "$q" "http://$ADDR/query" >/dev/null || fail "POST of a COMPARED TO scan failed"
    done
done
curl -fsS "http://$ADDR/debug/events" >"$TMP/events" || fail "/debug/events unreachable"
for n in 1 2; do
    awk -v n="$n" '/^  }/ { if (++k == n) exit; next } k == n - 1' "$TMP/events" >"$TMP/newest"
    top=$((8 - 2 * n)) # B's TOP 6, then A's TOP 4
    grep -q "TOP $top;" "$TMP/newest" || fail "event $n is not the third scan with TOP $top: $(cat "$TMP/newest")"
    grep -q 'numer=memo' "$TMP/newest" || fail "the third scan with TOP $top did not read its kept N: $(cat "$TMP/newest")"
done

# The JSONL journal on disk has exactly the served queries' wide events.
[ -s "$LOG" ] || fail "event log $LOG is empty"
grep -q '"outcome":"ok"' "$LOG" || fail "event log has no ok event: $(cat "$LOG")"
grep -q '"compiled":"hit"' "$LOG" || fail "event log has no compiled=hit event: $(cat "$LOG")"

SERVED="$(wc -l <"$LOG")"

# A batch on two workers runs on engines built from the one configured engine,
# so it journals through the same sink: one line per query (the parent's
# BatchOptions had no event sink and wrote none).
BATCH_LOG="$TMP/batch.jsonl"
printf '%s\n%s\n' "$Q" "$Q" >"$TMP/q.oql"
"$BIN" -gen 1 -quiet -file "$TMP/q.oql" -workers 2 -event-log "$BATCH_LOG" >"$TMP/batch.out" 2>&1 \
    || fail "batch run failed: $(cat "$TMP/batch.out")"
[ "$(wc -l <"$BATCH_LOG")" -eq 2 ] \
    || fail "batch of 2 queries journaled $(wc -l <"$BATCH_LOG") events, want 2"

echo "obs-smoke: OK ($SERVED served + 2 batch event(s) journaled)"
