#!/usr/bin/env sh
# Network shard tier smoke test: boot two `netout -shard-serve` processes
# and a coordinator with -shard-addrs over the same generated network, and
# assert (1) the scattered query's JSON is identical to unsharded execution,
# (2) both sides export their netout_shard_* metrics, and (3) killing one
# shard process degrades the next query to "partial":true instead of
# failing it. It also sends a whole-type scan until the shards read its
# numerators from their stores, its repeats naming S by digest (4). Shard 2
# runs the cached strategy: the query's shape, not the materializer, picks
# how a slice is scored, so it must answer and keep N as shard 1 does. Run via
# `make shard-net-smoke`; CI runs it after the in-process shard smoke.
set -eu

BASE="${SHARD_SMOKE_PORT:-19230}"
COORD="127.0.0.1:$BASE"
SHARD1="127.0.0.1:$((BASE + 1))"
SHARD2="127.0.0.1:$((BASE + 2))"
SHARD1_METRICS="127.0.0.1:$((BASE + 3))"
TMP="$(mktemp -d)"
BIN="$TMP/netout"

cleanup() {
    for pid in "${COORD_PID:-}" "${S1_PID:-}" "${S2_PID:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "${COORD_PID:-}" "${S1_PID:-}" "${S2_PID:-}"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

fail() {
    echo "shard-net-smoke: FAIL: $*" >&2
    for f in "$TMP"/shard1.log "$TMP"/shard2.log "$TMP"/coord.log; do
        [ -f "$f" ] && sed "s|^|  $(basename "$f"): |" "$f" >&2
    done
    exit 1
}

go build -o "$BIN" ./cmd/netout

# Every process loads the same network: the coordinator partitions
# candidates per query, so shards must agree on vertex identity. Scale 4, so
# that a shard's half of the authors clears the candidate side's crossover
# (1 024 known candidates); at scale 1 it is 528.
GEN="-gen 4 -seed 1"

"$BIN" $GEN -shard-serve -shard-listen "$SHARD1" -workers 2 \
    -metrics-addr "$SHARD1_METRICS" >"$TMP/shard1.log" 2>&1 &
S1_PID=$!
"$BIN" $GEN -shard-serve -shard-listen "$SHARD2" -workers 2 -strategy cached \
    >"$TMP/shard2.log" 2>&1 &
S2_PID=$!

# The banner prints after the listener is up; wait for both (~10s bound).
for log in shard1 shard2; do
    i=0
    until grep -q 'shard server on' "$TMP/$log.log" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -ge 100 ] && fail "$log never started listening"
        sleep 0.1
    done
done

Q='FIND OUTLIERS FROM author{"Christos Hub"}.paper.author JUDGED BY author.paper.venue TOP 5;'

# Unsharded reference, via the CLI against the same generated network.
"$BIN" $GEN -quiet -json -query "$Q" >"$TMP/base.json" \
    || fail "unsharded reference query failed"

# Coordinator: serve mode scattering over both shard processes.
"$BIN" $GEN -serve "$COORD" -shard-addrs "$SHARD1,$SHARD2" -quiet \
    >"$TMP/coord.log" 2>&1 &
COORD_PID=$!
i=0
until curl -fsS "http://$COORD/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -ge 100 ] && fail "coordinator /readyz never became ready"
    kill -0 "$COORD_PID" 2>/dev/null || fail "coordinator exited during startup"
    sleep 0.1
done

curl -fsS -X POST --data "$Q" "http://$COORD/query" >"$TMP/sharded.json" \
    || fail "scattered query failed"

# The scattered result must match unsharded execution exactly — entries,
# skips, candidate and reference counts. Only the non-deterministic fields
# (elapsed time, serve-mode correlation IDs) are stripped before diffing.
normalize() {
    sed -e 's/"total_us":[0-9]*//' \
        -e 's/"request_id":"[^"]*",//' \
        -e 's/"trace_id":"[^"]*",//' \
        "$1"
}
normalize "$TMP/base.json" >"$TMP/base.norm"
normalize "$TMP/sharded.json" >"$TMP/sharded.norm"
cmp -s "$TMP/base.norm" "$TMP/sharded.norm" || {
    echo "  base:    $(cat "$TMP/base.json")" >&2
    echo "  sharded: $(cat "$TMP/sharded.json")" >&2
    fail "scattered result differs from unsharded execution"
}
grep -q '"partial":true' "$TMP/sharded.json" \
    && fail "healthy fleet produced a partial result"

# Both sides of the RPC export their metrics: the coordinator the per-shard
# client counters, the shard server its served counters — and the shard's
# ServePool, the one gate its requests pass, its run tokens and a non-zero
# served count (a shard that bypassed its pool would serve none).
curl -fsS "http://$COORD/metrics" >"$TMP/coord.metrics" \
    || fail "coordinator /metrics unreachable"
grep -q '^netout_shard_rpc_total' "$TMP/coord.metrics" \
    || fail "coordinator metrics missing netout_shard_rpc_total"
curl -fsS "http://$SHARD1_METRICS/metrics" >"$TMP/shard1.metrics" \
    || fail "shard /metrics unreachable"
grep -q '^netout_shardsrv_requests_total' "$TMP/shard1.metrics" \
    || fail "shard metrics missing netout_shardsrv_requests_total"
grep -q '^netout_serve_workers' "$TMP/shard1.metrics" \
    || fail "shard metrics missing netout_serve_workers"
awk '$1 == "netout_shardsrv_requests_total{outcome=\"ok\"}" && $2 > 0 { ok = 1 } END { exit !ok }' "$TMP/shard1.metrics" \
    || fail "shard served nothing (netout_shardsrv_requests_total{outcome=\"ok\"})"

# (4) A whole-type scan, scattered: the first request warms each shard's
# norms (a walk per candidate), the next walks S back in scratch, the one
# after walks it again and keeps N in the shard's store, and the last
# reads it. Every reply ranks as the unsharded CLI does; the
# newest event's scatter row — the shards' work — reads 2 traversed vectors
# (one walk per shard) for the two middle requests and none for the last.
# The first request sends S for the shards to keep; the repeats name it by
# digest, so shard 1 receives no broadcast in full after it, and the
# coordinator re-sends none.
SCAN='FIND OUTLIERS FROM author JUDGED BY author.paper.venue TOP 5;'
"$BIN" $GEN -quiet -json -query "$SCAN" >"$TMP/scan_base.json" \
    || fail "unsharded reference scan failed"
normalize "$TMP/scan_base.json" >"$TMP/scan_base.norm"
scatter_traversed() {
    curl -fsS "http://$COORD/debug/events" >"$TMP/scan.events" \
        || fail "/debug/events unreachable"
    awk '/^  }/ { exit }
        /"phase": "scatter"/ { s = 1 }
        s && /"traversed_vectors"/ { gsub(/[^0-9]/, ""); print; exit }
        s && /^ *}/ { s = 0 }' "$TMP/scan.events"
}
full_broadcasts() {
    curl -fsS "http://$SHARD1_METRICS/metrics" \
        | awk '$1 == "netout_shardsrv_full_broadcasts_total" { print $2 }'
}
for want in cold 2 2 ""; do
    curl -fsS -X POST --data "$SCAN" "http://$COORD/query" >"$TMP/scan.json" \
        || fail "scattered scan failed"
    if [ "$want" = cold ]; then
        FULL="$(full_broadcasts)"
    fi
    normalize "$TMP/scan.json" >"$TMP/scan.norm"
    cmp -s "$TMP/scan_base.norm" "$TMP/scan.norm" \
        || fail "scattered scan differs from unsharded execution: $(cat "$TMP/scan.json")"
    got="$(scatter_traversed)"
    [ "$want" = cold ] || [ "$got" = "$want" ] \
        || fail "scan's shards traversed '$got' vectors, want '$want'"
done
[ -n "$FULL" ] && [ "$(full_broadcasts)" = "$FULL" ] \
    || fail "repeated scans sent S in full: shard 1 counted $FULL, then $(full_broadcasts) full broadcasts"
curl -fsS "http://$COORD/metrics" >"$TMP/coord.metrics" \
    || fail "coordinator /metrics unreachable"
awk '/^netout_shard_rpc_resends_total/ { n++; if ($2 != 0) bad = 1 } END { exit bad || n != 2 }' \
    "$TMP/coord.metrics" || fail "healthy fleet re-sent broadcasts: $(grep resends "$TMP/coord.metrics")"

# Kill one shard process outright (no drain). The next query must degrade
# to the surviving shard's exact prefix — partial, not failed.
kill -9 "$S2_PID" 2>/dev/null || true
wait "$S2_PID" 2>/dev/null || true
S2_PID=""
curl -fsS -X POST --data "$Q" "http://$COORD/query" >"$TMP/degraded.json" \
    || fail "query against a half-dead fleet failed instead of degrading"
grep -q '"partial":true' "$TMP/degraded.json" \
    || fail "lost shard did not surface as partial: $(cat "$TMP/degraded.json")"

echo "shard-net-smoke: OK (scattered = unsharded; repeated scan sent no S and read its kept numerators; shard loss degraded to partial)"
