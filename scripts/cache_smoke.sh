#!/usr/bin/env bash
# Answer-cache smoke test against a live kdapd: the second identical
# query must be served from the cache (X-KDAP-Cache: hit) with a
# byte-for-byte identical explore body, and If-None-Match must
# revalidate to 304. (Metric/doc agreement is scripts/metrics_drift.sh,
# which checks both directions.) Extra arguments are passed to kdapd, so
# the same contract can be checked under other serving configurations:
#
#   bash scripts/cache_smoke.sh                    # kdapd defaults
#   bash scripts/cache_smoke.sh -batch-window 2ms  # through the batch gather
#
# Run from the repository root.
set -euo pipefail

ADDR="${ADDR:-127.0.0.1:18080}"
QUERY_BODY='{"db":"ebiz","q":"Columbus LCD"}'
TMP="$(mktemp -d)"

go build -o "$TMP/kdapd" ./cmd/kdapd
"$TMP/kdapd" -addr "$ADDR" -db ebiz -log json "$@" 2>"$TMP/kdapd.log" &
KDAPD_PID=$!
cleanup() {
  status=$?
  # On any failure, surface the daemon's log — without it a CI failure
  # here is just "curl: (22)" with nothing to debug.
  if [ "$status" -ne 0 ] && [ -s "$TMP/kdapd.log" ]; then
    echo "== kdapd log (smoke test failed with status $status)" >&2
    cat "$TMP/kdapd.log" >&2
  fi
  kill "$KDAPD_PID" 2>/dev/null || true
  wait "$KDAPD_PID" 2>/dev/null || true
  rm -rf "$TMP"
  exit "$status"
}
trap cleanup EXIT

for _ in $(seq 1 50); do
  # Fail fast if the daemon died (bad flag, port in use, panic on
  # load) instead of burning the whole poll budget against a corpse.
  if ! kill -0 "$KDAPD_PID" 2>/dev/null; then
    echo "kdapd exited during startup" >&2
    exit 1
  fi
  curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf "http://$ADDR/healthz" >/dev/null || {
  echo "kdapd never became healthy on $ADDR" >&2
  exit 1
}

echo "== cold query is a cache miss with a weak ETag"
curl -sf -D "$TMP/h1" -o /dev/null "http://$ADDR/api/query" -d "$QUERY_BODY"
tr -d '\r' <"$TMP/h1" | grep -qi '^x-kdap-cache: miss$'
ETAG="$(tr -d '\r' <"$TMP/h1" | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')"
case "$ETAG" in 'W/"'*) ;; *) echo "not a weak ETag: $ETAG" >&2; exit 1;; esac

echo "== repeated query is a cache hit with the same ETag"
curl -sf -D "$TMP/h2" -o /dev/null "http://$ADDR/api/query" -d "$QUERY_BODY"
tr -d '\r' <"$TMP/h2" | grep -qi '^x-kdap-cache: hit$'
ETAG2="$(tr -d '\r' <"$TMP/h2" | sed -n 's/^[Ee][Tt][Aa][Gg]: //p')"
[ "$ETAG" = "$ETAG2" ] || { echo "ETag changed: $ETAG vs $ETAG2" >&2; exit 1; }

echo "== If-None-Match revalidates to 304 without a body"
CODE="$(curl -s -o "$TMP/body304" -w '%{http_code}' -H "If-None-Match: $ETAG" \
  "http://$ADDR/api/query" -d "$QUERY_BODY")"
[ "$CODE" = 304 ] || { echo "revalidation returned $CODE, want 304" >&2; exit 1; }
[ ! -s "$TMP/body304" ] || { echo "304 carried a body" >&2; exit 1; }

echo "== cached explore is byte-for-byte the cold response"
SESSION="$(curl -sf "http://$ADDR/api/query" -d "$QUERY_BODY" |
  grep -o '"session":"[^"]*"' | head -1 | cut -d'"' -f4)"
[ -n "$SESSION" ]
EXPLORE_BODY="{\"session\":\"$SESSION\",\"pick\":1}"
curl -sf -D "$TMP/e1" -o "$TMP/cold.json" "http://$ADDR/api/explore" -d "$EXPLORE_BODY"
curl -sf -D "$TMP/e2" -o "$TMP/warm.json" "http://$ADDR/api/explore" -d "$EXPLORE_BODY"
tr -d '\r' <"$TMP/e2" | grep -qi '^x-kdap-cache: hit$'
cmp "$TMP/cold.json" "$TMP/warm.json"

echo "cache smoke OK"
