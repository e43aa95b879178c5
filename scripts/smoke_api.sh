#!/usr/bin/env bash
# End-to-end smoke test of the v1 serving API (ISSUE 5 satellite).
#
# Boots the built example_scoring_server on a real port and exercises every
# route family over real sockets with curl: blocking score (single +
# multi-item), the async lifecycle (submit, poll to done, cancel,
# idempotent cancel-after-done), the structured error model (400/404/405/
# 504 + Allow header), health (ISSUE 6), and keep-alive. Then boots a
# second server with PO_REPLICAS=2 and exercises the cluster admin surface
# (ISSUE 8): /v1/replicas, drain -> degraded, drain-all -> 503 +
# Retry-After on both /v1/health and /v1/score, rejoin -> ok, and the
# aggregated /v1/stats shape. Finally fires a concurrent burst of 24
# scores at the same cluster server and checks every one returned 200,
# that the server-side ledger balances and that the per-replica counters
# sum to the totals. Asserts JSON shapes with python3.
#
# Usage: scripts/smoke_api.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVER="${BUILD_DIR}/example_scoring_server"
PORT="${SMOKE_PORT:-18472}"
BASE="http://127.0.0.1:${PORT}"

if [[ ! -x "${SERVER}" ]]; then
  echo "error: ${SERVER} not built (cmake --build ${BUILD_DIR} --target example_scoring_server)" >&2
  exit 1
fi

# Response bodies go to a private directory, removed on exit, so runs leave
# nothing behind and two runs at once never read each other's bodies.
TMP_DIR=$(mktemp -d)
SERVER_PID=
trap 'kill "${SERVER_PID}" 2>/dev/null || true; rm -rf "${TMP_DIR}"' EXIT

PO_PORT="${PORT}" PO_SERVE_SECONDS=120 "${SERVER}" >/dev/null 2>&1 &
SERVER_PID=$!

# Wait for the port.
for _ in $(seq 1 100); do
  if curl -sf "${BASE}/v1/stats" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

fail() { echo "SMOKE FAIL: $*" >&2; exit 1; }

# jexpr <json> <python-expr over d> — evaluates an expression on parsed JSON.
jexpr() {
  python3 -c 'import json,sys; d=json.loads(sys.argv[1]); print(eval(sys.argv[2]))' "$1" "$2"
}

# check_replica_sums <stats-json> — every summed per-replica engine key adds
# up to its cluster total (the replica merge on a live server).
check_replica_sums() {
  local key
  for key in submitted completed failed cancelled shed; do
    [[ $(jexpr "$1" "sum(r['${key}'] for r in d['replicas']) == d['${key}']") == True ]] \
      || fail "per-replica ${key} does not sum to the total: $1"
  done
}

echo "== single-item score =="
BODY='{"tokens":[3,1,4,1,5,9,2,6,5,3,5,9],"allowed_tokens":[10,20],"user_id":7}'
CODE=$(curl -s -o "${TMP_DIR}/score.json" -w '%{http_code}' -d "${BODY}" "${BASE}/v1/score")
[[ "${CODE}" == 200 ]] || fail "score expected 200, got ${CODE}"
RESP=$(cat "${TMP_DIR}/score.json")
[[ $(jexpr "${RESP}" '0.0 < d["score"] < 1.0') == True ]] || fail "score out of range: ${RESP}"
[[ $(jexpr "${RESP}" 'd["n_input"]') == 12 ]] || fail "n_input mismatch: ${RESP}"

echo "== multi-item score: per-item results in input order =="
BODY='{"items":[{"tokens":[1,2,3,4],"allowed_tokens":[10,20]},{"tokens":[5,6,7,8],"allowed_tokens":[10,20]},{"tokens":[9,10,11,12],"allowed_tokens":[10,20]}]}'
CODE=$(curl -s -o "${TMP_DIR}/multi.json" -w '%{http_code}' -d "${BODY}" "${BASE}/v1/score")
[[ "${CODE}" == 200 ]] || fail "multi-item expected 200, got ${CODE}"
RESP=$(cat "${TMP_DIR}/multi.json")
[[ $(jexpr "${RESP}" 'd["n_items"]') == 3 ]] || fail "n_items != 3: ${RESP}"
[[ $(jexpr "${RESP}" 'len(d["results"])') == 3 ]] || fail "results != 3: ${RESP}"
[[ $(jexpr "${RESP}" 'all("score" in r for r in d["results"])') == True ]] || fail "missing per-item score: ${RESP}"

echo "== expired deadline: 504 before dispatch =="
BODY='{"tokens":[1,2,3],"allowed_tokens":[10,20],"options":{"deadline_ms":0}}'
CODE=$(curl -s -o "${TMP_DIR}/dl.json" -w '%{http_code}' -d "${BODY}" "${BASE}/v1/score")
[[ "${CODE}" == 504 ]] || fail "deadline_ms=0 expected 504, got ${CODE}"
RESP=$(cat "${TMP_DIR}/dl.json")
[[ $(jexpr "${RESP}" 'd["error"]["code"]') == deadline_exceeded ]] || fail "bad error code: ${RESP}"
[[ $(jexpr "${RESP}" 'd["error"]["type"]') == timeout_error ]] || fail "bad error type: ${RESP}"

echo "== malformed allowed_tokens: 400, structured error =="
CODE=$(curl -s -o "${TMP_DIR}/bad.json" -w '%{http_code}' -d '{"tokens":[1,2],"allowed_tokens":["x"]}' "${BASE}/v1/score")
[[ "${CODE}" == 400 ]] || fail "malformed allowed_tokens expected 400, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/bad.json")" 'd["error"]["code"]') == invalid_argument ]] || fail "bad 400 shape"

echo "== async lifecycle: submit -> poll to done -> results =="
BODY='{"tokens":[2,7,1,8,2,8,1,8,2,8],"allowed_tokens":[10,20],"options":{"request_id":"smoke-1"}}'
CODE=$(curl -s -o "${TMP_DIR}/sub.json" -w '%{http_code}' -d "${BODY}" "${BASE}/v1/requests")
[[ "${CODE}" == 202 ]] || fail "submit expected 202, got ${CODE}"
RESP=$(cat "${TMP_DIR}/sub.json")
[[ $(jexpr "${RESP}" 'd["id"]') == smoke-1 ]] || fail "bad submit id: ${RESP}"
[[ $(jexpr "${RESP}" 'd["status"]') == queued ]] || fail "bad submit status: ${RESP}"
STATUS=""
for _ in $(seq 1 100); do
  RESP=$(curl -s "${BASE}/v1/requests/smoke-1")
  STATUS=$(jexpr "${RESP}" 'd["status"]')
  [[ "${STATUS}" == done ]] && break
  sleep 0.05
done
[[ "${STATUS}" == done ]] || fail "request never reached done: ${RESP}"
[[ $(jexpr "${RESP}" '0.0 < d["results"][0]["score"] < 1.0') == True ]] || fail "bad done results: ${RESP}"

echo "== cancel: DELETE resolves, repeat is idempotent =="
CODE=$(curl -s -o "${TMP_DIR}/c1.json" -w '%{http_code}' -X DELETE "${BASE}/v1/requests/smoke-1")
[[ "${CODE}" == 200 ]] || fail "cancel-after-done expected 200, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/c1.json")" 'd["status"]') == done ]] || fail "cancel-after-done must stay done"
CODE=$(curl -s -o "${TMP_DIR}/c2.json" -w '%{http_code}' -X DELETE "${BASE}/v1/requests/smoke-1")
[[ "${CODE}" == 200 ]] || fail "second cancel expected 200, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/c2.json")" 'd["status"]') == done ]] || fail "second cancel must stay done"

BODY='{"tokens":[4,4,4,4,4,4,4,4],"allowed_tokens":[10,20],"options":{"request_id":"smoke-2"}}'
curl -s -d "${BODY}" "${BASE}/v1/requests" >/dev/null
CODE=$(curl -s -o "${TMP_DIR}/c3.json" -w '%{http_code}' -X DELETE "${BASE}/v1/requests/smoke-2")
[[ "${CODE}" == 200 ]] || fail "cancel expected 200, got ${CODE}"
STATUS=$(jexpr "$(cat "${TMP_DIR}/c3.json")" 'd["status"]')
[[ "${STATUS}" == cancelled || "${STATUS}" == running || "${STATUS}" == done ]] \
  || fail "cancel returned unexpected state ${STATUS}"

echo "== unknown id: 404 =="
CODE=$(curl -s -o /dev/null -w '%{http_code}' "${BASE}/v1/requests/never-was")
[[ "${CODE}" == 404 ]] || fail "unknown id expected 404, got ${CODE}"

echo "== wrong method on known path: 405 + Allow =="
CODE=$(curl -s -o /dev/null -w '%{http_code}' "${BASE}/v1/score")
[[ "${CODE}" == 405 ]] || fail "GET /v1/score expected 405, got ${CODE}"
ALLOW=$(curl -s -D - -o /dev/null "${BASE}/v1/score" | tr -d '\r' | awk -F': ' 'tolower($1)=="allow"{print $2}')
[[ "${ALLOW}" == POST ]] || fail "405 missing Allow: POST (got '${ALLOW}')"

echo "== keep-alive: two polls on one connection =="
# curl reuses the connection for multiple URLs on one command line.
OUT=$(curl -sv -H 'Connection: keep-alive' "${BASE}/v1/stats" "${BASE}/v1/stats" 2>&1)
echo "${OUT}" | grep -q 'Re-using existing connection' || fail "connection was not reused"

echo "== health: 200 ok, wrong method 405 =="
CODE=$(curl -s -o "${TMP_DIR}/health.json" -w '%{http_code}' "${BASE}/v1/health")
[[ "${CODE}" == 200 ]] || fail "health expected 200, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/health.json")" 'd["status"]') == ok ]] \
  || fail "health status not ok: $(cat "${TMP_DIR}/health.json")"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "${BASE}/v1/health")
[[ "${CODE}" == 405 ]] || fail "POST /v1/health expected 405, got ${CODE}"

echo "== stats expose lifecycle counters =="
RESP=$(curl -s "${BASE}/v1/stats")
[[ $(jexpr "${RESP}" 'd["completed"] >= 5') == True ]] || fail "completed counter: ${RESP}"
[[ $(jexpr "${RESP}" '"cancelled" in d and "deadline_expired" in d') == True ]] || fail "missing lifecycle counters: ${RESP}"
[[ $(jexpr "${RESP}" '"shed" in d and "watchdog_stalls" in d and "abort_checks" in d and "faults_injected" in d') == True ]] \
  || fail "missing robustness counters: ${RESP}"

# ---------------------------------------------------------------------------
# Multi-replica cluster surface (ISSUE 8): a fresh server, two replicas.
# ---------------------------------------------------------------------------
kill "${SERVER_PID}" 2>/dev/null || true
wait "${SERVER_PID}" 2>/dev/null || true

CPORT=$((PORT + 1))
CBASE="http://127.0.0.1:${CPORT}"
PO_PORT="${CPORT}" PO_SERVE_SECONDS=120 PO_REPLICAS=2 "${SERVER}" >/dev/null 2>&1 &
SERVER_PID=$!

for _ in $(seq 1 100); do
  if curl -sf "${CBASE}/v1/stats" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

echo "== cluster: /v1/replicas lists both replicas closed + admitting =="
RESP=$(curl -s "${CBASE}/v1/replicas")
[[ $(jexpr "${RESP}" 'd["n_replicas"]') == 2 ]] || fail "n_replicas != 2: ${RESP}"
[[ $(jexpr "${RESP}" 'all(r["breaker"] == "closed" and r["admitting"] for r in d["replicas"])') == True ]] \
  || fail "replicas not healthy at boot: ${RESP}"

echo "== cluster: drain one replica -> health degraded, still serving =="
CODE=$(curl -s -o "${TMP_DIR}/drain.json" -w '%{http_code}' -X POST "${CBASE}/v1/replicas/0/drain")
[[ "${CODE}" == 200 ]] || fail "drain expected 200, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/drain.json")" 'd["replica"]["draining"]') == True ]] || fail "drain did not stick"
RESP=$(curl -s "${CBASE}/v1/health")
[[ $(jexpr "${RESP}" 'd["status"]') == degraded ]] || fail "health not degraded: ${RESP}"
[[ $(jexpr "${RESP}" 'd["admitting"]') == 1 ]] || fail "admitting != 1: ${RESP}"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d '{"tokens":[1,2,3,4],"allowed_tokens":[10,20]}' "${CBASE}/v1/score")
[[ "${CODE}" == 200 ]] || fail "degraded cluster must still score, got ${CODE}"

echo "== cluster: drain ALL -> 503 + Retry-After on health AND score =="
curl -s -X POST "${CBASE}/v1/replicas/1/drain" >/dev/null
CODE=$(curl -s -o "${TMP_DIR}/h503.json" -w '%{http_code}' "${CBASE}/v1/health")
[[ "${CODE}" == 503 ]] || fail "all-drained health expected 503, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/h503.json")" 'd["status"]') == overloaded ]] || fail "bad 503 health body"
[[ $(jexpr "$(cat "${TMP_DIR}/h503.json")" 'd["admitting"]') == 0 ]] || fail "admitting != 0 when all drained"
RETRY=$(curl -s -D - -o /dev/null "${CBASE}/v1/health" | tr -d '\r' | awk -F': ' 'tolower($1)=="retry-after"{print $2}')
[[ "${RETRY}" == 1 ]] || fail "health 503 missing Retry-After: 1 (got '${RETRY}')"
CODE=$(curl -s -o "${TMP_DIR}/s503.json" -w '%{http_code}' -d '{"tokens":[1,2,3,4],"allowed_tokens":[10,20]}' "${CBASE}/v1/score")
[[ "${CODE}" == 503 ]] || fail "all-drained score expected 503, got ${CODE}"
[[ $(jexpr "$(cat "${TMP_DIR}/s503.json")" 'd["error"]["code"]') == unavailable ]] || fail "bad 503 error code: $(cat "${TMP_DIR}/s503.json")"
RETRY=$(curl -s -D - -o /dev/null -d '{"tokens":[1,2],"allowed_tokens":[10,20]}' "${CBASE}/v1/score" | tr -d '\r' | awk -F': ' 'tolower($1)=="retry-after"{print $2}')
[[ "${RETRY}" == 1 ]] || fail "score 503 missing Retry-After: 1 (got '${RETRY}')"

echo "== cluster: rejoin -> ok and scoring resumes =="
curl -s -X POST "${CBASE}/v1/replicas/0/rejoin" >/dev/null
curl -s -X POST "${CBASE}/v1/replicas/1/rejoin" >/dev/null
RESP=$(curl -s "${CBASE}/v1/health")
[[ $(jexpr "${RESP}" 'd["status"]') == ok ]] || fail "health not ok after rejoin: ${RESP}"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d '{"tokens":[1,2,3,4],"allowed_tokens":[10,20]}' "${CBASE}/v1/score")
[[ "${CODE}" == 200 ]] || fail "score after rejoin expected 200, got ${CODE}"

echo "== cluster: stats aggregate with per-replica breakdowns =="
RESP=$(curl -s "${CBASE}/v1/stats")
[[ $(jexpr "${RESP}" 'd["n_replicas"]') == 2 ]] || fail "stats n_replicas != 2: ${RESP}"
[[ $(jexpr "${RESP}" '"routed_affinity" in d["cluster"] and "failovers" in d["cluster"] and "unavailable_rejections" in d["cluster"]') == True ]] \
  || fail "missing cluster counters: ${RESP}"
[[ $(jexpr "${RESP}" 'len(d["replicas"]) == 2') == True ]] || fail "missing per-replica breakdown: ${RESP}"
check_replica_sums "${RESP}"
[[ $(jexpr "${RESP}" 'd["cluster"]["unavailable_rejections"] >= 1') == True ]] \
  || fail "all-drained rejections not counted: ${RESP}"

# ---------------------------------------------------------------------------
# Concurrent burst against the 2-replica cluster server: 24 scores over 4
# parallel connections. Every request must return 200, and the server's
# ledger must balance afterwards (submitted == the sum of terminal buckets),
# with every summed per-replica key adding up to its total.
# ---------------------------------------------------------------------------
echo "== burst: 24 concurrent scores against the cluster server =="
BEFORE=$(curl -s "${CBASE}/v1/stats")
CODES=$(seq 1 24 | xargs -P 4 -I{} curl -s -o /dev/null -w '%{http_code}\n' \
  -d '{"tokens":[{},1,2,3,4,5,6,7],"allowed_tokens":[10,20],"user_id":{}}' "${CBASE}/v1/score")
[[ $(grep -c '^200$' <<<"${CODES}") == 24 ]] || fail "burst: not every score returned 200: $(tr '\n' ' ' <<<"${CODES}")"
AFTER=$(curl -s "${CBASE}/v1/stats")
[[ $(( $(jexpr "${AFTER}" 'd["completed"]') - $(jexpr "${BEFORE}" 'd["completed"]') )) -ge 24 ]] \
  || fail "burst: completed grew by less than 24: ${BEFORE} -> ${AFTER}"
[[ $(jexpr "${AFTER}" 'd["submitted"] == d["completed"] + d["failed"] + d["cancelled"] + d["cancelled_in_flight"] + d["deadline_expired"] + d["deadline_expired_in_flight"]') == True ]] \
  || fail "burst: ledger does not balance: ${AFTER}"
check_replica_sums "${AFTER}"

echo "SMOKE OK"
