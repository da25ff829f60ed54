#!/usr/bin/env bash
# End-to-end serving gate: bake a synthetic snapshot, start ikrqd, query
# every Table III variant over real HTTP, and assert each returns 200 with
# exactly $K well-formed routes; then check the result cache, error
# statuses, a hot snapshot swap under load, a v2 sequence query, the
# conditions bus, and a clean SIGTERM drain. This is the CI gate on the
# full bake -> serve -> query path a deployment depends on; load and
# latency under a fixed arrival rate are e2ebench's job (e2ebench/run.sh).
#
# Runs from the repo root: ./scripts/e2e.sh
# Needs: go, curl, jq.
set -euo pipefail

workdir=$(mktemp -d)
daemon_pid=""
sub_a_pid=""
sub_b_pid=""
cleanup() {
  [ -n "$sub_a_pid" ] && kill "$sub_a_pid" 2>/dev/null || true
  [ -n "$sub_b_pid" ] && kill "$sub_b_pid" 2>/dev/null || true
  # SIGTERM starts a drain: wait for it, so no ikrqd outlives the script.
  if [ -n "$daemon_pid" ]; then
    kill "$daemon_pid" 2>/dev/null || true
    wait "$daemon_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/ikrqgen" ./cmd/ikrqgen
go build -o "$workdir/ikrqd" ./cmd/ikrqd

echo "== bake"
# Every bake carries the KoE* backend, the hierarchical oracle, so served
# KoE* queries never pay its build.
bake_out=$("$workdir/ikrqgen" -floors 2 -seed 1 -snapshot "$workdir/mall.ikrq")
echo "$bake_out"
grep -q 'KoE\* oracle' <<<"$bake_out" || { echo "FAIL: the 2-floor bake carries no KoE* oracle"; exit 1; }

# The generated vocabulary is seed-deterministic gibberish; pull the two
# most widely assigned t-words from the JSON dump of the same space so the
# query has real key partitions to route through.
"$workdir/ikrqgen" -floors 2 -seed 1 -json > "$workdir/mall.json"
readarray -t kws < <(jq -r '
  [.partitions[].twords // [] | .[]] | group_by(.) | sort_by(-length) | .[0:2][][0]
' "$workdir/mall.json")
[ "${#kws[@]}" = 2 ] || { echo "FAIL: could not extract two t-words"; exit 1; }
echo "query keywords: ${kws[*]}"

echo "== serve"
port="${IKRQD_E2E_PORT:-18421}"
base="http://127.0.0.1:$port"
"$workdir/ikrqd" -listen "127.0.0.1:$port" -venue mall="$workdir/mall.ikrq" \
  -snapshot-root "$workdir" &
daemon_pid=$!

for i in $(seq 1 100); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  kill -0 "$daemon_pid" 2>/dev/null || { echo "FAIL: daemon died during startup"; exit 1; }
  [ "$i" = 100 ] && { echo "FAIL: daemon never became healthy"; exit 1; }
  sleep 0.1
done
curl -fsS "$base/healthz" | jq -e '.status == "ok"' >/dev/null
echo "healthz ok"

# A query every variant answers in full: hallway-to-hallway across both
# floors under the paper's Table IV budget, η = 1.6 (Δ = 1.6 × the shortest
# distance). Even the ablations fill k well inside ikrqd's expansion cap, so
# the sweep does not depend on host speed; an absolute Δ of 2200 m sent
# ToE\B into the cap and close to the query deadline. K must match the
# assertion below.
K=3
query() { # $1 = variant
  jq -n --arg variant "$1" --argjson k "$K" --arg kw1 "${kws[0]}" --arg kw2 "${kws[1]}" '{
    start:    {x: 3,   y: 3,  floor: 0},
    terminal: {x: 100, y: 60, floor: 1},
    keywords: [$kw1, $kw2],
    k:        $k,
    eta:      1.6,
    alpha:    0.5,
    tau:      0.2,
    variant:  $variant
  }'
}

echo "== query every Table III variant"
for variant in 'ToE' 'ToE\D' 'ToE\B' 'ToE\P' 'KoE' 'KoE\D' 'KoE\B' 'KoE*'; do
  body=$(query "$variant")
  resp_file="$workdir/resp.json"
  status=$(curl -sS -o "$resp_file" -w '%{http_code}' \
    -X POST -H 'Content-Type: application/json' \
    -d "$body" "$base/v1/venues/mall/query")
  if [ "$status" != 200 ]; then
    echo "FAIL: $variant -> HTTP $status: $(cat "$resp_file")"
    exit 1
  fi
  # Exactly k routes from a search that ran to completion (not truncated
  # by the expansion cap), each well-formed: non-empty door list, matching
  # entered-partition list, positive distance within the budget, and a
  # sims vector sized to the query keywords.
  jq -e --arg variant "$variant" --argjson k "$K" '
    (.variant == $variant) and
    (.stats.truncated != true) and
    (.routes | length == $k) and
    (.delta as $delta | [.routes[] | select(
        ((.doors | length) > 0) and
        ((.entered | length) == (.doors | length)) and
        (.dist > 0 and .dist <= $delta) and
        ((.sims | length) == 2) and
        ((.psi | type) == "number")
      )] | length == $k)
  ' "$resp_file" >/dev/null || {
    echo "FAIL: $variant returned a malformed result: $(cat "$resp_file")"
    exit 1
  }
  echo "$variant: 200, $K well-formed routes"
done

echo "== result cache"
# A repeated identical query must be served from the cache: the hit counter
# rises and the body is byte-identical to the first answer (including the
# stats, which a hit replays from the original run).
cache_body=$(query ToE)
curl -sS -X POST -H 'Content-Type: application/json' \
  -d "$cache_body" "$base/v1/venues/mall/query" -o "$workdir/cache1.json"
hits_before=$(curl -fsS "$base/debug/vars" | jq '.result_cache.hits')
curl -sS -X POST -H 'Content-Type: application/json' \
  -d "$cache_body" "$base/v1/venues/mall/query" -o "$workdir/cache2.json"
hits_after=$(curl -fsS "$base/debug/vars" | jq '.result_cache.hits')
cmp -s "$workdir/cache1.json" "$workdir/cache2.json" || {
  echo "FAIL: cached repeat body differs from the first answer"
  diff "$workdir/cache1.json" "$workdir/cache2.json" || true
  exit 1
}
[ "$hits_after" -gt "$hits_before" ] || {
  echo "FAIL: repeated query did not hit the cache ($hits_before -> $hits_after)"; exit 1; }
# Mutating the conditions overlay is a different query: it must miss.
misses_before=$(curl -fsS "$base/debug/vars" | jq '.result_cache.misses')
echo "$cache_body" | jq '. + {conditions: {delay: {"0": 5}}}' > "$workdir/cachemut.json"
curl -sS -X POST -H 'Content-Type: application/json' \
  -d @"$workdir/cachemut.json" "$base/v1/venues/mall/query" -o /dev/null
misses_after=$(curl -fsS "$base/debug/vars" | jq '.result_cache.misses')
[ "$misses_after" -gt "$misses_before" ] || {
  echo "FAIL: conditions mutation did not miss ($misses_before -> $misses_after)"; exit 1; }
curl -fsS "$base/v1/venues" | jq -e '.venues[0].result_cache.hits >= 1' >/dev/null || {
  echo "FAIL: /v1/venues does not carry per-venue cache counters"; exit 1; }
echo "cache: byte-identical hit, conditions-mutation miss, counters exported"

echo "== error statuses"
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d "$(query ToE)" "$base/v1/venues/atlantis/query")
[ "$st" = 404 ] || { echo "FAIL: unknown venue -> $st, want 404"; exit 1; }
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST -d '{"broken' "$base/v1/venues/mall/query")
[ "$st" = 400 ] || { echo "FAIL: malformed body -> $st, want 400"; exit 1; }
# Wire caps: 17 keywords on a route query, and a door ID past int32 that
# would wrap onto door 5 if converted unchecked.
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d "$(query ToE | jq '.keywords = [range(17) | "kw\(.)"]')" "$base/v1/venues/mall/query")
[ "$st" = 400 ] || { echo "FAIL: 17-keyword query -> $st, want 400"; exit 1; }
st=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT \
  -d '{"close": [4294967301]}' "$base/v2/venues/mall/conditions")
[ "$st" = 400 ] || { echo "FAIL: publish of door 4294967301 -> $st, want 400"; exit 1; }
curl -fsS "$base/debug/vars" | jq -e '.queries.ok >= 8' >/dev/null || {
  echo "FAIL: /debug/vars did not count the served queries"; exit 1; }
echo "404/400/wire caps/vars ok"

echo "== hot snapshot swap under load"
# Re-bake the same space to a second file, then swap the live venue onto it
# while a query loop runs: every query across the swap must answer 200 —
# in-flight searches drain on the engine they acquired, later arrivals see
# the new bake.
"$workdir/ikrqgen" -floors 2 -seed 1 -snapshot "$workdir/mall-rebake.ikrq"
# Also re-bake the serving path itself: ikrqgen replaces it atomically
# (temp file + rename), so the daemon's live mmap keeps serving the old
# inode untouched — queries must stay 200 throughout (DESIGN.md §13).
"$workdir/ikrqgen" -floors 2 -seed 1 -snapshot "$workdir/mall.ikrq"
swap_statuses="$workdir/swap_statuses"
: > "$swap_statuses"
(
  for i in $(seq 1 40); do
    # A fresh conditions overlay per iteration bypasses the result cache,
    # so every request exercises a real search on whichever engine is live.
    echo "$cache_body" | jq --argjson i "$i" '. + {conditions: {delay: {"0": $i}}}' |
      curl -sS -o /dev/null -w '%{http_code}\n' \
        -X POST -H 'Content-Type: application/json' \
        -d @- "$base/v1/venues/mall/query" >> "$swap_statuses" || echo curlfail >> "$swap_statuses"
  done
) &
load_pid=$!
sleep 0.2
st=$(curl -sS -o "$workdir/reload.json" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' \
  -d '{"path": "mall-rebake.ikrq"}' "$base/v1/venues/mall/reload")
[ "$st" = 200 ] || { echo "FAIL: reload -> HTTP $st: $(cat "$workdir/reload.json")"; exit 1; }
jq -e '.venue == "mall" and .load_ms >= 0' "$workdir/reload.json" >/dev/null || {
  echo "FAIL: malformed reload response: $(cat "$workdir/reload.json")"; exit 1; }
wait "$load_pid"
[ "$(wc -l < "$swap_statuses")" = 40 ] || {
  echo "FAIL: swap load loop ran $(wc -l < "$swap_statuses")/40 queries"; exit 1; }
bad=$(grep -cv '^200$' "$swap_statuses" || true)
[ "$bad" = 0 ] || {
  echo "FAIL: $bad queries failed across the swap:"; sort "$swap_statuses" | uniq -c; exit 1; }
curl -fsS "$base/debug/vars" | jq -e '.registry.reloads >= 1' >/dev/null || {
  echo "FAIL: /debug/vars did not count the reload"; exit 1; }
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d '{"path": "nonexistent.ikrq"}' "$base/v1/venues/mall/reload")
[ "$st" = 503 ] || { echo "FAIL: reload of a missing file -> $st, want 503"; exit 1; }
# Overrides outside -snapshot-root (absolute or ..-escaping) are refused
# before the loader ever sees them.
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d '{"path": "/etc/passwd"}' "$base/v1/venues/mall/reload")
[ "$st" = 403 ] || { echo "FAIL: absolute reload path -> $st, want 403"; exit 1; }
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d '{"path": "../escape.ikrq"}' "$base/v1/venues/mall/reload")
[ "$st" = 403 ] || { echo "FAIL: escaping reload path -> $st, want 403"; exit 1; }
echo "swap: 40/40 queries 200 across the reload, failed reload left venue serving, escapes 403"

echo "== v2 sequence query"
# An ordered two-leg itinerary through the same baked mall: one waypoint
# per leg, visited in request order (entered-partition positions prove it).
seq_body=$(jq -n --arg kw1 "${kws[0]}" --arg kw2 "${kws[1]}" '{
  type: "sequence",
  start:    {x: 3,   y: 3,  floor: 0},
  terminal: {x: 100, y: 60, floor: 1},
  legs:     [{keywords: [$kw1]}, {keywords: [$kw2]}],
  k: 3, delta: 2200, alpha: 0.5, tau: 0.2
}')
st=$(curl -sS -o "$workdir/seq.json" -w '%{http_code}' \
  -X POST -H 'Content-Type: application/json' \
  -d "$seq_body" "$base/v2/venues/mall/query")
[ "$st" = 200 ] || { echo "FAIL: sequence query -> HTTP $st: $(cat "$workdir/seq.json")"; exit 1; }
# Leg order on the walk: waypoint 1's entry position precedes waypoint
# 2's. A waypoint absent from `entered` is the in-place case (the leg is
# satisfied by the partition the walk is already inside, e.g. the start's
# host) and anchors at its predecessor's position.
jq -e '
  (.routes | length) as $n |
  (.type == "sequence") and
  ($n > 0) and
  ([.routes[]
     | . as $r
     | (($r.entered | index($r.waypoints[0])) // -1) as $i0
     | (($r.entered | index($r.waypoints[1])) // $i0) as $i1
     | select(
        (($r.waypoints | length) == 2) and
        (($r.leg_rho  | length) == 2) and
        (($r.leg_sims | length) == 2) and
        ($i0 <= $i1) and
        ($r.dist > 0 and $r.dist <= 2200)
      )] | length == $n)
' "$workdir/seq.json" >/dev/null || {
  echo "FAIL: malformed sequence result: $(cat "$workdir/seq.json")"; exit 1; }
# The v2 envelope is strict: unknown fields and a missing type are 400s.
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d "$(echo "$seq_body" | jq '. + {surprise: 1}')" "$base/v2/venues/mall/query")
[ "$st" = 400 ] || { echo "FAIL: unknown v2 field -> $st, want 400"; exit 1; }
st=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d "$(echo "$seq_body" | jq 'del(.type)')" "$base/v2/venues/mall/query")
[ "$st" = 400 ] || { echo "FAIL: missing v2 discriminator -> $st, want 400"; exit 1; }
echo "sequence: 200, legs visited in order, strict envelope 400s"

echo "== conditions bus: publish + subscribe"
# Two subscribers on disjoint keyword routes. Closing a door on A's best
# route must push A exactly one re-route and push B nothing; the SSE event
# id is the conditions revision, so B's first push arriving with id 2
# proves revision 1 was (correctly) silent for it.
env_a=$(jq -n --arg kw "${kws[0]}" '{
  type: "route",
  start: {x: 3, y: 3, floor: 0}, terminal: {x: 100, y: 60, floor: 1},
  keywords: [$kw], k: 3, delta: 2200, alpha: 0.5, tau: 0.2
}')
env_b=$(jq -n --arg kw "${kws[1]}" '{
  type: "route",
  start: {x: 3, y: 3, floor: 0}, terminal: {x: 100, y: 60, floor: 1},
  keywords: [$kw], k: 3, delta: 2200, alpha: 0.5, tau: 0.2
}')
curl -sS -X POST -H 'Content-Type: application/json' \
  -d "$env_a" "$base/v2/venues/mall/query" -o "$workdir/a0.json"
curl -sS -X POST -H 'Content-Type: application/json' \
  -d "$env_b" "$base/v2/venues/mall/query" -o "$workdir/b0.json"
# door_a: on one of A's served routes but on none of B's (closing it must
# re-route A and cannot change B's top-k — closures only remove walks, and
# all of B's survive). If every A door is shared — e.g. A's keyword matches
# the start's host partition, so its routes are plain hallway walks — the
# roles swap: one side always detours through brand doors the other skips.
only_in() { # doors in $1's routes that are on none of $2's
  jq -n --argjson a "$(jq '[.routes[].doors[]] | unique' "$1")" \
        --argjson b "$(jq '[.routes[].doors[]] | unique' "$2")" \
        '[$a[] | select(. as $d | $b | index($d) | not)][0]'
}
door_a=$(only_in "$workdir/a0.json" "$workdir/b0.json")
if [ "$door_a" = "null" ]; then
  door_a=$(only_in "$workdir/b0.json" "$workdir/a0.json")
  tmp_env=$env_a; env_a=$env_b; env_b=$tmp_env
  mv "$workdir/a0.json" "$workdir/swap.json"
  mv "$workdir/b0.json" "$workdir/a0.json"
  mv "$workdir/swap.json" "$workdir/b0.json"
fi
[ "$door_a" != "null" ] && [ -n "$door_a" ] || {
  echo "FAIL: could not find a door unique to either subscriber's routes"; exit 1; }
# door_b: any door on one of B's served routes re-routes B when closed.
door_b=$(jq '.routes[0].doors[0]' "$workdir/b0.json")

curl -sN -X POST -H 'Content-Type: application/json' \
  -d "$env_a" "$base/v2/venues/mall/subscribe" > "$workdir/a_stream" &
sub_a_pid=$!
curl -sN -X POST -H 'Content-Type: application/json' \
  -d "$env_b" "$base/v2/venues/mall/subscribe" > "$workdir/b_stream" &
sub_b_pid=$!
wait_events() { # $1 = stream file, $2 = result-event count to wait for
  local n
  for i in $(seq 1 100); do
    n=$(grep -c '^event: result' "$1" 2>/dev/null || true)
    [ "${n:-0}" -ge "$2" ] && return 0
    sleep 0.1
  done
  echo "FAIL: $1 never reached $2 result events:"; cat "$1"; return 1
}
wait_events "$workdir/a_stream" 1
wait_events "$workdir/b_stream" 1

# Query load across the publish: zero dropped queries is the bar, same as
# the snapshot swap (distinct explicit overlays bypass cache and bus).
pub_statuses="$workdir/pub_statuses"
: > "$pub_statuses"
(
  for i in $(seq 1 20); do
    echo "$cache_body" | jq --argjson i "$i" '. + {conditions: {delay: {"1": $i}}}' |
      curl -sS -o /dev/null -w '%{http_code}\n' \
        -X POST -H 'Content-Type: application/json' \
        -d @- "$base/v1/venues/mall/query" >> "$pub_statuses" || echo curlfail >> "$pub_statuses"
  done
) &
pub_load_pid=$!

st=$(curl -sS -o "$workdir/pub1.json" -w '%{http_code}' -X PUT \
  -H 'Content-Type: application/json' \
  -d "{\"close\": [$door_a]}" "$base/v2/venues/mall/conditions")
[ "$st" = 200 ] || { echo "FAIL: publish -> HTTP $st: $(cat "$workdir/pub1.json")"; exit 1; }
jq -e '.venue == "mall" and .revision == 1 and .closed == 1' "$workdir/pub1.json" >/dev/null || {
  echo "FAIL: malformed publish response: $(cat "$workdir/pub1.json")"; exit 1; }

wait_events "$workdir/a_stream" 2
# A's re-route equals a fresh v2 query under the published revision.
grep '^data: ' "$workdir/a_stream" | sed -n '2p' | cut -c7- | jq '.routes' > "$workdir/push_routes.json"
curl -sS -X POST -H 'Content-Type: application/json' \
  -d "$env_a" "$base/v2/venues/mall/query" | jq '.routes' > "$workdir/fresh_routes.json"
cmp -s "$workdir/push_routes.json" "$workdir/fresh_routes.json" || {
  echo "FAIL: pushed re-route differs from a fresh query:"
  diff "$workdir/push_routes.json" "$workdir/fresh_routes.json" || true
  exit 1
}
# Closing a door on B's route (revision 2) is B's first push: its id
# sequence 0,2 proves revision 1 pushed nothing to the unaffected route.
st=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT \
  -d "{\"close\": [$door_b]}" "$base/v2/venues/mall/conditions")
[ "$st" = 200 ] || { echo "FAIL: second publish -> HTTP $st"; exit 1; }
wait_events "$workdir/b_stream" 2
b_ids=$(grep '^id: ' "$workdir/b_stream" | awk '{print $2}' | paste -sd, -)
[ "$b_ids" = "0,2" ] || {
  echo "FAIL: B's event ids are [$b_ids], want [0,2]:"; cat "$workdir/b_stream"; exit 1; }
a_ids=$(grep '^id: ' "$workdir/a_stream" | awk '{print $2}' | head -2 | paste -sd, -)
[ "$a_ids" = "0,1" ] || {
  echo "FAIL: A's first event ids are [$a_ids], want [0,1]:"; cat "$workdir/a_stream"; exit 1; }

wait "$pub_load_pid"
[ "$(wc -l < "$pub_statuses")" = 20 ] || {
  echo "FAIL: publish load loop ran $(wc -l < "$pub_statuses")/20 queries"; exit 1; }
bad=$(grep -cv '^200$' "$pub_statuses" || true)
[ "$bad" = 0 ] || {
  echo "FAIL: $bad queries failed across the publishes:"; sort "$pub_statuses" | uniq -c; exit 1; }
curl -fsS "$base/debug/vars" | jq -e '.bus.publishes >= 2 and .bus.pushes >= 2' >/dev/null || {
  echo "FAIL: /debug/vars does not carry bus counters"; exit 1; }
# Clear the published overlay and release the streams.
st=$(curl -sS -o /dev/null -w '%{http_code}' -X PUT -d '' "$base/v2/venues/mall/conditions")
[ "$st" = 200 ] || { echo "FAIL: clearing publish -> HTTP $st"; exit 1; }
kill "$sub_a_pid" "$sub_b_pid" 2>/dev/null || true
wait "$sub_a_pid" 2>/dev/null || true
wait "$sub_b_pid" 2>/dev/null || true
echo "bus: one re-route for the affected route, id-fenced silence for the other, 20/20 queries 200 across publishes"

echo "== graceful drain"
kill -TERM "$daemon_pid"
for i in $(seq 1 100); do
  kill -0 "$daemon_pid" 2>/dev/null || break
  [ "$i" = 100 ] && { echo "FAIL: daemon still running after SIGTERM"; exit 1; }
  sleep 0.1
done
wait "$daemon_pid" && rc=0 || rc=$?
daemon_pid=""
[ "$rc" = 0 ] || { echo "FAIL: daemon exited $rc after SIGTERM, want 0"; exit 1; }
echo "drained cleanly"

echo "e2e: all green"
