#!/usr/bin/env bash
# End-to-end smoke of the serving tier and the scheduler twin:
#
#   tools/smoke.sh BUILD_DIR OUT_DIR
#
# BUILD_DIR holds a built surro_cli and twin_policy_gap (CI's asan-ubsan
# job runs this on its sanitizer build). The script trains the served
# models once into OUT_DIR/models, then runs five flows: JSONL replay,
# overload soak, HTTP API, remote shards and twin sweeps. Every artifact
# and log lands in OUT_DIR/<flow>/, and tools/check_artifact.py gates each
# artifact. Any failed command or check ends the run with a nonzero exit.
set -euo pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 BUILD_DIR OUT_DIR" >&2
  exit 2
fi
TOOLS=$(cd "$(dirname "$0")" && pwd)
BUILD=$(cd "$1" && pwd)
CLI=$BUILD/surro_cli
check() { python3 "$TOOLS/check_artifact.py" "$@"; }
mkdir -p "$2"
cd "$2"

# On any exit, SIGKILL and reap every background job (servers, workers,
# the mid-kill soak) still running.
reap() {
  for pid in $(jobs -pr); do
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
}
trap reap EXIT

# start_server NAME TRIES SERVE_ARGS...: `surro_cli serve` on an ephemeral
# port, logging to NAME.log, with its port in NAME.port and its pid in
# NAME.pid. It must answer /healthz within TRIES polls 0.2 s apart.
start_server() {
  local name=$1 tries=$2
  shift 2
  rm -f "$name.port"
  "$CLI" serve "$@" --listen 0 --port-file "$name.port" > "$name.log" 2>&1 &
  echo $! > "$name.pid"
  for _ in $(seq "$tries"); do
    if [ -s "$name.port" ] && "$CLI" request --path /healthz \
         --connect "127.0.0.1:$(cat "$name.port")" > /dev/null 2>&1; then
      echo "$name healthy on port $(cat "$name.port")"
      return 0
    fi
    sleep 0.2
  done
  echo "$name never became healthy" >&2
  cat "$name.log" >&2
  return 1
}

# stop_server NAME: SIGTERM drains the server; it must exit 0 within 20 s
# and log the clean drain.
stop_server() {
  local pid
  pid=$(cat "$1.pid")
  kill -TERM "$pid"
  for _ in $(seq 100); do
    kill -0 "$pid" 2>/dev/null || break
    sleep 0.2
  done
  if kill -0 "$pid" 2>/dev/null; then
    echo "$1 did not exit after SIGTERM" >&2
    return 1
  fi
  wait "$pid"
  grep -q "drained, exiting cleanly" "$1.log" || {
    echo "$1 did not drain cleanly" >&2
    cat "$1.log" >&2
    return 1
  }
  echo "$1 drained and exited cleanly"
}

# The served models: one data set, each model fitted with the same seed.
mkdir -p models
"$CLI" generate --days 10 --rate 150 --seed 42 --out jobs.csv
for model in smote tvae ctabgan tabddpm; do
  "$CLI" save-model --data jobs.csv --model "$model" --epochs 4 --seed 7 \
    --out "models/$model.bin"
done
TWO="smote=models/smote.bin;tvae=models/tvae.bin"

# --- Replay: one JSONL script at two concurrency and cache settings must
# give one output hash.
mkdir -p serve
printf '%s\n' '# replay script: one request per line' \
  '{"model": "smote", "rows": 500, "seed": 7, "repeat": 4, "seed_stride": 1}' \
  '{"model": "tvae", "rows": 300, "seed": 9, "repeat": 2, "priority": 5}' \
  > serve/requests.jsonl
"$CLI" serve --models "$TWO" --script serve/requests.jsonl --clients 4 \
  --capacity 1 --json-out serve/serve_stats.json
"$CLI" serve --models "$TWO" --script serve/requests.jsonl --clients 1 \
  --capacity 2 --json-out serve/serve_stats_alt.json
check serve serve/serve_stats.json serve/serve_stats_alt.json

# --- Overload soak over all four models: one sweep config (a shallow
# reject queue, 4 Poisson clients, offered load 0.5x to 4x the calibrated
# capacity) run twice in-process, then over a socket at 4 shards x 3
# replicas and at 1 shard. With 3 replicas every shard owns a replica of
# some model key (at 2, shard 2 owns none). soak exits nonzero on a digest
# mismatch.
mkdir -p soak
sweep=(--models-dir models --load 0.5,1,2,4 --clients 4 --rows 500
       --streams 4 --duration 2 --max-queue 2 --admission reject --seed 42)
"$CLI" soak "${sweep[@]}" --json-out soak/serve_soak.json
"$CLI" soak "${sweep[@]}" --json-out soak/serve_soak_rerun.json
check soak soak/serve_soak.json soak/serve_soak_rerun.json
"$CLI" soak "${sweep[@]}" --over-socket --shards 4 --replicas 3 \
  --json-out soak/serve_soak_sharded.json
"$CLI" soak "${sweep[@]}" --over-socket \
  --json-out soak/serve_soak_baseline.json
check sharded soak/serve_soak_sharded.json soak/serve_soak_baseline.json

# --- HTTP API: the self-probe, then every endpoint of a live server with
# API keys and quotas, then one soak in-process and over a socket.
mkdir -p http
"$CLI" serve --models "smote=models/smote.bin" --listen 0 --self-probe \
  --rows 500 --seed 9
printf '%s\n' '# API keys: KEY RATE' 'smoke-key 1000' 'lowrate 1' \
  > http/keys.txt
start_server http/server 50 --models "smote=models/smote.bin" \
  --api-keys-file http/keys.txt --quota-rps 1000 --page-rows 200 \
  --serve-seconds 300
req() { "$CLI" request --connect "127.0.0.1:$(cat http/server.port)" "$@"; }
# Liveness needs no key; everything else does.
req --path /healthz
req --path /v1/models --expect-status 401
req --path /v1/models --key wrong-key --expect-status 401
req --path /v1/models --key smoke-key
# Routing and validation errors are typed.
req --path /v1/nope --key smoke-key --expect-status 404
req --path /v1/models --key smoke-key --method DELETE --expect-status 405
req --path /v1/sample --key smoke-key --body '{not json' --expect-status 400
req --path /v1/sample --key smoke-key \
  --body '{"model":"smote","rows":10,"chnk_rows":64}' --expect-status 400
req --path /v1/sample --key smoke-key \
  --body '{"model":"tabddpm","rows":10}' --expect-status 404
req --path /v1/jobs/424242 --key smoke-key --expect-status 404
# Submit, page through the result, delete it.
req --path /v1/sample --key smoke-key --expect-status 202 \
  --body '{"model":"smote","rows":500,"seed":"987654321098765432"}' \
  > http/submit.json
job=$(check job http/submit.json)
req --path "/v1/jobs/$job?wait_ms=20000" --key smoke-key > http/page0.json
check first-page http/page0.json
req --path "/v1/jobs/$job?cursor=400" --key smoke-key > http/page2.json
check last-page http/page2.json
req --path "/v1/jobs/$job" --method DELETE --key smoke-key
req --path "/v1/jobs/$job" --key smoke-key --expect-status 404
# Quota exhaustion: the lowrate key's bucket holds one token.
req --path /v1/models --key lowrate
req --path /v1/models --key lowrate --expect-status 429
req --path /v1/stats --key smoke-key > http/serve_http_stats.json
check http-stats http/serve_http_stats.json
stop_server http/server
transport=(--models "smote=models/smote.bin" --load 0.5,2 --clients 4
           --rows 400 --duration 1 --seed 2024 --admission reject
           --max-queue 4)
"$CLI" soak "${transport[@]}" --json-out http/soak_inproc.json
"$CLI" soak "${transport[@]}" --over-socket --json-out http/soak_socket.json
check transport http/soak_inproc.json http/soak_socket.json

# --- Remote shards: a 3-worker fleet behind 1 local shard with
# replication 2 must digest like an in-process run; a worker SIGKILLed
# mid-soak must re-route without changing bytes; SIGTERM drains the rest.
mkdir -p remote
remote=(--models "$TWO" --clients 4 --rows 400 --streams 8
        --admission reject --max-queue 4)
"$CLI" soak "${remote[@]}" --load 0.5,2 --duration 1 --seed 2024 \
  --json-out remote/soak_baseline.json
for i in 1 2 3; do
  start_server "remote/w$i" 100 --models "$TWO" --worker --serve-seconds 900
done
workers="127.0.0.1:$(cat remote/w1.port),127.0.0.1:$(cat remote/w2.port)"
workers+=",127.0.0.1:$(cat remote/w3.port)"
"$CLI" soak "${remote[@]}" --load 0.5,2 --duration 1 --seed 2024 \
  --shards 1 --replicas 2 --remote-shards "$workers" \
  --json-out remote/soak_remote.json
check remote remote/soak_remote.json remote/soak_baseline.json
"$CLI" soak "${remote[@]}" --load 0.5,1,2 --duration 2 --seed 99 \
  --shards 1 --replicas 2 --remote-shards "$workers" \
  --json-out remote/soak_kill.json > remote/soak_kill.log 2>&1 &
soak=$!
sleep 3
kill -9 "$(cat remote/w1.pid)"
echo "SIGKILLed worker 1 mid-soak"
wait "$soak"
tail -n 5 remote/soak_kill.log
check kill remote/soak_kill.json
stop_server remote/w2
stop_server remote/w3
# The supervised one-command version: spawn, probe mixed-pool digests,
# and fail unless every worker exits 0 on SIGTERM.
"$CLI" fleet --workers 2 --models "$TWO" --rows 300 --seed 9 \
  | tee remote/fleet.log
grep -q "shut down cleanly" remote/fleet.log

# --- Twin: serial and 4-thread-via-service sweeps of the policy x
# disruption x drift grid must agree bitwise; the policy-gap bench re-runs
# every registered model and exits nonzero on any digest mismatch.
mkdir -p twin
grid=(--days 6 --rate 60 --model smote --rows 600 --epochs 4
      --policies random,locality,least-loaded,hybrid
      --scenarios none,outage,burst,storm --drifts none,mean_shift)
"$CLI" twin "${grid[@]}" --serial --json-out twin/twin_matrix_serial.json
"$CLI" twin "${grid[@]}" --threads 4 --via-service \
  --json-out twin/twin_matrix_threaded.json
check twin twin/twin_matrix_serial.json twin/twin_matrix_threaded.json
"$BUILD/twin_policy_gap" --quick --json-out twin/twin_policy_gap.json
check json twin/twin_policy_gap.json
echo "smoke: every flow passed"
