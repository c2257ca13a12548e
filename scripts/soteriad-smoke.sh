#!/usr/bin/env bash
# CI smoke test for the soteriad daemon, in five phases:
#   1. serve-and-cache: analyze a paper app over HTTP, assert the
#      repeated request is served from the store, SIGTERM drains cleanly;
#   2. backpressure: with a 1-worker/1-deep queue, overflow submissions
#      are rejected 429 with a Retry-After hint;
#   3. restart-resume: a journaled job survives SIGTERM + restart under
#      its original ID, reaches a terminal state, and an idempotent
#      resubmission is answered by that same job;
#   4. observability: against a live daemon, /metrics passes the
#      exposition validator with the telemetry families present, a
#      timings request returns a span tree + X-Soteria-Trace header,
#      the trace ID appears in the daemon's log, the slow-job span dump
#      fires, pprof answers on its own listener, and soteria
#      -explain-timing prints a local span tree;
#   5. fleet: three daemons formed with -peers report 3 ring members,
#      no member accepts a PUT of a record (405), and an analysis
#      submitted to node 1 is answered from the owner's store
#      (cached:true) when resubmitted to node 2.
set -euo pipefail
cd "$(dirname "$0")/.."

addr=127.0.0.1:8391
base="http://$addr"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/soteriad" ./cmd/soteriad
go run ./scripts/smokereq > "$workdir/req.json"

"$workdir/soteriad" -addr "$addr" -store "$workdir/store" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

for _ in $(seq 1 50); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.2
done
curl -fsS "$base/healthz" >/dev/null

first=$(curl -fsS -X POST --data-binary @"$workdir/req.json" "$base/v1/analyze")
echo "$first" | grep -q '"schema":2' || { echo "no schema-2 record in: $first"; exit 1; }
if echo "$first" | grep -q '"cached":true'; then
    echo "first request unexpectedly cached: $first"; exit 1
fi

second=$(curl -fsS -X POST --data-binary @"$workdir/req.json" "$base/v1/analyze")
echo "$second" | grep -q '"cached":true' || { echo "repeat not served from store: $second"; exit 1; }

# Buffered: grep -q quitting mid-stream would break curl's pipe and
# fail the pipeline under pipefail even on a successful match.
metrics=$(curl -fsS "$base/metrics")
echo "$metrics" | grep -Eq 'soteriad_store_hits_total [1-9]' \
    || { echo "store hit counter did not increment"; exit 1; }

kill -TERM "$pid"
status=0
wait "$pid" || status=$?
if [ "$status" -ne 0 ]; then
    echo "soteriad exited $status on SIGTERM"; exit 1
fi
trap 'rm -rf "$workdir"' EXIT
echo "phase 1 OK: serve-and-cache + clean drain"

json_field() { # json_field NAME — extract a string field from stdin
    grep -o "\"$1\":\"[^\"]*\"" | head -1 | cut -d'"' -f4
}

wait_healthy() { # wait_healthy BASE
    for _ in $(seq 1 50); do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    curl -fsS "$1/healthz" >/dev/null
}

# --- Phase 2: 429 + Retry-After under backpressure -------------------
# One worker, one queue slot, chaos-slowed writes. A 60-item batch
# occupies the worker for hundreds of milliseconds (each record write
# is chaos-delayed), while twelve concurrent single submissions drain
# one at a time through the journal's write lock into the full queue:
# the first takes the only slot, the rest must be turned away with 429
# and a Retry-After hint.
addr2=127.0.0.1:8392
base2="http://$addr2"
go run ./scripts/smokereq -batch 60 -variant 100 -async > "$workdir/slow-a.json"
for i in $(seq 1 12); do
    go run ./scripts/smokereq -variant "$((200 + i))" -async > "$workdir/burst-$i.json"
done

SOTERIAD_CHAOS_FS=1 "$workdir/soteriad" -addr "$addr2" \
    -store "$workdir/store2" -journal "$workdir/journal2.wal" \
    -workers 1 -queue 1 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_healthy "$base2"

curl -fsS -X POST --data-binary @"$workdir/slow-a.json" "$base2/v1/batch" >/dev/null
for i in $(seq 1 12); do
    curl -sS -o "$workdir/burst-$i.out" -D "$workdir/burst-$i.hdr" -w '%{http_code}' \
        -X POST --data-binary @"$workdir/burst-$i.json" "$base2/v1/analyze" \
        > "$workdir/burst-$i.code" &
done
wait $(jobs -p | grep -v "^$pid\$") 2>/dev/null || true

rejected=0
for i in $(seq 1 12); do
    if [ "$(cat "$workdir/burst-$i.code")" = "429" ]; then
        rejected=$((rejected + 1))
        grep -qi '^retry-after: [0-9]' "$workdir/burst-$i.hdr" \
            || { echo "429 without Retry-After header:"; cat "$workdir/burst-$i.hdr"; exit 1; }
    fi
done
if [ "$rejected" -eq 0 ]; then
    echo "no burst submission was rejected 429:"; cat "$workdir"/burst-*.code; echo; exit 1
fi
kill -9 "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
echo "phase 2 OK: $rejected/12 overflow submissions rejected 429 + Retry-After"

# --- Phase 3: restart-resume round trip ------------------------------
# Submit a journaled async job, SIGTERM the daemon, restart it over the
# same store + journal: the job must still answer under its original ID
# and reach a terminal state, and a resubmission with the same
# idempotency key must be answered by that very job.
addr3=127.0.0.1:8393
base3="http://$addr3"
go run ./scripts/smokereq -variant 400 -async -idem smoke-resume > "$workdir/resume.json"

"$workdir/soteriad" -addr "$addr3" \
    -store "$workdir/store3" -journal "$workdir/journal3.wal" -workers 1 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_healthy "$base3"

jobid=$(curl -fsS -X POST --data-binary @"$workdir/resume.json" "$base3/v1/analyze" | json_field job_id)
[ -n "$jobid" ] || { echo "no job_id in submission response"; exit 1; }
kill -TERM "$pid"
wait "$pid" || { echo "soteriad exited non-zero on SIGTERM"; exit 1; }

"$workdir/soteriad" -addr "$addr3" \
    -store "$workdir/store3" -journal "$workdir/journal3.wal" -workers 1 &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_healthy "$base3"

terminal=""
for _ in $(seq 1 100); do
    poll=$(curl -fsS "$base3/v1/jobs/$jobid") \
        || { echo "job $jobid lost across restart"; exit 1; }
    if echo "$poll" | grep -Eq '"status":"(done|failed)"'; then
        terminal=$(echo "$poll" | json_field status); break
    fi
    sleep 0.2
done
[ "$terminal" = "done" ] || { echo "job $jobid did not finish after restart: ${terminal:-never terminal}"; exit 1; }

resubmit=$(curl -fsS -X POST --data-binary @"$workdir/resume.json" "$base3/v1/analyze")
dupid=$(echo "$resubmit" | json_field job_id)
if [ "$dupid" != "$jobid" ]; then
    echo "idempotent resubmission ran as new job $dupid, want $jobid"; exit 1
fi

kill -TERM "$pid"
wait "$pid" || { echo "soteriad exited non-zero on final SIGTERM"; exit 1; }
trap 'rm -rf "$workdir"' EXIT
echo "phase 3 OK: restart-resume + idempotent resubmission"

# --- Phase 4: observability ------------------------------------------
addr4=127.0.0.1:8394
base4="http://$addr4"
pprof_addr=127.0.0.1:8395
go run ./scripts/smokereq -variant 500 -timings > "$workdir/timed.json"

"$workdir/soteriad" -addr "$addr4" -store "$workdir/store4" \
    -pprof "$pprof_addr" -slow-job 1ms 2> "$workdir/d4.log" &
pid=$!
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT
wait_healthy "$base4"

# A timings submission returns the span tree and the trace header.
curl -fsS -D "$workdir/timed.hdr" -X POST --data-binary @"$workdir/timed.json" \
    "$base4/v1/analyze" > "$workdir/timed.out"
grep -qi '^x-soteria-trace: ' "$workdir/timed.hdr" \
    || { echo "no X-Soteria-Trace response header:"; cat "$workdir/timed.hdr"; exit 1; }
grep -q '"timing":{"trace_id":' "$workdir/timed.out" \
    || { echo "no span tree in timings response: $(cat "$workdir/timed.out")"; exit 1; }
trace=$(grep -i '^x-soteria-trace: ' "$workdir/timed.hdr" | head -1 | cut -d' ' -f2 | tr -d '\r')
grep -q "trace=$trace" "$workdir/d4.log" \
    || { echo "trace $trace absent from daemon log:"; cat "$workdir/d4.log"; exit 1; }
grep -q 'slow job' "$workdir/d4.log" \
    || { echo "slow-job span dump did not fire (threshold 1ms):"; cat "$workdir/d4.log"; exit 1; }

# The exposition validator passes with every telemetry family present.
go run ./scripts/promlint -url "$base4/metrics" -require \
    soteriad_job_seconds,soteriad_queue_wait_seconds,soteriad_phase_seconds,soteriad_engine_check_seconds,soteriad_memo_lookups_total,soteriad_jobs_replayed_total,soteriad_slow_jobs_total,soteriad_store_hits_total,soteriad_store_misses_total

# pprof answers on its own listener, not the API address.
curl -fsS "http://$pprof_addr/debug/pprof/" | grep -q goroutine \
    || { echo "pprof listener not serving"; exit 1; }
if curl -fsS "$base4/debug/pprof/" >/dev/null 2>&1; then
    echo "pprof unexpectedly reachable through the API listener"; exit 1
fi

kill -TERM "$pid"
wait "$pid" || { echo "soteriad exited non-zero on SIGTERM"; exit 1; }
trap 'rm -rf "$workdir"' EXIT

# soteria -explain-timing prints the local span tree.
go run ./scripts/smokereq -groovy > "$workdir/smoke.groovy"
go run ./cmd/soteria -explain-timing "$workdir/smoke.groovy" 2> "$workdir/timing.err" > /dev/null
grep -q 'statemodel' "$workdir/timing.err" \
    || { echo "-explain-timing printed no span tree:"; cat "$workdir/timing.err"; exit 1; }
echo "phase 4 OK: metrics exposition + tracing + slow-job + pprof + explain-timing"

# --- Phase 5: multi-node fleet ---------------------------------------
# Three daemons share one static -peers list. Any node answers any key:
# a result produced via node 1 lives in its ring owner's store, so the
# same submission against node 2 (forwarded to the same owner) must come
# back cached, and every node must report the full membership. Stores
# are written only by the node that ran the analysis: PUT is refused.
fa=127.0.0.1:8396; fb=127.0.0.1:8397; fc=127.0.0.1:8398
peers="http://$fa,http://$fb,http://$fc"
go run ./scripts/smokereq -variant 600 > "$workdir/fleet.json"

fpids=()
for a in "$fa" "$fb" "$fc"; do
    "$workdir/soteriad" -addr "$a" -node "http://$a" -peers "$peers" \
        -store "$workdir/store-$a" -journal "$workdir/journal-$a.wal" \
        -workers 1 2> "$workdir/fleet-$a.log" &
    fpids+=($!)
done
trap 'kill -9 "${fpids[@]}" 2>/dev/null || true; rm -rf "$workdir"' EXIT
for a in "$fa" "$fb" "$fc"; do
    wait_healthy "http://$a"
done

for a in "$fa" "$fb" "$fc"; do
    curl -fsS "http://$a/v1/cluster/status" | grep -q '"members":3' \
        || { echo "node $a does not see 3 fleet members"; exit 1; }
done

via1=$(curl -fsS -X POST --data-binary @"$workdir/fleet.json" "http://$fa/v1/analyze")
echo "$via1" | grep -q '"schema":2' || { echo "fleet analysis failed: $via1"; exit 1; }

key=$(echo "$via1" | grep -o '"key":"[0-9a-f]*"' | head -1 | cut -d'"' -f4)
[ -n "$key" ] || { echo "fleet analysis returned no key: $via1"; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT --data-binary '{}' "http://$fb/v1/results/$key")
[ "$code" = 405 ] || { echo "PUT /v1/results/$key on a fleet member answered $code, want 405"; exit 1; }

via2=$(curl -fsS -X POST --data-binary @"$workdir/fleet.json" "http://$fb/v1/analyze")
echo "$via2" | grep -q '"cached":true' \
    || { echo "cross-node resubmission not served from the owner's store: $via2"; exit 1; }

for p in "${fpids[@]}"; do kill -TERM "$p" 2>/dev/null || true; done
for p in "${fpids[@]}"; do
    wait "$p" || { echo "fleet daemon exited non-zero on SIGTERM"; exit 1; }
done
trap 'rm -rf "$workdir"' EXIT
echo "phase 5 OK: 3-member fleet + PUT refused + cross-node cache hit"
echo "soteriad smoke OK"
