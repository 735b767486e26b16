#!/bin/sh
# Minimal CI: build; tier-1 tests, which also hold the exact allocation,
# provenance-cost, compiled-coverage and codec fast-path bounds; the
# explain and serve smoke runs below; and one brief run of each benchmark
# workload (perfbench/README.md). The benchmark runs judge no timing,
# only correctness: they drive the built `rtec_cli serve` over loopback
# and check its output against the batch oracle, the planted late-drop
# count and the reproduction text, and CI fails unless each run's last
# line reports "correct": true. A failed check leaves its evidence in
# .perfbench/, which the workflow uploads.
set -eu

dune build
dune runtest

# Explain-pipeline smoke: generate the maritime dataset, perturb one body
# condition of the gold description, and check that the provenance diff
# attributes the introduced false positives (exit 3 = divergence found)
# and that the JSON report materialises. A clean self-diff must exit 0.
EXPLAIN_DIR=$(mktemp -d)
trap 'rm -rf "$EXPLAIN_DIR"' EXIT
dune exec bin/rtec_cli.exe -- dataset -o "$EXPLAIN_DIR/ds" --replicas 1 > /dev/null
sed 's/Speed > HcNearCoastMax/Speed > 0.0/' "$EXPLAIN_DIR/ds.ed" > "$EXPLAIN_DIR/pert.ed"
set +e
dune exec bin/rtec_cli.exe -- explain "$EXPLAIN_DIR/ds.ed" "$EXPLAIN_DIR/pert.ed" \
  "$EXPLAIN_DIR/ds.stream" -k "$EXPLAIN_DIR/ds.kb" --json "$EXPLAIN_DIR/explain.json" > /dev/null
status=$?
set -e
[ "$status" -eq 3 ] || { echo "explain smoke: expected divergence exit 3, got $status"; exit 1; }
grep -q '"Speed > HcNearCoastMax"' "$EXPLAIN_DIR/explain.json" \
  || { echo "explain smoke: perturbed condition not blamed"; exit 1; }
dune exec bin/rtec_cli.exe -- explain "$EXPLAIN_DIR/ds.ed" "$EXPLAIN_DIR/ds.ed" \
  "$EXPLAIN_DIR/ds.stream" -k "$EXPLAIN_DIR/ds.kb" > /dev/null \
  || { echo "explain smoke: self-diff should not diverge"; exit 1; }
# Serve smoke: the streaming session must answer exactly like the batch
# path. Pipe the maritime stream through `rtec_cli serve` line by line —
# out-of-order tolerant, ticking on watermark progress — and require the
# emitted intervals to be byte-identical to `recognise` over the same
# files (comment lines carry run stats and differ by design).
dune exec bin/rtec_cli.exe -- recognise "$EXPLAIN_DIR/ds.ed" "$EXPLAIN_DIR/ds.stream" \
  -k "$EXPLAIN_DIR/ds.kb" -w 3600 -s 1800 | grep -v '^%' > "$EXPLAIN_DIR/batch.out"
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
  -w 3600 -s 1800 --horizon 1800 --tick-every 1800 < "$EXPLAIN_DIR/ds.stream" \
  | grep -v '^%' > "$EXPLAIN_DIR/serve.out"
diff "$EXPLAIN_DIR/batch.out" "$EXPLAIN_DIR/serve.out" \
  || { echo "serve smoke: serve output diverges from recognise"; exit 1; }

# Multi-client serve smoke: two concurrent TCP clients each send half the
# maritime stream into one `serve --listen --clients 2` session, and every
# client's final emission must be byte-identical to single-client
# `recognise` over the whole stream. With no --tick-every there are no
# mid-stream queries, so the cross-client interleaving (which varies run
# to run) cannot introduce lateness: one drain at the end sees the merged
# stream, whatever order the halves arrived in. The binary is invoked
# directly: concurrent `dune exec` processes serialise on the build lock.
RTEC=./_build/default/bin/rtec_cli.exe
total=$(wc -l < "$EXPLAIN_DIR/ds.stream")
half=$((total / 2))
head -n "$half" "$EXPLAIN_DIR/ds.stream" > "$EXPLAIN_DIR/half1.stream"
tail -n +"$((half + 1))" "$EXPLAIN_DIR/ds.stream" > "$EXPLAIN_DIR/half2.stream"
SERVE_PORT=47613
ADMIN_PORT=47614
"$RTEC" serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" -w 3600 -s 1800 \
  --listen "$SERVE_PORT" --clients 2 --admin-port "$ADMIN_PORT" \
  --flight-recorder "$EXPLAIN_DIR/flight.json" 2> "$EXPLAIN_DIR/serve2.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q listening "$EXPLAIN_DIR/serve2.err" 2>/dev/null && break
  sleep 0.1
done
"$RTEC" feed "$SERVE_PORT" "$EXPLAIN_DIR/half1.stream" > "$EXPLAIN_DIR/client1.out" &
CLIENT1_PID=$!

# Admin-plane probes while the session is live. The server spawns its
# reader threads only once both clients have connected, so client 2
# streams its half from stdin and then withholds its EOF until the admin
# routes have been scraped: the curls run with every event sent and the
# session guaranteed live (the server cannot finish before the pipe
# closes). The /metrics scrape polls until the decode-stage histogram
# and the queue high-water gauge show up — the reader threads are
# draining both halves concurrently with the probe. Responses are saved
# and asserted after shutdown, in the main shell, where a failure can
# fail the build.
{
  cat "$EXPLAIN_DIR/half2.stream"
  for _ in $(seq 1 100); do
    curl -fsS "http://127.0.0.1:$ADMIN_PORT/metrics" > "$EXPLAIN_DIR/metrics.prom" 2>/dev/null \
      && grep -q '^# TYPE service_stage_decode_us histogram' "$EXPLAIN_DIR/metrics.prom" \
      && grep -q '^service_ingest_queue_depth_hwm ' "$EXPLAIN_DIR/metrics.prom" \
      && break
    sleep 0.1
  done
  for route in healthz statusz lastz; do
    curl -fsS "http://127.0.0.1:$ADMIN_PORT/$route" \
      > "$EXPLAIN_DIR/$route.json" 2>/dev/null || true
  done
} | "$RTEC" feed "$SERVE_PORT" > "$EXPLAIN_DIR/client2.out"
wait "$CLIENT1_PID"
wait "$SERVE_PID"
grep -q '^# TYPE service_stage_decode_us histogram' "$EXPLAIN_DIR/metrics.prom" \
  || { echo "admin smoke: /metrics never exposed the decode-stage histogram"; exit 1; }
grep -q '^service_ingest_queue_depth_hwm ' "$EXPLAIN_DIR/metrics.prom" \
  || { echo "admin smoke: /metrics missing the queue high-water gauge"; exit 1; }
for route in healthz statusz lastz; do
  [ -s "$EXPLAIN_DIR/$route.json" ] \
    || { echo "admin smoke: GET /$route failed"; exit 1; }
  "$RTEC" jsonlint "$EXPLAIN_DIR/$route.json" \
    || { echo "admin smoke: /$route is not valid JSON"; exit 1; }
done
grep -q '"status": "ok"' "$EXPLAIN_DIR/healthz.json" \
  || { echo "admin smoke: /healthz did not report ok"; exit 1; }
grep -q '"depth_hwm"' "$EXPLAIN_DIR/statusz.json" \
  || { echo "admin smoke: /statusz missing ingest-queue high-water mark"; exit 1; }
grep -q '"adg-flight/1"' "$EXPLAIN_DIR/lastz.json" \
  || { echo "admin smoke: /lastz is not a flight-recorder dump"; exit 1; }
# The armed flight recorder must leave its black box on disk at exit,
# and the dump must close the session (last kind recorded on the clean
# shutdown path).
[ -s "$EXPLAIN_DIR/flight.json" ] \
  || { echo "admin smoke: flight-recorder file missing after shutdown"; exit 1; }
"$RTEC" jsonlint "$EXPLAIN_DIR/flight.json" \
  || { echo "admin smoke: flight-recorder file is not valid JSON"; exit 1; }
grep -q '"session_end"' "$EXPLAIN_DIR/flight.json" \
  || { echo "admin smoke: flight recorder did not capture session end"; exit 1; }
for c in client1 client2; do
  grep -v '^%' "$EXPLAIN_DIR/$c.out" > "$EXPLAIN_DIR/$c.cmp"
  diff "$EXPLAIN_DIR/batch.out" "$EXPLAIN_DIR/$c.cmp" \
    || { echo "serve smoke: two-client $c output diverges from recognise"; exit 1; }
done

# Benchmark smoke: each workload once, briefly, with its oracles on.
for w in maritime-ticks ais-late repro; do
  result=$(bash perfbench/run.sh --workload "$w" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  case "$result" in
    *'"correct": true'*) ;;
    *) echo "perfbench smoke: $w failed its output checks: $result"; exit 1 ;;
  esac
done
