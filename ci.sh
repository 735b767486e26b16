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

# Malformed-line serve smoke: after the stream's first line, insert an
# unparsable line and a line holding a non-ground fact followed by a copy
# of that first line. serve must ignore each of the two lines whole, so
# the emitted intervals stay byte-identical to `recognise`.
first=$(head -n 1 "$EXPLAIN_DIR/ds.stream")
{
  printf '%s\n' "$first" 'this is not a fact' "happensAt(gap_start(X), 0). $first"
  tail -n +2 "$EXPLAIN_DIR/ds.stream"
} > "$EXPLAIN_DIR/malformed.stream"
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
  -w 3600 -s 1800 --horizon 1800 --tick-every 1800 < "$EXPLAIN_DIR/malformed.stream" \
  | grep -v '^%' > "$EXPLAIN_DIR/malformed.out"
diff "$EXPLAIN_DIR/batch.out" "$EXPLAIN_DIR/malformed.out" \
  || { echo "serve smoke: malformed lines changed the emitted intervals"; exit 1; }

# Chunked-stdin serve smoke: the same stream reaches serve through a pipe
# in 4,093-byte pieces with a short pause after each, so serve's reads
# end mid-line; the emitted intervals must stay byte-identical to
# `recognise`.
mkdir "$EXPLAIN_DIR/pieces"
split -b 4093 "$EXPLAIN_DIR/ds.stream" "$EXPLAIN_DIR/pieces/piece."
for piece in "$EXPLAIN_DIR"/pieces/piece.*; do
  cat "$piece"
  sleep 0.02
done | dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
  -w 3600 -s 1800 --horizon 1800 --tick-every 1800 | grep -v '^%' > "$EXPLAIN_DIR/chunked.out"
diff "$EXPLAIN_DIR/batch.out" "$EXPLAIN_DIR/chunked.out" \
  || { echo "serve smoke: a chunked stdin changed the emitted intervals"; exit 1; }

# Two-copy serve smoke: the stream, then a copy of its events shifted
# 50,000 s later (input fluent lines are not copied). At horizon 1800 the
# gap between the copies lets a trim drop the whole first copy from each
# bucket, and the buckets' refreshed programs evaluate the second copy;
# the emitted intervals must be byte-identical to `recognise` over the
# same two-copy stream.
{
  cat "$EXPLAIN_DIR/ds.stream"
  awk '/^happensAt\(/ { t = $NF; sub(/\)\.$/, "", t); sub(/[0-9]+\)\.$/, (t + 50000) ")."); print }' \
    "$EXPLAIN_DIR/ds.stream"
} > "$EXPLAIN_DIR/twice.stream"
dune exec bin/rtec_cli.exe -- recognise "$EXPLAIN_DIR/ds.ed" "$EXPLAIN_DIR/twice.stream" \
  -k "$EXPLAIN_DIR/ds.kb" -w 3600 -s 1800 | grep -v '^%' > "$EXPLAIN_DIR/twice.batch.out"
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
  -w 3600 -s 1800 --horizon 1800 --tick-every 1800 < "$EXPLAIN_DIR/twice.stream" \
  | grep -v '^%' > "$EXPLAIN_DIR/twice.serve.out"
diff "$EXPLAIN_DIR/twice.batch.out" "$EXPLAIN_DIR/twice.serve.out" \
  || { echo "serve smoke: two-copy stream output diverges from recognise"; exit 1; }

# Churn serve smoke: 2,000 vessels, a new one every 36 s, each sending
# four alternating stop_start/stop_end events a quarter hour apart, under
# a two-rule stop description. serve runs with --ttl 3600, so it evicts
# every vessel that has gone quiet; its intervals must be byte-identical
# to `recognise`, and its summary must show the evictions.
awk -v N=2000 'BEGIN { for (i = 0; i < N; i++) for (k = 0; k < 4; k++) { t = i*36 + k*900 + 7; printf "%d happensAt(%s(c%d), %d).\n", t, (k % 2 ? "stop_end" : "stop_start"), i, t } }' \
  | sort -n -s -k1,1 | cut -d' ' -f2- > "$EXPLAIN_DIR/churn.stream"
printf '%s\n' \
  'initiatedAt(stopped(V) = true, T) :- happensAt(stop_start(V), T).' \
  'terminatedAt(stopped(V) = true, T) :- happensAt(stop_end(V), T).' > "$EXPLAIN_DIR/churn.ed"
dune exec bin/rtec_cli.exe -- recognise "$EXPLAIN_DIR/churn.ed" "$EXPLAIN_DIR/churn.stream" \
  -w 3600 -s 1800 | grep -v '^%' > "$EXPLAIN_DIR/churn.batch.out"
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/churn.ed" -w 3600 -s 1800 \
  --horizon 1800 --ttl 3600 --tick-every 1800 < "$EXPLAIN_DIR/churn.stream" \
  > "$EXPLAIN_DIR/churn.serve.out"
grep -v '^%' "$EXPLAIN_DIR/churn.serve.out" | diff "$EXPLAIN_DIR/churn.batch.out" - \
  || { echo "serve smoke: churned fleet output diverges from recognise"; exit 1; }
grep -q ' 101 active / 1899 evicted entities$' "$EXPLAIN_DIR/churn.serve.out" \
  || { echo "serve smoke: churned fleet was not evicted as expected"; exit 1; }

# The same session with a snapshot per tick and the flight recorder
# armed, and again over 8,000 vessels, more evictions than the ring has
# records. The recorder writes one record per ingest burst, tick and
# eviction pass, never one per line or per eviction, so its
# 4,096-record ring holds the whole session: nothing dropped, and one
# tick record per `% tick` snapshot plus the drain's.
awk -v N=8000 'BEGIN { for (i = 0; i < N; i++) for (k = 0; k < 4; k++) { t = i*36 + k*900 + 7; printf "%d happensAt(%s(c%d), %d).\n", t, (k % 2 ? "stop_end" : "stop_start"), i, t } }' \
  | sort -n -s -k1,1 | cut -d' ' -f2- > "$EXPLAIN_DIR/churn8k.stream"
for churn in churn churn8k; do
  dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/churn.ed" -w 3600 -s 1800 \
    --horizon 1800 --ttl 3600 --tick-every 1800 --emit ticks \
    --flight-recorder "$EXPLAIN_DIR/$churn.flight.json" < "$EXPLAIN_DIR/$churn.stream" \
    > "$EXPLAIN_DIR/$churn.ticks.out"
  dune exec bin/rtec_cli.exe -- jsonlint "$EXPLAIN_DIR/$churn.flight.json" \
    || { echo "flight smoke: the $churn session's flight dump is not valid JSON"; exit 1; }
  grep -q '^  "dropped": 0,$' "$EXPLAIN_DIR/$churn.flight.json" \
    || { echo "flight smoke: the $churn session overflowed the flight recorder"; exit 1; }
  ticks=$(grep -c '^% tick' "$EXPLAIN_DIR/$churn.ticks.out")
  tick_records=$(grep -c '"kind": "tick"' "$EXPLAIN_DIR/$churn.flight.json")
  [ "$tick_records" -eq $((ticks + 1)) ] \
    || { echo "flight smoke: $churn has $tick_records tick records for $ticks ticks and the drain"; exit 1; }
done

# Per-tick serve smoke: swap each adjacent pair of stream lines, so some
# events arrive late and revise earlier windows, and require every tick
# snapshot of the compiled session — `%` lines included — to be
# byte-identical to the interpreter's. The pair runs again with
# --provenance, whose summary line counts the derivation records: the
# compiled programs' recorder sinks and rule headers must stay right
# across bucket switches and trims. A recording session evaluates on one
# domain, so the provenance run at -j 2 must print the same bytes as at
# -j 1, its `%` lines and evicted count included.
awk 'NR % 2 { held = $0; next } { print; print held } END { if (NR % 2) print held }' \
  "$EXPLAIN_DIR/ds.stream" > "$EXPLAIN_DIR/swapped.stream"
for prov in "" --provenance; do
  for flag in "" --interpret; do
    dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
      -w 3600 -s 1800 --horizon 1800 --tick-every 1800 --emit ticks $flag $prov \
      < "$EXPLAIN_DIR/swapped.stream" > "$EXPLAIN_DIR/ticks$flag$prov.out"
  done
  cmp "$EXPLAIN_DIR/ticks$prov.out" "$EXPLAIN_DIR/ticks--interpret$prov.out" \
    || { echo "serve smoke: compiled tick snapshots diverge from the interpreter ($prov)"; exit 1; }
done
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" \
  -w 3600 -s 1800 --horizon 1800 --tick-every 1800 --emit ticks --provenance -j 2 \
  < "$EXPLAIN_DIR/swapped.stream" > "$EXPLAIN_DIR/ticks-j2--provenance.out"
cmp "$EXPLAIN_DIR/ticks--provenance.out" "$EXPLAIN_DIR/ticks-j2--provenance.out" \
  || { echo "serve smoke: a recording session at -j 2 differs from -j 1"; exit 1; }

# serve refuses a non-positive -j at start-up with exit 2, as recognise
# refuses it.
set +e
dune exec bin/rtec_cli.exe -- serve "$EXPLAIN_DIR/ds.ed" -k "$EXPLAIN_DIR/ds.kb" -j 0 \
  < /dev/null > /dev/null 2>&1
status=$?
set -e
[ "$status" -eq 2 ] || { echo "serve smoke: -j 0 should exit 2, got $status"; exit 1; }

# Grouped batch smoke: `recognise -j 4` routes the stream into entity
# components and evaluates four groups of them; its intervals must be
# byte-identical to the sequential run above.
dune exec bin/rtec_cli.exe -- recognise "$EXPLAIN_DIR/ds.ed" "$EXPLAIN_DIR/ds.stream" \
  -k "$EXPLAIN_DIR/ds.kb" -w 3600 -s 1800 -j 4 | grep -v '^%' > "$EXPLAIN_DIR/batch4.out"
diff "$EXPLAIN_DIR/batch.out" "$EXPLAIN_DIR/batch4.out" \
  || { echo "recognise smoke: -j 4 output diverges from -j 1"; exit 1; }

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
