#!/usr/bin/env sh
# Tier-1 verification: build, vet, gofmt-check, test, and race-test the
# whole module (vet and gofmt reach perfbench/ too), then the steps go
# test cannot take: benchmark and fuzz smokes, repeated race runs, and the
# contracts that need real processes (a live congserve, the hlscong
# dataset build at two worker counts and cut short). These 23 steps are
# the gate every PR must keep green (see ROADMAP.md).
set -eu
cd "$(dirname "$0")/.."

# Built binaries, artifacts and logs live in one per-run directory, so
# concurrent runs of this script never overwrite each other's files.
# Every background process is tracked in PIDS until it is reaped; the
# EXIT trap kills whatever is still running and removes the directory.
CHECK_TMP="$(mktemp -d)"
PIDS=""
cleanup() {
	for p in $PIDS; do
		kill -9 "$p" 2> /dev/null || true
	done
	rm -rf "$CHECK_TMP"
}
trap cleanup EXIT
track() { PIDS="$PIDS $1"; }
# shellcheck disable=SC2086
untrack() { PIDS="$(printf '%s\n' $PIDS | grep -vx "$1" | tr '\n' ' ')"; }

# wait_file FILE WHAT: poll up to 10s for a non-empty address file.
wait_file() {
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "FAIL: $2 never wrote its address"; exit 1; }
		sleep 0.1
	done
}

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...
# perfbench/ is a module of its own, so ./... above does not reach it.
(cd perfbench && go vet .)

# Every Go file of the repository, perfbench/ included, is gofmt-clean.
# .bench_build/ is perfbench's build and module cache, not source.
echo "== gofmt =="
unformatted="$(find . -path ./.bench_build -prune -o -name '*.go' -exec gofmt -l {} +)"
[ -z "$unformatted" ] || {
	echo "FAIL: gofmt -l lists files that need formatting:"
	echo "$unformatted"
	exit 1
}

# The paired A/B runner is not run here (a pair takes a minute), but it
# must stay parseable.
echo "== ab.sh syntax (bash -n) =="
bash -n scripts/ab.sh

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race ./...

# The README's first example runs end to end, not just compiles.
echo "== quickstart example =="
go run ./examples/quickstart > /dev/null

# Benchmarks go test never runs: each runs once so it keeps compiling and
# running; timings are not gated here. The parallel dataset build runs
# under the race detector while being timed.
echo "== parallel bench smoke (-race) =="
go test -race -run '^$' -bench 'BenchmarkBuildDataset$' -benchtime=1x .

# The flow cache's disk tier, the one way a killed build resumes: a cold
# build into a fresh store, then a warm rebuild that fails unless every
# flow run came from disk.
echo "== store bench smoke (cold and warm disk tier) =="
go test -run '^$' -bench 'BenchmarkBuildDataset(Cold|Warm)Store$' -benchtime 1x .

echo "== gbrt paper-shape fit bench smoke =="
go test -run '^$' -bench FitPaperShape -benchtime 1x ./internal/ml/gbrt

echo "== gbrt paper-shape predict bench smoke =="
go test -run '^$' -bench PredictPaperShape -benchtime 1x ./internal/ml/gbrt

echo "== feature extraction bench smoke =="
go test -run '^$' -bench ExtractDesign -benchtime 1x ./internal/features

echo "== placer bench smoke =="
go test -run '^$' -bench BenchmarkPlace -benchtime 1x ./internal/place

# Decoders that face hostile bytes get a short bounded fuzz run on top of
# their checked-in seed corpora (which go test replays): the store's
# entry decoder, the predictor loader (cyclic or over-deep GBRT trees
# among the payloads), the serving codec's hand-rolled JSON parser and
# the IR text parser.
echo "== store decode fuzz smoke (5s) =="
go test -run '^$' -fuzz 'FuzzStoreDecode' -fuzztime 5s ./internal/store/ > /dev/null

echo "== predictor loader fuzz smoke (5s) =="
go test -run '^$' -fuzz 'FuzzLoadPredictor' -fuzztime 5s ./internal/core/ > /dev/null

echo "== serve codec fuzz smoke (5s) =="
go test -run '^$' -fuzz 'FuzzDecodeJSONRows' -fuzztime 5s ./internal/serve/ > /dev/null

# The IR parser's seeds are whole designs of tens to hundreds of KB; the
# default 60s minimization of each new input would take the whole smoke.
echo "== IR text parser fuzz smoke (5s) =="
go test -run '^$' -fuzz 'FuzzParseText' -fuzztime 5s -fuzzminimizetime 10x ./internal/ir/ > /dev/null

# The whole design query past the parser: every input ParseText accepts
# goes through PredictModule and Hotspots. Its seeds are whole designs too.
echo "== design query fuzz smoke (5s) =="
go test -run '^$' -fuzz '^FuzzPredictModule$' -fuzztime 5s -fuzzminimizetime 10x ./internal/core/ > /dev/null

# A design query splits its ops into one span per CPU; running the
# PredictModule tests at 1, 2 and 4 CPUs under the race detector covers
# every span count on any host. The batch tests and the distinct-row
# tests run with them: PredictModule's spans and PredictBatchInto find
# their distinct rows through one type.
echo "== design query spans (-race -cpu 1,2,4) =="
go test -race -cpu 1,2,4 -run 'TestPredictModule|TestPredictBatchInto|TestDistinctRows' ./internal/core

# The multi-core serving contract, repeated under the race detector:
# sharded responses byte-identical to single-shard, concurrent load spread
# across lanes that all write the same counters, all-shards-saturated
# bursts shed fast, and a reload mid-load never serves two model
# generations in one batch.
echo "== sharded serve invariants (-race -count=10) =="
go test -race -count=10 \
	-run 'TestShardedPredictionsMatchSingleShard|TestShardRoutingSpreadsConcurrentLoad|TestAllShardsSaturatedSheds|TestReloadSingleGenerationPerBatch|TestShardedGracefulDrain' \
	./internal/serve/

go build -o "$CHECK_TMP/congserve" ./cmd/congserve
go build -o "$CHECK_TMP/congtop" ./cmd/congtop
go build -o "$CHECK_TMP/hlscong" ./cmd/hlscong

# The serving daemon's contract, end to end over real HTTP with curl as
# the only client: train a quick artifact, serve it on two lanes, predict
# against it, prove its responses byte-identical to a one-lane server's,
# hot-reload it (a valid swap bumps the generation; a corrupt artifact is
# rejected with the old model still serving), then drain gracefully on
# SIGTERM with requests in flight. Serving throughput and latency are
# measured by perfbench's serve-http workload, not here.
echo "== congserve smoke (2 lanes: serve, probe identity, hot-reload, drain) =="
S="$CHECK_TMP/serve"
mkdir "$S"
"$CHECK_TMP/congserve" -train-quick -model "$S/model.json" -kind gbrt > /dev/null
# The lane count follows GOMAXPROCS; there is no flag for it. (Were
# -shards accepted, the unusable port would still end the run at once.)
"$CHECK_TMP/congserve" -shards 1 -model "$S/model.json" -addr 127.0.0.1:-1 2>&1 |
	grep -q 'flag provided but not defined: -shards' || {
	echo "FAIL: congserve accepted the removed -shards flag"
	exit 1
}
# The recorder samples every 100ms and the breach threshold (p99 > 1µs) is
# below any real request latency, so the first busy window triggers a
# capture; the 10m rate limit then pins the capture count at exactly one.
GOMAXPROCS=2 "$CHECK_TMP/congserve" -model "$S/model.json" -addr 127.0.0.1:0 \
	-addr-file "$S/addr.txt" -log-level warn \
	-history-interval 100ms -breach-dir "$S/breach" \
	-breach-p99-us 1 -breach-min-interval 10m &
SERVE_PID=$!
track "$SERVE_PID"
wait_file "$S/addr.txt" congserve
ADDR="$(cat "$S/addr.txt")"
curl -sf "http://$ADDR/healthz" > "$S/healthz.json"
grep -q '"status": "ok"' "$S/healthz.json" || {
	echo "FAIL: /healthz not ok"
	exit 1
}
# One JSON body serves every /predict below: 4 rows of fixed, varied
# values, as wide as the "features" count the server reports, then a
# fifth row that repeats row 0.
awk -F': ' '/"features"/ {
	n = $2 + 0
	printf "{\"rows\": ["
	for (r = 0; r < 5; r++) {
		printf "%s[", (r ? ", " : "")
		for (j = 0; j < n; j++)
			printf "%s%.6g", (j ? ", " : ""), (((r % 4) * 131 + j * 17) % 97) / 24.25 - 2
		printf "]"
	}
	printf "]}\n"
}' "$S/healthz.json" > "$S/body.json"
# predict ADDR: POST the body to ADDR's /predict, the response to stdout;
# fails on a connection error or an HTTP status of 400 or above.
predict() {
	curl -sf -H 'Content-Type: application/json' --data-binary "@$S/body.json" \
		"http://$1/predict"
}
for i in 1 2 3 4 5; do
	predict "$ADDR" > "$S/load.json" && grep -q '^{"rows":5,' "$S/load.json" || {
		echo "FAIL: /predict request $i did not return 5 predictions"
		exit 1
	}
done
# The predictor scores a repeated row once and copies its answer: entry 4
# of each list must read exactly as entry 0.
for key in vert horiz avg; do
	sed -E "s/.*\"$key\":\[([^]]*)\].*/\1/" "$S/load.json" |
		awk -F, 'NF == 5 && $5 "" == $1 "" { ok = 1 } END { exit !ok }' || {
		echo "FAIL: /predict $key entry 4 (a repeat of row 0) differs from entry 0"
		cat "$S/load.json"
		exit 1
	}
done
# Telemetry surface over the same live server: the Prometheus endpoint
# serves the request counter (the exposition's format is linted in
# internal/obs), the history ring has samples, congtop renders a frame
# from it, and the sub-microsecond breach threshold produced exactly one
# capture — the rate limit turns a sustained breach into one directory,
# not one per sample.
sleep 0.3
curl -sf "http://$ADDR/debug/metrics/prom" | grep -q '^# TYPE serve_requests counter$' || {
	echo "FAIL: /debug/metrics/prom does not declare serve_requests"
	exit 1
}
curl -sf "http://$ADDR/debug/metrics/history" | grep -q '"seq"' || {
	echo "FAIL: /debug/metrics/history has no samples"
	exit 1
}
"$CHECK_TMP/congtop" -addr "$ADDR" -once > "$S/congtop.txt"
grep -q 'sample #' "$S/congtop.txt" || {
	echo "FAIL: congtop -once did not render a recorder sample"
	cat "$S/congtop.txt"
	exit 1
}
captures="$(ls -d "$S"/breach/breach-* 2> /dev/null | wc -l)"
[ "$captures" -eq 1 ] || {
	echo "FAIL: $captures breach captures, want exactly 1 (rate-limited)"
	exit 1
}
for f in reason.json history.json heap.pprof; do
	# shellcheck disable=SC2144
	[ -s "$S"/breach/breach-*/"$f" ] || {
		echo "FAIL: breach capture is missing $f"
		exit 1
	}
done
# Byte-identity across lane counts: a 1-lane server (GOMAXPROCS=1) over
# the same artifact must answer the same body with the exact bytes the
# 2-lane one did.
GOMAXPROCS=1 "$CHECK_TMP/congserve" -model "$S/model.json" -addr 127.0.0.1:0 \
	-addr-file "$S/addr1.txt" -log-level warn &
SERVE1_PID=$!
track "$SERVE1_PID"
wait_file "$S/addr1.txt" "1-lane congserve"
predict "$ADDR" > "$S/probe2.json" &&
	predict "$(cat "$S/addr1.txt")" > "$S/probe1.json" || {
	echo "FAIL: probe request to the 2-lane or 1-lane congserve failed"
	exit 1
}
kill -TERM "$SERVE1_PID" && wait "$SERVE1_PID" || {
	echo "FAIL: 1-lane congserve did not drain cleanly"
	exit 1
}
untrack "$SERVE1_PID"
cmp "$S/probe1.json" "$S/probe2.json" || {
	echo "FAIL: 2-lane predictions differ from 1-lane"
	exit 1
}
curl -sf -X POST "http://$ADDR/reload" | grep -q '"generation": 2' || {
	echo "FAIL: valid reload did not bump the generation"
	exit 1
}
echo junk > "$S/model.json"
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/reload")"
[ "$code" = 422 ] || {
	echo "FAIL: corrupt artifact reload answered $code, want 422"
	exit 1
}
predict "$ADDR" > /dev/null || {
	echo "FAIL: serving stopped after a rejected reload"
	exit 1
}
# Drain under load: one request at a time until the server stops
# answering; every response that landed is appended to drain.json.
while predict "$ADDR" >> "$S/drain.json"; do :; done &
LOAD_PID=$!
track "$LOAD_PID"
sleep 0.4
kill -TERM "$SERVE_PID"
serve_rc=0
wait "$SERVE_PID" || serve_rc=$?
untrack "$SERVE_PID"
[ "$serve_rc" -eq 0 ] || {
	echo "FAIL: congserve exited $serve_rc on SIGTERM, want graceful 0"
	exit 1
}
wait "$LOAD_PID" || true
untrack "$LOAD_PID"
grep -q '^{"rows":5,' "$S/drain.json" || {
	echo "FAIL: no request completed during the drain window"
	exit 1
}

# The CLI's dataset build, end to end: the paper's training set built by
# one worker and by two must write byte-identical artifacts, and both
# report the dataset's pinned shape. (Row-level identity across worker
# counts is pinned in-process by internal/core
# TestBuildDatasetDeterministicAcrossWorkers; this covers the -out path.)
# Then a rebuild cut short by -timeout must fail and leave the artifact
# already at -out untouched.
echo "== hlscong build (1 vs 2 workers, byte-identical; timed-out rebuild) =="
B="$CHECK_TMP/build"
mkdir "$B"
for w in 1 2; do
	"$CHECK_TMP/hlscong" -workers "$w" -out "$B/w$w.art" build > "$B/w$w.txt"
	grep -q '^dataset: 8098 samples' "$B/w$w.txt" || {
		echo "FAIL: -workers $w build did not report 8098 samples"
		cat "$B/w$w.txt"
		exit 1
	}
done
cmp "$B/w1.art" "$B/w2.art" || {
	echo "FAIL: -workers 2 artifact differs from the -workers 1 build"
	exit 1
}
if "$CHECK_TMP/hlscong" -timeout 300ms -out "$B/w1.art" build > /dev/null 2>&1; then
	echo "FAIL: a build cut short by -timeout 300ms exited 0"
	exit 1
fi
cmp "$B/w1.art" "$B/w2.art" || {
	echo "FAIL: a timed-out build overwrote its -out artifact"
	exit 1
}

# The benchmark's pinned answers: a short run of each perfbench workload
# against BENCHMARK.json, the design-query digests and serve-http's
# bit-exact answers included, so an answer that drifts fails here rather
# than at the next benchmark run. It writes no files.
echo "== perfbench pinned answers (go test -short) =="
(cd perfbench && go test -short .)

echo "tier-1 checks passed"
