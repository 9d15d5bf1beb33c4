#!/bin/sh
# Verify tiers for the Motor repo.
#
#   tier 1 (default): build + full test suite — the repo's gate.
#   tier 2 (-race):   vet + race-enabled tests over the whole tree.
#   tier 3 (bench):   opt-in sweeps -> BENCH_coll.json + BENCH_oo.json
#                     + BENCH_async.json.
#   stress tier:      race-enabled concurrency stress/chaos/progress
#                     tests with GORACE=halt_on_error=1 — the async
#                     progress engine's acceptance gate.
#   vet tier:         go vet + the load-time bytecode verifier over
#                     every masm module under examples/.
#   lint tier:        go vet + the motorlint analyzer suite
#                     (docs/ANALYSIS.md) over the whole module. Fails
#                     on any unsuppressed finding; //lint:ignore
#                     motorlint/<name> <reason> is the escape hatch
#                     and must carry a reason.
#   quicken tier:     every masm module under examples/ run under both
#                     dispatch engines (quickened and -noquicken
#                     baseline) — both must succeed, and the examples
#                     self-check their payloads — plus the differential
#                     property suites, which demand bit-identical
#                     value/stdout/trap behaviour on deterministic
#                     programs. The quickening pass's behavioural gate.
#   obs tier:         the observability gate — stall watchdog, trace
#                     stitching, flight recorder (incl. the <5%
#                     always-on overhead budget), live telemetry
#                     endpoint over real HTTP, and the cross-rank
#                     merge round-trip through cmd/mtrace.
#   gc tier:          the collector gate (docs/GC.md) — the serial vs
#                     modern differential parity suite and cond-pin
#                     race regression under -race, a bounded heap-ops
#                     fuzz smoke, and the quick GC pause benchmark.
#   e2e tier:         the end-to-end benchmark as a correctness smoke —
#                     perfbench's own tests, then every workload once,
#                     traced: every step checked against its reference,
#                     acct.violations 0 on every rank, the prediction
#                     rows met. No timing gate.
#
# Usage: scripts/verify.sh [quick|race|stress|all|bench|vet|lint|quicken|obs|gc|e2e]
#   quick   tier 1 with -short (chaos sweeps skipped; < ~30s)
#   race    tier 2 only
#   stress  stress tier only: shared-rank goroutine stress, fault
#           injection, deterministic-harness property/replay tests,
#           registry snapshot races — all under -race
#   all     tier 1 then tier 2 then vet (default)
#   bench   tier 1 quick, then the collective, OO and async-progress
#           benchmark sweeps (scripts/bench_coll.sh, scripts/bench_oo.sh,
#           scripts/bench_async.sh); opt-in because timing-sensitive
#   vet     static checks only: go vet + motor -mode check examples/
#   lint    motorlint tier only: build cmd/motorlint, run the suite
#           over ./..., fail on unignored findings
#   quicken quicken tier only: examples under both engines + the
#           quickening differential tests
#   obs     obs tier only: telemetry smoke, watchdog-on-injected-stall,
#           merge round-trip, flight-recorder budget
#   gc      gc tier only: parity + race regression under -race, fuzz
#           smoke, quick pause benchmark
#   e2e     e2e tier only: perfbench tests + one short traced run of
#           every workload (needs bash)
set -eu
cd "$(dirname "$0")/.."

mode="${1:-all}"

tier1() {
	echo "== tier 1: go build + go test"
	go build ./...
	if [ "$1" = short ]; then
		go test -short ./...
	else
		go test ./...
	fi
}

tier2() {
	echo "== tier 2: go vet + go test -race"
	go vet ./...
	go test -race ./...
}

tier3() {
	echo "== tier 3: collective benchmark sweep"
	sh scripts/bench_coll.sh "${BENCH_COLL_RANKS:-4}"
	echo "== tier 3: OO transport sweep"
	sh scripts/bench_oo.sh
	echo "== tier 3: async progress overlap"
	sh scripts/bench_async.sh
}

# Stress tier: the concurrency acceptance gate for the async progress
# engine. Every test here shares one rank's Comm/Device between many
# goroutines (or drives it from the seeded deterministic harness) and
# must stay race-clean with zero leaked requests; halt_on_error makes
# the first race fatal instead of a warning.
tier_stress() {
	echo "== stress: -race concurrency stress + chaos + progress harness"
	GORACE=halt_on_error=1 go test -race -timeout 600s \
		-run 'Stress|Chaos|Progress|Snapshot' \
		./internal/mp/ ./internal/core/ ./internal/vm/
}

# Static tier: go vet plus the MASM bytecode verifier over every
# example module. A module that stops verifying is a regression in
# either the module or the verifier.
tier_vet() {
	echo "== vet: go vet + bytecode verifier over examples/"
	go vet ./...
	modules=$(find examples -name '*.masm' | sort)
	if [ -n "$modules" ]; then
		# shellcheck disable=SC2086
		go run ./cmd/motor -mode check $modules
	fi
}

# Lint tier: the motorlint analyzer suite (docs/ANALYSIS.md) — the
# repo's own invariants (safepoint rooting, typed transport errors,
# atomic field discipline, tracer nil-gating, lock ranks) checked
# mechanically over the whole module. motorlint exits nonzero on any
# unsuppressed finding, so a clean run means the tree is
# violation-free modulo documented //lint:ignore escapes.
tier_lint() {
	echo "== lint: go vet + motorlint analyzer suite"
	go vet ./...
	lintbin=$(mktemp /tmp/motorlint.XXXXXX)
	go build -o "$lintbin" ./cmd/motorlint
	"$lintbin" ./... || {
		echo "verify: motorlint found unsuppressed violations" >&2
		rm -f "$lintbin"
		exit 1
	}
	rm -f "$lintbin"
}

# Quicken tier: the behavioural gate for the quickening pass
# (docs/QUICKEN.md). Every example module must run to success under
# both engines (the examples self-check payload integrity and exit
# nonzero on corruption; their stdout embeds wall-clock timings, so
# byte comparison is left to the deterministic suites). Then the
# differential property suites — randomized programs + the verifier's
# valid corpus, both engines compared on value/stdout/trap identity.
tier_quicken() {
	echo "== quicken: examples under both dispatch engines"
	modules=$(find examples -name '*.masm' | sort)
	for m in $modules; do
		echo "-- $m (quickened)"
		go run ./cmd/motor -np 2 "$m"
		echo "-- $m (-noquicken baseline)"
		go run ./cmd/motor -np 2 -noquicken "$m"
	done
	echo "== quicken: differential property suites"
	go test -count=1 -run 'TestQuicken|TestFused|TestConvF2I' \
		./internal/vm/ ./internal/vm/bcverify/
}

# Obs tier: the observability acceptance gate (docs/OBSERVABILITY.md).
# Go-level checks first — watchdog fires on a planted stall, 4-rank
# stitch schema + straggler attribution, text/JSON metrics parity,
# flight-recorder duty cycle/dump/overhead budget, per-process Join
# trace export — then two end-to-end smokes over real processes: the
# live telemetry endpoint answered over HTTP while a world runs, and
# the cross-rank merge round-trip through cmd/mtrace in both layouts
# (one in-process multi-rank file; one file per OS process of a sock
# world).
tier_obs() {
	echo "== obs: watchdog + stitching + parity + flight-recorder tests"
	go test -count=1 -run 'TestWatchdog|TestStitch|TestMetricsTextJSONParity|TestFlight|TestCycleFlight|TestTelemetryEndpoint|TestMerge' \
		./internal/obs/ ./internal/mp/
	go test -count=1 -run 'TestFlightRecorderOverhead|TestJoinTraceExport|TestTraceRoundTrip' .

	dir=$(mktemp -d /tmp/motor-obs.XXXXXX)
	trap 'rm -rf "$dir"' EXIT
	go build -o "$dir/mpstat" ./cmd/mpstat
	go build -o "$dir/motor" ./cmd/motor
	go build -o "$dir/mtrace" ./cmd/mtrace

	echo "== obs: live telemetry endpoint smoke"
	tport="${MOTOR_VERIFY_TELEMETRY_PORT:-19716}"
	"$dir/mpstat" -np 2 -size 256 -iters 5000000 \
		-telemetry "127.0.0.1:$tport" >/dev/null &
	tpid=$!
	ok=0
	i=0
	while [ $i -lt 50 ]; do
		if curl -fsS "http://127.0.0.1:$tport/metrics" >"$dir/metrics.txt" 2>/dev/null; then
			ok=1
			break
		fi
		kill -0 "$tpid" 2>/dev/null || break
		sleep 0.2
		i=$((i + 1))
	done
	if [ "$ok" = 1 ]; then
		curl -fsS "http://127.0.0.1:$tport/healthz" >"$dir/healthz.txt"
		curl -fsS "http://127.0.0.1:$tport/metrics?format=json" >"$dir/metrics.json"
	fi
	kill "$tpid" 2>/dev/null || true
	wait "$tpid" 2>/dev/null || true
	[ "$ok" = 1 ] || { echo "verify: telemetry endpoint never answered" >&2; exit 1; }
	grep -q '^motor_' "$dir/metrics.txt" || {
		echo "verify: /metrics has no motor_ counters" >&2
		exit 1
	}
	grep -q '^ok ' "$dir/healthz.txt" || {
		echo "verify: /healthz not ok" >&2
		exit 1
	}
	grep -q '"version"' "$dir/metrics.json" || {
		echo "verify: /metrics?format=json is not a snapshot" >&2
		exit 1
	}

	echo "== obs: merge round-trip (in-process 4-rank collectives)"
	MOTOR_TRACE="$dir/world.json" "$dir/mpstat" -np 4 -coll -iters 40 >/dev/null
	"$dir/mtrace" -o "$dir/merged.json" "$dir/world.json" \
		>"$dir/report.txt" 2>"$dir/mtrace.err"
	grep -q '"traceEvents"' "$dir/merged.json" || {
		echo "verify: merged trace is not a Chrome trace" >&2
		exit 1
	}
	grep -q 'flow pairs' "$dir/mtrace.err" || {
		echo "verify: mtrace reported no flow pairs" >&2
		exit 1
	}
	if grep -q '(0 flow pairs' "$dir/mtrace.err"; then
		echo "verify: merged trace has zero flow pairs" >&2
		exit 1
	fi
	grep -q '^straggler report: [1-9]' "$dir/report.txt" || {
		echo "verify: straggler report aligned no collective instances" >&2
		exit 1
	}
	grep -q '^rank 3:' "$dir/report.txt" || {
		echo "verify: straggler report is missing ranks" >&2
		exit 1
	}

	echo "== obs: merge round-trip (one trace file per OS process)"
	mport="${MOTOR_VERIFY_ROOT_PORT:-19717}"
	"$dir/motor" -mode serve -addr "127.0.0.1:$mport" -np 2 &
	spid=$!
	MOTOR_TRACE="$dir/rank0.json" "$dir/motor" -mode rank \
		-root "127.0.0.1:$mport" -rank 0 -np 2 \
		examples/managed-pingpong/pingpong.masm >/dev/null &
	rpid=$!
	MOTOR_TRACE="$dir/rank1.json" "$dir/motor" -mode rank \
		-root "127.0.0.1:$mport" -rank 1 -np 2 \
		examples/managed-pingpong/pingpong.masm >/dev/null
	wait "$rpid"
	wait "$spid"
	"$dir/mtrace" -q -o "$dir/merged2.json" "$dir/rank0.json" "$dir/rank1.json" \
		2>"$dir/mtrace2.err"
	grep -q '"traceEvents"' "$dir/merged2.json" || {
		echo "verify: multi-process merged trace is not a Chrome trace" >&2
		exit 1
	}
	if grep -q '(0 flow pairs' "$dir/mtrace2.err"; then
		echo "verify: multi-process merge paired no edges" >&2
		exit 1
	fi

	echo "== obs: watchdog fires on an injected stall"
	go test -count=1 -run 'TestWatchdogDetectsStalledRank|TestWatchdogFiresOnStall' \
		./internal/mp/ ./internal/obs/
	rm -rf "$dir"
	trap - EXIT
}

# GC tier: the collector acceptance gate (docs/GC.md). The
# differential parity suite replays identical mutator scripts on the
# serial and modern collectors and demands identical object graphs,
# stats, and cond-pin decisions; the race regression forces a cond-pin
# to complete mid-mark from a parked thread; the fuzz smoke replays
# byte-coded heap-op sequences with invariant checks after every
# collection (short minimize budget so the smoke stays bounded); and
# the quick pause benchmark must keep the serial/modern p99 ordering
# (the committed BENCH_gc.json carries the full-grid >=4x gate).
tier_gc() {
	echo "== gc: differential parity + cond-pin race regression (-race)"
	GORACE=halt_on_error=1 go test -race -timeout 600s -count=1 \
		-run 'TestGCDifferentialParity|TestStressCondPinMidMarkResolution|TestDonationSubHeaderTail' \
		./internal/vm/
	echo "== gc: heap-ops fuzz smoke"
	go test -count=1 -run FuzzHeapOps -fuzz FuzzHeapOps \
		-fuzztime 30s -fuzzminimizetime 5s ./internal/vm/
	echo "== gc: quick pause benchmark"
	sh scripts/bench_gc.sh quick
}

# E2E tier: the end-to-end benchmark (perfbench/, BENCHMARK.json) as a
# correctness and prediction-row smoke. perfbench's tests prove a wrong
# expected value is caught; the run drives all three workloads through
# the whole stack once, traced. run.sh exits nonzero on a failed step
# check or an unmet prediction row; the accounting identities are
# checked here, from the printed per-layer rows (rank 0 | rank 1) and
# the merged summary rows. Timings are printed, never gated.
tier_e2e() {
	echo "== e2e: perfbench tests"
	(cd perfbench && go test ./...)
	echo "== e2e: every workload once, traced (correctness smoke, no timing gate)"
	log=$(mktemp /tmp/motor-e2e.XXXXXX)
	if ! bash perfbench/run.sh --workload all --repeats 1 --seconds 2 --trace 1 >"$log" 2>&1; then
		cat "$log"
		rm -f "$log"
		echo "verify: end-to-end run failed (step check or prediction row)" >&2
		exit 1
	fi
	cat "$log"
	bad=$(awk '$1 == "acct.violations" && ($2 != 0 || ($3 == "|" && $4 != 0))' "$log")
	if [ -n "$bad" ] || grep -q '^  accounting:' "$log"; then
		rm -f "$log"
		echo "verify: end-to-end accounting violations: $bad" >&2
		exit 1
	fi
	grep -q '^predictions: met' "$log" || {
		rm -f "$log"
		echo "verify: end-to-end prediction rows not reported met" >&2
		exit 1
	}
	rm -f "$log"
}

# Trace smoke: a traced mpstat run must produce a loadable Chrome
# trace (exercises the MOTOR_TRACE env path end to end).
smoke_trace() {
	echo "== smoke: MOTOR_TRACE Chrome trace export"
	out=$(mktemp /tmp/motor-trace.XXXXXX)
	MOTOR_TRACE="$out" go run ./cmd/mpstat -np 2 -size 1024 -iters 20 -metrics >/dev/null
	grep -q '"traceEvents"' "$out" || {
		echo "verify: $out is not a Chrome trace" >&2
		rm -f "$out"
		exit 1
	}
	rm -f "$out"
}

case "$mode" in
quick)
	tier1 short
	smoke_trace
	;;
race) tier2 ;;
stress) tier_stress ;;
all)
	tier1 full
	tier2
	tier_vet
	tier_lint
	tier_quicken
	tier_obs
	tier_gc
	smoke_trace
	;;
bench)
	tier1 short
	tier3
	;;
vet) tier_vet ;;
lint) tier_lint ;;
quicken) tier_quicken ;;
obs) tier_obs ;;
gc) tier_gc ;;
e2e) tier_e2e ;;
*)
	echo "usage: $0 [quick|race|stress|all|bench|vet|lint|quicken|obs|gc|e2e]" >&2
	exit 2
	;;
esac
echo "verify: OK ($mode)"
