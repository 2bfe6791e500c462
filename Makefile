# QR-DTM developer entry points.

GO ?= go

.PHONY: all build vet test flake race bench-compare bench bench-quick bench-obs bench-trace bench-wire bench-shard bench-load bench-load-quick exp exp-quick fmt cover clean check

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 uncached, N times (default 10), stopping at the first red run: the
# check that the gate is deterministic, not merely green once or from cache.
N ?= 10
flake:
	@for i in $$(seq 1 $(N)); do \
		echo "== flake run $$i/$(N)"; \
		$(GO) test -count=1 ./... || { echo "flake: run $$i of $(N) failed" >&2; exit 1; }; \
	done; echo "flake: $(N)/$(N) green"

race:
	$(GO) test -race ./internal/core/ ./internal/store/ ./internal/cluster/ ./internal/obs/ ./internal/wal/ ./internal/server/ ./internal/bench/ .

# Fast pre-commit gate: vet, gofmt, the race-detected transport, engine, load,
# observability and WAL suites, short wire-message, binary-codec, shard/2PC
# and WAL-record fuzz smokes (the codec, shard and WAL runs also seed from —
# and so guard — their checked-in corpora), the race-detected subprocess
# kill -9 crash-recovery test, the wire-protocol A/B benchmark, a two-step
# open-loop ladder smoke, and the benchmark's own tests and quick run.
check:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"
	$(GO) test -race ./internal/cluster/... ./internal/core/... ./internal/obs/... ./internal/load/... ./internal/wal/... ./internal/server/...
	$(GO) test -run='^$$' -fuzz=FuzzBatchReadWire -fuzztime=5s ./internal/proto/
	$(GO) test -run=TestWireFuzzCorpusPresent -fuzz=FuzzWireCodec -fuzztime=5s ./internal/proto/
	$(GO) test -run=TestShardFuzzCorpusPresent -fuzz=FuzzShardWire -fuzztime=5s ./internal/proto/
	$(GO) test -run=TestWALFuzzCorpusPresent -fuzz=FuzzWALRecord -fuzztime=5s ./internal/wal/
	$(GO) test -race -run=TestSubprocessCrashRecovery .
	$(MAKE) bench-wire
	$(MAKE) bench-load-quick
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh -quick

# A perf claim, judged: alternating parent/head driver-mode pairs of one
# workload (pairs won, medians, quartiles), then the -compare table of one
# full run per side. BASE is the parent commit, W the workload.
#   make bench-compare BASE=<sha> W=bank_tcp [PAIRS=6]
bench-compare:
	bash scripts/bench-compare.sh $(BASE) $(W) $(PAIRS)

# Every paper artifact as a Go benchmark (throughput via b.ReportMetric).
bench:
	$(GO) test -bench=. -benchmem .

bench-quick:
	$(GO) test -bench='LocalTxn|StoreValidate|QuorumConstruction' -benchmem .

# Per-protocol latency percentiles, abort-cause breakdown, commit-phase
# decomposition and per-slot heat → BENCH_obs.json. The grep guards the
# phase table: a run that silently lost its span stream has no "phases".
bench-obs:
	$(GO) run ./cmd/qr-bench -exp obs -quick
	@grep -q '"phases"' BENCH_obs.json || { echo "bench-obs: BENCH_obs.json missing phase decomposition" >&2; exit 1; }

# Traced run per protocol, invariant-checked → BENCH_trace.json (Perfetto).
bench-trace:
	$(GO) run ./cmd/qr-bench -exp trace -quick

# Binary wire protocol vs legacy gob loop over real TCP → BENCH_wire.json.
bench-wire:
	$(GO) run ./cmd/qr-bench -exp wire -quick

# Sharded quorum trees vs the single 13-node tree over real TCP, plus a
# traced live add-shard migration → BENCH_shard.json. Runs at full scale:
# the ≥2x scaling claim is a saturation effect and is measured there.
bench-shard:
	$(GO) run ./cmd/qr-bench -exp shard

# Open-loop rate sweep over a 13-node TCP cluster → BENCH_load.json:
# offered-vs-completed throughput, coordinated-omission-free latency from
# intended arrival times, and the saturation knee. The greps guard the
# artifact's load-bearing fields: a run without a step ladder or knee
# verdict is not a measurement.
bench-load:
	$(GO) run ./cmd/qr-bench -exp load
	@grep -q '"steps"' BENCH_load.json || { echo "bench-load: BENCH_load.json missing step ladder" >&2; exit 1; }
	@grep -q '"knee"' BENCH_load.json || { echo "bench-load: BENCH_load.json missing knee verdict" >&2; exit 1; }

# Two-step smoke of the same sweep (CI's make check).
bench-load-quick:
	$(GO) run ./cmd/qr-bench -exp load -quick
	@grep -q '"steps"' BENCH_load.json || { echo "bench-load-quick: BENCH_load.json missing step ladder" >&2; exit 1; }

# Regenerate the paper's figures and tables.
exp:
	$(GO) run ./cmd/qr-bench -exp all

exp-quick:
	$(GO) run ./cmd/qr-bench -exp all -quick

fmt:
	gofmt -w .

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -15

clean:
	rm -f cover.out
