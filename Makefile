# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-race bench bench-json bench-compare profile profile-live experiments traces cover fmt serve loadtest

# BENCH_LAST is the highest-numbered checked-in baseline BENCH_<n>.json;
# bench-json writes the next trajectory file, one past it, unless BENCH_N
# is given. Both are read before any target runs.
BENCH_LAST := $(shell ls BENCH_*.json 2>/dev/null | sed 's/[^0-9]//g' | sort -n | tail -1)
BENCH_N ?= $(shell echo $$(( $(or $(BENCH_LAST),0) + 1 )))

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The parallel sweeps and GA fitness fan-out must stay data-race free.
test-race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus the substrate micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable perf trajectory: runs the tier benchmarks (simulator,
# GA, objective engine, multicore pipeline, and the Fig. 4/5 sweep) and
# writes per-benchmark
# ns/op and allocs/op means to BENCH_$(BENCH_N).json for cross-PR
# comparison.
bench-json:
	{ $(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/sim ./internal/ga ./internal/objective ./internal/obs ./internal/serve ./internal/multicore ; \
	  $(GO) test -run '^$$' -bench 'Fig4$$|SimVal' -benchmem -count 3 . ; } \
	| $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_N).json

# Gate the current tree against the latest baseline, BENCH_$(BENCH_LAST).
# ns/op is only meaningful on the same machine; CI gates on allocs alone.
bench-compare: bench-json
	$(GO) run ./cmd/benchjson -compare -tol 0.15 -metrics allocs \
	  BENCH_$(BENCH_LAST).json BENCH_$(BENCH_N).json

# Profile the Fig. 4/5 sweep (the repo's hottest path) at reduced scale;
# inspect with `go tool pprof cpu.out`.
profile: build
	$(GO) run ./cmd/mcexp -exp fig45 -sets 30 -plot=false \
	  -cpuprofile cpu.out -memprofile mem.out
	@echo "wrote cpu.out and mem.out; inspect with: $(GO) tool pprof cpu.out"

# Run the Fig. 4/5 sweep with the live observability endpoint up. While it
# runs: curl http://127.0.0.1:6060/metrics for the counters, or attach the
# profiler with `go tool pprof http://127.0.0.1:6060/debug/pprof/profile`.
profile-live:
	$(GO) run ./cmd/mcexp -exp fig45 -sets 300 -plot=false -progress \
	  -http 127.0.0.1:6060 -metrics

# Regenerate every paper artefact at full scale (takes several minutes).
experiments:
	$(GO) run ./cmd/mcexp -exp all

# Run the assignment daemon on the default port with every endpoint up:
# POST /v1/assign, POST /v1/fit, /healthz, /metrics, /debug/pprof.
serve:
	$(GO) run ./cmd/mcserve -addr 127.0.0.1:8080

# Closed-loop load test of the serving path (in-process by default; set
# LOADTEST_URL to aim at a live daemon). Reports throughput, cache hit
# rate, and hit/cold latency percentiles — the issue's ≥100k cached
# assignments/s acceptance number comes from here.
LOADTEST_URL ?=
loadtest:
	$(GO) run ./examples/loadtest -requests 300000 -clients 4 \
	  $(if $(LOADTEST_URL),-url $(LOADTEST_URL),)

# Persist the benchmark traces (the MEET measurement campaign).
traces:
	$(GO) run ./cmd/tracegen -out traces

cover:
	$(GO) test -cover ./...

fmt:
	gofmt -w .
