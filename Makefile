# Development and CI entry points.
#
#   make ci          gofmt + vet + build + tests + race pass + coverage floors + bench gate
#   make fmt         fail if gofmt would reformat any file
#   make test        go test ./...
#   make race        go test -race on the concurrency-critical packages
#   make cover       per-package coverage floors (obs/race/lockset)
#   make bench-gate  deterministic pipeline stats vs checked-in golden
#   make fuzz        short fuzz session on the minilang frontend
#   make bench       sequential-vs-parallel detection speedup benchmark
#   make bench-layers detect, witness, PTA, OSA, SHB and /analyze benchmarks, 10 runs each
#
# The checked-in fuzz corpus under internal/lang/testdata/fuzz is replayed
# by the plain `go test` runs, so regressions on past findings fail `ci`.

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci fmt vet build test race cover bench-gate fuzz bench bench-layers

ci: fmt vet build test race cover bench-gate

fmt:
	./ci.sh fmt

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages whose state is shared across detection workers; Workers ≥ 8
# paths are exercised by the tests in internal/race.
race:
	$(GO) test -race ./internal/pta/ ./internal/osa/ ./internal/race/ ./internal/shb/ ./internal/lockset/ ./internal/obs/

cover:
	./ci.sh cover

# Runs the three fixed gate presets at Workers=1 and compares the
# deterministic run stats (pairs checked, counters, hit rates, races)
# against internal/bench/testdata/bench_gate_golden.json. Regenerate the
# golden after an intentional change with:
#   $(GO) run ./cmd/o2bench -table gate -update-golden
bench-gate:
	./ci.sh bench-gate

fuzz:
	$(GO) test ./internal/lang/ -run FuzzCompile -fuzz FuzzCompile -fuzztime $(FUZZTIME)

bench:
	$(GO) test -run=NONE -bench=ParallelDetect -benchmem .

# Per-layer benchmarks with exact allocations, repeated so the spread of
# each layer's time is visible (compare two runs with benchstat):
# detection on zookeeper, witness building plus JSON on sqlite3, and the
# pointer analysis, origin-sharing analysis and SHB construction on the
# Linux model; and a waited POST /analyze through the HTTP stack, as a
# cache hit and as a miss.
bench-layers:
	$(GO) test -run=NONE -bench='^(BenchmarkDetectAllocs|BenchmarkWitnesses|BenchmarkPTASolve|BenchmarkOSA|BenchmarkSHBBuild)$$' -benchmem -count=10 .
	$(GO) test -run=NONE -bench='^BenchmarkAnalyzeWait$$' -benchmem -count=10 ./internal/server/
