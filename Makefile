# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint test race flake cover bench bench-json bench-smoke bench-e2e bench-e2e-smoke obs-smoke shard-net-smoke profile fuzz experiments examples loc clean

all: build vet lint test

build:
	$(GO) build ./...

# Any file gofmt would rewrite fails the target, named.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt -l:" >&2; echo "$$out" >&2; exit 1; }

# Serving-scope error hygiene: naked fmt.Errorf/errors.New are forbidden in
# internal/core's serving files and cmd/netout — untyped errors classify as
# INTERNAL at the HTTP boundary instead of their true status. Fails the
# build on any finding.
lint:
	$(GO) run ./cmd/xerrlint

test: vet
	$(GO) test ./...

# -cpu 1,4 runs every test at both GOMAXPROCS values: 1 pins inline
# execution, 4 exercises local candidate ranges and one Engine called from
# eight goroutines over every strategy (TestOneEngineManyGoroutines, DESIGN
# §6's contract) and four query streams sharing one engine
# (TestConcurrentStreamsMatchFreshEngine). This is also the gate for the
# fault-injection suite (internal/core/faultinject_test.go, faults injected
# through the materializer's hook on the shipped strategies): panic isolation,
# admission control and deadline degradation are only proven if they hold
# under -race. -count=1 bypasses the test cache, so a second run on an
# unchanged tree runs the tests again instead of replaying the first.
race:
	$(GO) test -race -count=1 -cpu 1,4 ./...

# The engine's concurrency, stream and norm-table tests, 50 times at each of
# GOMAXPROCS 1 and 4: a test whose outcome depends on the schedule fails here
# before it fails a tier-1 run at random (~3.5 min on 2 vCPU).
flake:
	$(GO) test -count=50 -cpu 1,4 -run 'Concurrent|Stream|NormTables' ./internal/core

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -run XXX -bench=. -benchmem .

# Kernel/index microbenchmarks distilled to JSON (cited from README.md and
# DESIGN.md). BenchmarkExpand's nnz and hop/nnz rows are the evidence for the
# one-row merge and the dense scratch (mergeMaxFrontier) and its hop/share rows for the
# pull kernel's (pullEdgeGain, DESIGN.md "Expansion kernels");
# internal/metapath's own BenchmarkExpand times the pull kernel's two bodies,
# pull=rows against pull=flat per type pair and per mean row length, the
# evidence for hin's flatRowMean; BenchmarkDot and BenchmarkSum are the
# measurements behind the sparse kernels' crossover constants, and
# BenchmarkAccumulators' take/touched=/slots= rows the dense scratch's
# fill-and-drain from every slot written to one in 256, beside its map/ and
# dense/ arms;
# BenchmarkReferenceSide measures per-vertex loads + Sum against one
# set-frontier propagation, the two branches of referenceSide (DESIGN.md
# "Reference side"); internal/core's BenchmarkCandidateSide one walk per
# candidate against one reverse propagation plus the visibility table, the
# evidence for candSideMinShare, and the read of the numerators the store
# keeps that a repeat does (DESIGN.md "Candidate side"); BenchmarkWaist finishing a
# subpath-cache miss by expansion against combination from a waist table, the
# evidence for waistRatio, and its budget= rows a spill list replayed with and
# without tables ranked in the store; BenchmarkStoreCharge what the store
# charges against the live heap per kind of entry (DESIGN.md
# "Subpath-decomposed cache"). Every line runs with -benchmem so B/op and
# allocs/op are recorded.
bench-json:
	{ $(GO) test -run XXX -bench='BenchmarkExpand$$|BenchmarkReferenceSide' -benchmem . ; \
	  $(GO) test -run XXX -bench='BenchmarkExpand$$' -benchmem ./internal/metapath/ ; \
	  $(GO) test -run XXX -bench='BenchmarkPathIndexProbe|BenchmarkCacheProbe|BenchmarkWaist|BenchmarkCandidateSide|BenchmarkStoreCharge' -benchmem ./internal/core/ ; \
	  $(GO) test -run XXX -bench='BenchmarkAccumulators|BenchmarkDot|BenchmarkSum' -benchmem ./internal/sparse/ ; } \
		| $(GO) run ./cmd/benchjson -out BENCH_kernel.json
	$(GO) test -run XXX -bench='BenchmarkQuery/' -benchmem -cpu 1,2,4 . \
		| $(GO) run ./cmd/benchjson -out BENCH_query.json

# One iteration of every benchmark (BenchmarkCandidateSide's 75 arms,
# BenchmarkExpand's pull, hop/nnz, share and pull=rows|flat arms,
# BenchmarkAccumulators' 28 take arms and BenchmarkWaist included): catches
# bit-rot without measuring.
bench-smoke:
	$(GO) test -run XXX -bench=. -benchtime=1x ./...

# The end-to-end serving benchmark (bench/README.md): real -serve and
# -shard-serve processes driven over loopback, every reply checked bit for
# bit against an in-process oracle. The full run takes ~3 min and writes
# bench/out/; the smoke is one short round of everything (< 20 s) and is what
# CI runs, so the harness and its oracle guard every change.
bench-e2e:
	$(GO) run ./bench -seed 1

bench-e2e-smoke:
	$(GO) run ./bench -smoke

# Boot `netout -serve` with an event log and assert every observability
# surface answers: /metrics, /debug/events, /debug/requests, /readyz, the
# traceparent response header and the on-disk JSONL journal; a whole-type scan
# sent four times must read its kept numerators (numer=memo, nothing traversed),
# and two scans COMPARED TO two sets in turn must each read their own.
obs-smoke:
	sh scripts/obs_smoke.sh

# Boot two `netout -shard-serve` processes plus a coordinator scattering
# over them: the networked result must equal unsharded execution exactly,
# both sides must export netout_shard_* metrics, a repeated whole-type scan
# must end up reading the numerators the shards' stores keep (no
# traversed vector), and kill -9 on one shard must degrade the next query to
# partial instead of failing it.
shard-net-smoke:
	sh scripts/shard_net_smoke.sh

# Benchmarks under the profiler: CPU and heap profiles (plus the test binary
# needed to read them) land in results/ for `go tool pprof`.
PROFILE_BENCH ?= BenchmarkFig3Strategies
profile:
	mkdir -p results
	$(GO) test -run XXX -bench=$(PROFILE_BENCH) -benchmem \
		-cpuprofile results/cpu.prof -memprofile results/mem.prof \
		-o results/netout.test .
	@echo "profiles written: go tool pprof results/netout.test results/cpu.prof"

# Short fuzzing passes over the three parsers, the sparse kernels (Dot, Sum
# and the dense drain against their reference implementations), the four
# expansion kernels against each other, the set-frontier propagation
# (against the per-vertex sum), the shard codec's two readers, the PM/SPM
# index loader (against its own decode of the file) and query streams on one
# engine (against a fresh engine and the oracle); regression seeds always run
# as part of `make test`, and FuzzExecuteStream's seed corpus as
# TestStreamCorpusReachesEveryBranch. FuzzExecuteStream starts from an empty
# cache of its own: replaying the hundreds of finds a long-lived default cache
# holds would take its whole 30 s, and nothing would be mutated.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/oql/
	$(GO) test -fuzz=FuzzReadTSV -fuzztime=30s ./internal/hinio/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/aminer/
	$(GO) test -fuzz=FuzzSparseKernels -fuzztime=30s ./internal/sparse/
	$(GO) test -fuzz=FuzzExpandKernels -fuzztime=30s ./internal/metapath/
	$(GO) test -fuzz=FuzzSetVector -fuzztime=30s ./internal/metapath/
	$(GO) test -fuzz=FuzzReadRequest -fuzztime=30s ./internal/shardnet/
	$(GO) test -fuzz=FuzzReadResponse -fuzztime=30s ./internal/shardnet/
	$(GO) test -fuzz=FuzzLoadIndex -fuzztime=30s ./internal/core/
	d=$$(mktemp -d) && { $(GO) test -run XXX -fuzz=FuzzExecuteStream -fuzztime=30s ./internal/core/ -test.fuzzcachedir=$$d; s=$$?; rm -rf $$d; exit $$s; }

# Regenerate every paper table and figure (EXPERIMENTS.md documents the
# expected shapes). The paper-scale run:
experiments:
	$(GO) run ./cmd/experiments -run all -scale 2 -queries 10000 -csv results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/measures
	$(GO) run ./examples/dblp
	$(GO) run ./examples/security
	$(GO) run ./examples/movies
	$(GO) run ./examples/relational
	$(GO) run ./examples/progressive

# The tracked size numbers (ROADMAP): non-test Go outside bench/, of that the
# engine, and the lines of DESIGN.md — a document that describes the tree as it
# is must not regrow while the code shrinks. None may pass its ceiling, so each
# only rises in a diff that raises the literal too.
LOC_CEILING = 18977
CORE_LOC_CEILING = 5828
DESIGN_LINES_CEILING = 985
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs cat | wc -l); echo $$n; \
	c=$$(find internal/core -name '*.go' -not -name '*_test.go' | xargs cat | wc -l); echo $$c; \
	d=$$(wc -l < DESIGN.md); echo $$d; \
	[ $$n -le $(LOC_CEILING) ] || { echo "make loc: $$n lines, ceiling $(LOC_CEILING) (Makefile)" >&2; exit 1; }; \
	[ $$c -le $(CORE_LOC_CEILING) ] || { echo "make loc: internal/core $$c lines, ceiling $(CORE_LOC_CEILING) (Makefile)" >&2; exit 1; }; \
	[ $$d -le $(DESIGN_LINES_CEILING) ] || { echo "make loc: DESIGN.md $$d lines, ceiling $(DESIGN_LINES_CEILING) (Makefile)" >&2; exit 1; }

clean:
	rm -rf results test_output.txt bench_output.txt .bench_build bench/out
