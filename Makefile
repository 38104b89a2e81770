GO ?= go

.PHONY: build test bench race vet fmtcheck vulncheck depcheck allocgates benchmod loc stress fuzz verify tables profile profile-sparse profile-temporal profile-gate profile-dense serve-smoke cluster-smoke replica-smoke retain-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# fmtcheck also refuses a command binary tracked at the repository root
# (`go build ./cmd/adbsh` leaves one there; .gitignore lists the five).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(git ls-files adbsh adbserverd adbrouterd benchtables ptlcheck); if [ -n "$$out" ]; then \
		echo "binaries tracked at the root:"; echo "$$out"; exit 1; fi

# govulncheck is optional tooling; the gate runs it when installed and
# prints a notice otherwise (the module is stdlib-only, so the stdlib
# advisories are what it would scan).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vulncheck: govulncheck not installed, skipping"; fi

# depcheck keeps the paper's baselines and oracles (naive, ee), its §9
# valid-time and §6.1.1 aggregate-rewriting reproductions (vtime, agg), the
# experiment harnesses and the generators out of the serving binaries: they
# stay in the repository as references, not as something a server links.
# It also keeps internal/relation out of internal/adb's direct imports: the
# engine answers past-value reads from its history states, and a second
# copy of history (the deleted auxiliary relations) must not creep back.
depcheck:
	@out=$$($(GO) list -deps ./cmd/adbserverd ./cmd/adbrouterd ./cmd/adbsh | \
		grep -E '^ptlactive/internal/(naive|ee|vtime|agg|experiments|ptlgen)$$'); \
	if [ -n "$$out" ]; then \
		echo "serving binaries link reference-only packages:"; echo "$$out"; exit 1; fi
	@out=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/adb | grep -x 'ptlactive/internal/relation'); \
	if [ -n "$$out" ]; then \
		echo "internal/adb imports internal/relation: past values are read from the history states, not a second copy"; exit 1; fi

# benchmod vets and tests the benchmark, a module of its own (bench/go.mod)
# that `go build ./... && go test ./...` never sees although it compiles
# against internal/adb, server, replica, histio and core.
benchmod:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# loc prints the non-test Go lines outside bench/ — the figure the "net
# lines down" criteria are measured in.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs cat | wc -l

# stress repeats the fault-isolation and failover suites under the race
# detector: WAL fault injection, degraded-mode seals, quarantine/revive,
# panic sandboxing, plus the replication chaos tests (torn streams, lease
# promotion). -count=3 reruns catch flaky interleavings in the parallel
# drain and the promotion handoff.
# The pmap property suite rides along: every engine state lives in a
# persistent map, so its model checks belong in the repeated race pass.
# So do the reader suites (ConcurrentReader, Parallel): readers calling the
# accessors beside the one mutator are the engine's only concurrency. The
# wake loop writes the cursors of the standing triggers it steps at a
# fixpoint, and parks and unparks the resting ones, beside those readers,
# so the fixpoint suites (FixpointError, SteppedStatesNotPinned, Resting,
# and IndexedSweepEquivalence's fixpoint triggers) repeat here too. Observers
# run with Engine.mu dropped, beside those readers, and the refusal suite
# (Reentrant) calls every mutator from one.
stress:
	$(GO) test -race -count=3 -run 'Fault|Degrad|Quarantine|Parallel|ConcurrentReader|IndexedSweepEquivalence|FixpointError|SteppedStatesNotPinned|Resting|Reentrant|Panic|Failpoint|Chaos|Failover|Lease|Promot|Replica|ShipAfterReply|PMap' ./internal/adb ./internal/persist ./internal/replica ./internal/pmap

# allocgates runs the allocation gates of the commit path at three core
# counts. The engine starts no goroutine of its own, so nothing they count
# may depend on GOMAXPROCS: the three runs must pass alike — that is the
# check.
# TestSweepNoRuleTerm has four arms: quiescent, gated, exact temporal and
# general rules (the last two: 2,000 steps per commit, none of which may
# allocate; all but one of the exact temporal arm's rules sit at a false
# fixpoint the commit leaves alone, so they rest in the parked set and the
# sweep counts their steps without visiting them, and still allocates
# nothing). In core, a step of the paper's doubled-within-d trigger
# allocates alike at a handful of retained clauses (a wandering price,
# which subsumption keeps to at most 20 clauses even at d=1000) and at about
# 500 (a price rising at every state, which nothing subsumes; the test
# checks the 500 are retained), a windowed sum's step alike at window 40
# and 4,000, and a step of a rule with parameters off temporal operators
# only the Binding maps it returns plus a constant, at 1 and at 4
# candidates. On the fast path a step of doubled-within-d (a frontier of a
# handful of samples, and of some 500) and of temporal-dense's windowed
# sum allocates nothing. NewEngine makes at most 1.05 allocations per initial item,
# at 1k and at 100k items: one treap node each, no encoded copy. An Emit
# that fires four two-parameter triggers without an action (firing-stream's
# shape) allocates at most 20 times: such a firing is logged, never queued
# as an action nor recorded as an execution. In wire, a
# binary frame write allocates nothing and a decode of a transaction, a
# four-firing push and an ok reply at most 9, 24 and 1 times. In server,
# Backlog of the last firing allocates the same over 10 and over 10,000
# firings.
allocgates:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 -run 'TestCommitAllocs|TestSweepNoRuleTerm|TestConstraintCheckAllocs|TestNewEngineAllocsPerItem|TestActionlessFiringAllocs|TestStepAllocsFlatInRetainedClauses|TestWindowedAggregateStepAllocs|TestParamStepAllocs|TestMetricStepAllocs|TestBinaryCodecAllocs|TestBacklogTailAllocs' ./internal/adb ./internal/core ./internal/server/wire ./internal/server || exit 1; done

# fuzz runs the parser and frame-decoder fuzzers for a bounded time. The
# WAL and snapshots store a rule as its printed condition, so the
# printer/parser round trip FuzzParse asserts is the storage format's; the
# frame fuzzers hold both codecs to never panicking and to re-encoding
# whatever they accept. FuzzCmpArith holds value.Cmp and value.Arith to the
# laws every evaluator relies on: flip and negation symmetry, and Null
# exactly where a comparison or an arithmetic is undefined.
# FuzzFixpointReplay holds a fast evaluator that replays its last verdict on
# hinted steps to one that never does: verdict, Steps() and encoded state.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 15s ./internal/ptl
	$(GO) test -run '^$$' -fuzz FuzzCmpArith -fuzztime 10s ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrameBinary$$' -fuzztime 10s ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFixpointReplay$$' -fuzztime 10s ./internal/core

# verify is the full pre-merge tier: static checks plus the whole suite
# under the race detector (the concurrent engine and the durability
# layer's crash tests make -race load-bearing, not optional), then the
# repeated fault-isolation stress pass, the parser fuzz, the four smoke
# scripts and, last, the benchmark module's own vet and tests. Every step
# is fatal; benchmod runs last so that a failure there still leaves every
# other step run. Timings are not checked here but by the benchmark
# (BENCHMARK.json, bench/run.sh).
verify: vet fmtcheck vulncheck depcheck race allocgates stress fuzz serve-smoke cluster-smoke replica-smoke retain-smoke benchmod

# serve-smoke boots adbserverd on a random port, drives a scripted client
# session through adbsh -connect (rules, commits, firing subscription),
# checks that in-process adbsh prints the same for the session minus the
# subscription, then SIGTERMs the server and asserts a clean graceful
# drain (exit 0).
serve-smoke:
	sh scripts/serve_smoke.sh

# replica-smoke boots a durable primary holding the flock lease and a
# follower replicating from it, checks byte-identical wal catch-up and
# the not_primary write refusal, then SIGKILLs the primary and asserts
# the follower promotes itself and serves reads and writes.
replica-smoke:
	sh scripts/replica_smoke.sh

# retain-smoke boots adbserverd with an aggressive retention policy,
# drives enough commits through adbsh to rotate segments and GC the log
# head, asserts the storage query reports a bounded hot set, then SIGKILLs
# and restarts the server and checks recovery still serves the data.
retain-smoke:
	sh scripts/retain_smoke.sh

# cluster-smoke boots adbrouterd over two durable in-process shards,
# drives a scripted session with a cross-shard relay rule through
# adbsh -connect, asserts that a commit spanning shards is refused,
# then SIGTERMs the router and asserts a clean graceful drain (exit 0).
cluster-smoke:
	sh scripts/cluster_smoke.sh

tables:
	$(GO) run ./cmd/benchtables

# profile captures pprof CPU and heap profiles of the scheduling and
# durability experiments; inspect with `go tool pprof cpu.prof`.
profile: profile-sparse profile-temporal profile-gate profile-dense
	$(GO) run ./cmd/benchtables -only E10,E12 -cpuprofile cpu.prof -memprofile mem.prof
	@echo "wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

# profile-sparse profiles the sparse-static shape (100k items, 2,000
# `item(k) > c` rules, Zipf 1-3-item commits): where a commit's time and
# bytes go when it concerns a handful of rules out of thousands.
# `go tool pprof -sample_index=alloc_space -top adb.test sparse_mem.prof`
# attributes bytes per commit.
profile-sparse:
	$(GO) test -run '^$$' -bench SparseStatic -benchtime 200000x -memprofilerate 4096 \
		-cpuprofile sparse_cpu.prof -memprofile sparse_mem.prof ./internal/adb
	@echo "wrote sparse_cpu.prof, sparse_mem.prof and adb.test (go tool pprof adb.test sparse_cpu.prof)"

# profile-temporal profiles the sparse-temporal shape (the same data and
# commits under 2,000 `item(k) > 800 and lasttime item(k) <= 800` rules):
# what a commit's 2,000 steps cost when all but one to three of them find
# their rule's item unchanged: those rules rest at a false fixpoint, and
# the sweep counts their steps without visiting them.
profile-temporal:
	$(GO) test -run '^$$' -bench SparseTemporal -benchtime 20000x -memprofilerate 4096 \
		-cpuprofile temporal_cpu.prof -memprofile temporal_mem.prof ./internal/adb
	@echo "wrote temporal_cpu.prof, temporal_mem.prof and adb.test (go tool pprof adb.test temporal_cpu.prof)"

# profile-gate profiles the constraint-gate shape (100k items, 300
# `not (item(k) < 100 and lasttime item(k) > 900)` constraints, Zipf
# 1-3-item commits, ~4% of them refused): what the constraint check costs a
# commit, per constraint stepped.
profile-gate:
	$(GO) test -run '^$$' -bench ConstraintGate -benchtime 50000x -memprofilerate 4096 \
		-cpuprofile gate_cpu.prof -memprofile gate_mem.prof ./internal/adb
	@echo "wrote gate_cpu.prof, gate_mem.prof and adb.test (go tool pprof adb.test gate_cpu.prof)"

# profile-dense profiles the temporal-dense shape (the paper's doubled-within-10
# trigger on 32 symbols, 8 session rules, a windowed sum and a quote rule,
# one price step per commit): what the 42 fast-path steps a commit cost —
# frontiers, timestamp registers, a window, boolean and class registers —
# every rule stepping on every state.
profile-dense:
	$(GO) test -run '^$$' -bench TemporalDense -benchtime 20000x -memprofilerate 4096 \
		-cpuprofile dense_cpu.prof -memprofile dense_mem.prof ./internal/adb
	@echo "wrote dense_cpu.prof, dense_mem.prof and adb.test (go tool pprof adb.test dense_cpu.prof)"
