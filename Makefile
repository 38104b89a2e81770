GO ?= go

.PHONY: build test bench race vet fmtcheck vulncheck depcheck allocgates benchmod loc loc-pkgs stress fuzz verify tables profile profile-sparse profile-temporal profile-gate profile-dense serve-smoke cluster-smoke replica-smoke retain-smoke

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
# (`go build ./cmd/adbsh` leaves one there; .gitignore lists the four).
fmtcheck:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@out=$$(git ls-files adbsh adbserverd benchtables ptlcheck); if [ -n "$$out" ]; then \
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
	@out=$$($(GO) list -deps ./cmd/adbserverd ./cmd/adbsh | \
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

# loc-pkgs prints the same lines per package directory ("." for the root
# package), the figure the per-package line budgets are stated in.
loc-pkgs:
	@git ls-files -co --exclude-standard '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | \
		xargs awk '{d = FILENAME; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d]++} END {for (d in n) printf "%6d %s\n", n[d], d}' | sort -k2

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
# fixpoint, and it and the constraint check park and unpark the resting
# triggers and constraints, beside those readers, so the fixpoint suites
# (FixpointError, SteppedStatesNotPinned, Resting — triggers and constraints —
# and IndexedSweepEquivalence's fixpoint triggers, clock-only rules among
# them, which replay until a deadline or rest without one) repeat here too. A
# quiescent rule's rest record (its memo) is written where the rule steps,
# outside the merge's lock hold, and read by snapshots, so the memo suites
# (QuiescentMemo, MemoSnapshot) repeat beside them. Observers
# run with Engine.mu dropped, beside those readers, and the refusal suite
# (Reentrant) calls every mutator from one. A served engine's commit
# pipeline compacts its history every 64 operations, beside the sessions'
# readers, so internal/server and its compaction suite (PipelineCompacts:
# Now, Items and Firings readers beside the compactions) repeat here too.
# A subscribed session's writer reads the firing log from its cursor beside
# the committer that appends to it, and decides a lagging subscriber's
# overflow there, so the overflow suites (the two gap suites, DropWithGap
# and Disconnect), the resume-by-sequence and drain suites and the client's
# gap accounting (Overflow|Subscribe|GracefulDrain|ClientStatsGap) repeat
# here as well, with the order a backend promises its head observer: a
# commit's firings before its reply (FiringsBeforeReply). The other two
# readers of a backend's log head repeat too: the cluster router's fan-in,
# which follows each local shard's log from a cursor beside its pipeline and
# publishes the merged head beside the readers of the merged log
# (Front|ClusterShard|Relay in ./internal/cluster), and a follower's read
# side, which answers reads and subscriptions from the engine the applies
# replace and publish (ReadSideParity|FollowerServes|KeepsOnFiring).
stress:
	$(GO) test -race -count=3 -run 'Fault|Degrad|Quarantine|Parallel|ConcurrentReader|IndexedSweepEquivalence|FixpointError|SteppedStatesNotPinned|Resting|QuiescentMemo|MemoSnapshot|Reentrant|Panic|Failpoint|Chaos|Failover|Lease|Promot|Replica|ShipAfterReply|PMap|PipelineCompacts|Overflow|Subscribe|GracefulDrain|ClientStatsGap|FiringsBeforeReply|Front|ClusterShard|Relay|ReadSideParity|FollowerServes|KeepsOnFiring' ./internal/adb ./internal/persist ./internal/replica ./internal/pmap ./internal/server ./internal/cluster

# allocgates runs the allocation gates of the commit path at three core
# counts. The engine starts no goroutine of its own, so nothing they count
# may depend on GOMAXPROCS: the three runs must pass alike — that is the
# check.
# TestSweepNoRuleTerm has five arms: quiescent, gated, exact temporal,
# general and clock-only rules (the last three: 2,000 steps per commit,
# none of which may allocate; all but one of the exact temporal arm's rules
# sit at a false fixpoint the commit leaves alone, so they rest in the
# parked set and the sweep counts their steps without visiting them, and
# still allocates nothing; the clock-only arm's Eager rules, which read the
# clock through a time bound, replay their rest records in the standing
# list before their deadlines, allocating nothing either). In core, a step of the paper's doubled-within-d trigger
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
# as an action nor recorded as an execution. On that shape the firing log
# holds at most 160 B of live heap per firing (TestFiringLogBytesPerFiring:
# a row and its values, no map). In wire, a
# binary frame write allocates nothing and a decode of a transaction, a
# four-firing push and an ok reply at most 9, 24 and 1 times. In server,
# Backlog of the last firing allocates the same over 10 and over 10,000
# firings, and a Subscribe(0) over a log of 10,000 and of 100,000 firings,
# with SubscriberQueue 256, builds the same bindings at both sizes, at most
# SubscriberQueue plus one read batch (TestSubscribeBuildsOnlyWhatItSends:
# 256 built). Under the states, a pmap write set of three present keys in a
# 100k map allocates the union of their search paths plus at most one
# (TestPMapAllocs), and history.DBState adds nothing to pmap's path copies
# (TestDBStateAllocs).
allocgates:
	for p in 1 2 4; do GOMAXPROCS=$$p $(GO) test -count=1 -run 'TestCommitAllocs|TestSweepNoRuleTerm|TestConstraintCheckAllocs|TestNewEngineAllocsPerItem|TestActionlessFiringAllocs|TestFiringLogBytesPerFiring|TestStepAllocsFlatInRetainedClauses|TestWindowedAggregateStepAllocs|TestParamStepAllocs|TestMetricStepAllocs|TestBinaryCodecAllocs|TestBacklogTailAllocs|TestSubscribeBuildsOnlyWhatItSends|TestPMapAllocs|TestDBStateAllocs' ./internal/adb ./internal/core ./internal/server/wire ./internal/server ./internal/pmap ./internal/history || exit 1; done

# fuzz runs the parser and frame-decoder fuzzers for a bounded time. The
# WAL and snapshots store a rule as its printed condition, so the
# printer/parser round trip FuzzParse asserts is the storage format's; the
# frame fuzzers hold both codecs to never panicking and to re-encoding
# whatever they accept. FuzzCmpArith holds value.Cmp and value.Arith to the
# laws every evaluator relies on: flip and negation symmetry, and Null
# exactly where a comparison or an arithmetic is undefined.
# FuzzFixpointReplay holds a fast evaluator that replays its last verdict on
# hinted steps to one that never does: verdict and encoded state, the
# re-stamps a replay makes included.
# FuzzRelationItem holds the relational query helpers (RegisterItemField,
# RegisterSelect, RegisterRetrieve) to the same Null rule over items of any
# shape: an absent item or a non-relation holds no rows, an ill-shaped row
# is skipped, a missing key is Null, and none errors or panics.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 15s ./internal/ptl
	$(GO) test -run '^$$' -fuzz FuzzCmpArith -fuzztime 10s ./internal/value
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrameBinary$$' -fuzztime 10s ./internal/server/wire
	$(GO) test -run '^$$' -fuzz '^FuzzFixpointReplay$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRelationItem$$' -fuzztime 10s ./internal/query

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

# cluster-smoke boots adbserverd -local 2 over two durable, checkpointing
# in-process shards, drives a scripted session with a cross-shard relay
# rule through adbsh -connect, asserts that a commit spanning shards is
# refused and that a shard checkpointed, SIGKILLs and restarts the front
# and asserts the rules, data and relayed firing survive, then SIGTERMs it
# and asserts a clean graceful drain (exit 0); last, each flag combination
# a cluster front refuses must exit non-zero with its message.
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
# 1-3-item commits, ~4% of them refused, Compact every 4,096 commits, so
# the history holds at most that many states): what a commit's constraint
# check costs when it steps only the one to three constraints its write set
# touches: the others rest at a false fixpoint, and the check counts their
# steps without visiting them.
profile-gate:
	$(GO) test -run '^$$' -bench ConstraintGate -benchtime 50000x -memprofilerate 4096 \
		-cpuprofile gate_cpu.prof -memprofile gate_mem.prof ./internal/adb
	@echo "wrote gate_cpu.prof, gate_mem.prof and adb.test (go tool pprof adb.test gate_cpu.prof)"

# profile-dense profiles the temporal-dense shape (the paper's doubled-within-10
# trigger on 32 symbols, 8 session rules, a windowed sum and a quote rule,
# one price step per commit, Compact every 4,096 commits): what the 42
# fast-path steps a commit counts cost — frontiers, timestamp registers, a
# window, boolean and class registers — where a doubled rule steps in full
# only at its price's writes and its old sample's deadline, ≈ 1.4 of
# the 32 a commit, and replays its rest record at the other states.
profile-dense:
	$(GO) test -run '^$$' -bench TemporalDense -benchtime 20000x -memprofilerate 4096 \
		-cpuprofile dense_cpu.prof -memprofile dense_mem.prof ./internal/adb
	@echo "wrote dense_cpu.prof, dense_mem.prof and adb.test (go tool pprof adb.test dense_cpu.prof)"
