package main

// deployment says how a workload's system under test is put together.
type deployment int

const (
	inProcess     deployment = iota // adb.Engine called directly, memory
	servedMemory                    // server.New over loopback TCP, memory engine
	servedDurable                   // the same over adb.Restore: WAL, segments, checkpoints
	servedReplica                   // durable primary plus a streaming follower
)

func (d deployment) served() bool  { return d != inProcess }
func (d deployment) durable() bool { return d == servedDurable || d == servedReplica }

// spec is the frozen load shape of one workload. Every count below is per
// second of run length, so a smoke test at a fiftieth of the length does a
// fiftieth of the work; the driver always passes the same length, which
// makes them fixed counts.
type spec struct {
	name   string
	why    string
	deploy deployment
	// fixedPerS sets the op count at which the live heap and the exact
	// counts are read, so those figures belong to a fixed amount of work and
	// not to however far a run got in its time. It is about a fifth of what
	// a calm box commits in the phase.
	fixedPerS int
	// ladderPerS is the traced ladder's length.
	ladderPerS int
	// firings is the band the workload's firings per commit must stay in;
	// outside it the workload no longer does what its row says.
	firings [2]float64
}

// fixedOps is the op count the fixed-work figures are read at.
func (s spec) fixedOps(seconds float64) int {
	n := int(float64(s.fixedPerS) * seconds)
	if n < 32 {
		n = 32
	}
	return n
}

// window is how many commits the closed-loop throughput phase keeps in
// flight on the one committing connection.
const window = 32

// readRate is the pace, per second, of the queries connection 2 sends
// beside the commits of a served workload.
const readRate = 300

// compactEvery is how often a memory engine's owner calls Compact, as an
// embedding application must to keep the history bounded.
const compactEvery = 4096

// warmOps run before any timing; on the in-process workloads their states
// are the ones checked against the whole-history oracle.
const warmOps = 300

var specs = []spec{
	{name: "temporal-dense", deploy: inProcess, fixedPerS: 150, ladderPerS: 100, firings: [2]float64{1.02, 2.5},
		why: "41 time-dependent rules step on every state: core dominates (the paper's doubled-within-10 example)"},
	{name: "sparse-static", deploy: inProcess, fixedPerS: 2000, ladderPerS: 1500, firings: [2]float64{0.005, 3},
		why: "100k items, 2000 non-temporal rules: read-set index, memo replay and state path-copying dominate, core steps < 5"},
	{name: "sparse-temporal", deploy: inProcess, fixedPerS: 100, ladderPerS: 60, firings: [2]float64{0.05, 1},
		why: "same data, 2000 temporal rules: the scheduler steps every rule per commit though 1-3 items changed"},
	{name: "constraint-gate", deploy: inProcess, fixedPerS: 200, ladderPerS: 100, firings: [2]float64{0.02, 1},
		why: "300 temporal constraints cloned and stepped per tentative commit dominate; 5% expected rejections"},
	{name: "durable-served", deploy: servedDurable, fixedPerS: 400, ladderPerS: 300, firings: [2]float64{0.05, 0.5},
		why: "logged commits and checkpoints over loopback TCP with reads beside writes: persist and the wire dominate, then recovery"},
	{name: "firing-stream", deploy: servedMemory, fixedPerS: 400, ladderPerS: 600, firings: [2]float64{4, 4},
		why: "4 two-parameter firings per commit to a subscriber: server fan-out and wire encode dominate, persist is 0"},
	{name: "replicated", deploy: servedReplica, fixedPerS: 400, ladderPerS: 250, firings: [2]float64{1, 1.2},
		why: "durable primary shipping its WAL to a served follower: ship and apply give replication lag"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metric is one reported figure's declaration; BENCHMARK.json repeats
// these lists (a test keeps the two equal).
type metric struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the figures every workload's user sees; they are measured
// with tracing off and each is bounded in BENCHMARK.json. Every workload
// reports every one of them.
var endToEnd = []metric{
	{name: "setup_s", unit: "s"},
	{name: "commit_p50_us", unit: "us"},
	{name: "commits_per_s", unit: "1/s", higher: true},
	{name: "fire_p50_us", unit: "us"},
	{name: "heap_live_mb", unit: "MB"},
}

// perLayer are the figures of single layers and the deployment-level
// figures that do not repeat within a bound on a shared box; names are
// <module>.<what>. A layer a workload does not have reads 0. They are
// reported, never bounded.
var perLayer = []metric{
	{name: "commit_p90_us", unit: "us"},
	{name: "commit_p99_us", unit: "us"},
	{name: "fire_p90_us", unit: "us"},
	{name: "fire_p99_us", unit: "us"},
	{name: "core.step_p50_us", unit: "us"},
	{name: "core.step_p99_us", unit: "us"},
	{name: "core.state_nodes_peak", unit: "count"},
	{name: "core.share_of_commit_pct", unit: "%"},
	{name: "ptl.parse_check_us", unit: "us"},
	{name: "adb.rule_add_us", unit: "us"},
	{name: "adb.commit_p50_us", unit: "us"},
	{name: "adb.commit_p99_us", unit: "us"},
	{name: "adb.eval_steps_per_commit", unit: "count"},
	{name: "adb.allocs_per_commit", unit: "count"},
	{name: "adb.bytes_per_commit", unit: "B"},
	{name: "adb.constraint_us", unit: "us"},
	{name: "adb.rejects", unit: "count"},
	{name: "adb.compact_us", unit: "us"},
	{name: "adb.heap_per_state_bytes", unit: "B"},
	{name: "history.state_build_us", unit: "us"},
	{name: "persist.encode_us", unit: "us"},
	{name: "persist.write_us", unit: "us"},
	{name: "persist.fsync_us", unit: "us"},
	{name: "persist.flushes_per_commit", unit: "count"},
	{name: "persist.wal_bytes_per_commit", unit: "B"},
	{name: "persist.checkpoint_stall_us", unit: "us"},
	{name: "persist.snapshot_bytes", unit: "B"},
	{name: "persist.replay_us_per_record", unit: "us"},
	{name: "persist.recover_ms", unit: "ms"},
	{name: "persist.disk_hot_kib", unit: "KiB"},
	{name: "client.encode_us", unit: "us"},
	{name: "client.req_bytes", unit: "B"},
	{name: "client.encode_json_us", unit: "us"},
	{name: "client.req_json_bytes", unit: "B"},
	{name: "wire.decode_us", unit: "us"},
	{name: "wire.reply_us", unit: "us"},
	{name: "wire.firing_encode_us", unit: "us"},
	{name: "wire.firing_write_us", unit: "us"},
	{name: "wire.firing_bytes", unit: "B"},
	{name: "server.rtt_us", unit: "us"},
	{name: "server.sync_commit_us", unit: "us"},
	{name: "server.commit_overhead_us", unit: "us"},
	{name: "server.durable_commit_us", unit: "us"},
	{name: "server.pipelined_commits_per_s", unit: "1/s", higher: true},
	{name: "server.fanout_us_per_firing", unit: "us"},
	{name: "server.fanout_cpu_pct", unit: "%"},
	{name: "server.sub_gaps", unit: "count"},
	{name: "server.read_p50_us", unit: "us"},
	{name: "server.read_p99_us", unit: "us"},
	{name: "replica.apply_us_per_record", unit: "us"},
	{name: "replica.ship_bytes_per_commit", unit: "B"},
	{name: "replica.lag_p50_us", unit: "us"},
	{name: "replica.lag_p99_us", unit: "us"},
	{name: "load.commits_per_cpu_s", unit: "1/s", higher: true},
	{name: "load.firings_per_commit", unit: "count"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.unattributed_pct", unit: "%"},
	{name: "trace.ladder_sum_us", unit: "us"},
	{name: "trace.dominance_ok", unit: "count", higher: true},
}
