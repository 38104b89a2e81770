package main

import (
	"errors"
	"os"
	"runtime"
	"time"

	"ptlactive/bench/gen"
	"ptlactive/internal/adb"
)

// report collects one run's figures and its failure accounting.
type report struct {
	workload  string
	metrics   map[string]float64
	units     map[string]string
	attempted int
	failed    int // ops that errored, were refused unexpectedly or missed the backlog limit
	wrong     int // output verification mismatches
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]float64{}, units: map[string]string{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = v
	r.units[name] = unit
}

// mismatch records a verification failure: the run is not correct.
func (r *report) mismatch(format string, args ...any) {
	r.wrong++
	logf("MISMATCH "+r.workload+": "+format, args...)
}

func (r *report) note(format string, args ...any) {
	logf(r.workload+": "+format, args...)
}

// setLatency reports a distribution as <prefix>_p50_us, _p90_us and
// _p99_us.
func (r *report) setLatency(prefix string, us []float64) {
	s := summarize(us)
	r.set(prefix+"_p50_us", s.P50, "us")
	r.set(prefix+"_p90_us", s.P90, "us")
	r.set(prefix+"_p99_us", s.Tail, "us")
	r.note("%s: %d samples, %d slices, tail is p%.1f", prefix, s.N, s.Slices, s.TailAt)
}

func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// timedSetup deploys the system several times, fresh each time, and
// returns the last one with the median time of a deployment. Cheap
// deployments are repeated more often, so the median of a millisecond-sized
// figure still repeats.
func timedSetup(s spec, w *gen.Workload, root string) (*system, float64, error) {
	const minReps, maxReps = 3, 100
	const enough = 400 * time.Millisecond
	var times []float64
	var sys *system
	var spent time.Duration
	for i := 0; i < minReps || (i < maxReps && spent < enough); i++ {
		if sys != nil {
			sys.close(false)
		}
		dir, err := os.MkdirTemp(root, "deploy")
		if err != nil {
			return nil, 0, err
		}
		runtime.GC() // the previous deployment's garbage is not this one's cost
		t0 := time.Now()
		if sys, err = deploy(s, w, dir, true, false); err != nil {
			return nil, 0, err
		}
		took := time.Since(t0)
		spent += took
		times = append(times, took.Seconds())
	}
	return sys, median(times), nil
}

// commit applies one op to the engine and checks the outcome against the
// generator's expectation: an expected constraint rejection (by name) is a
// correct outcome, anything else unexpected is a failure.
func commit(eng *adb.Engine, op gen.Op, r *report) {
	err := eng.ExecTxn(op.TS, op.Updates, nil, op.Events...)
	r.attempted++
	checkOutcome(op, err, r)
}

func checkOutcome(op gen.Op, err error, r *report) {
	var ce *adb.ConstraintError
	switch {
	case err == nil && op.Reject == "":
	case errors.As(err, &ce) && ce.Constraint == op.Reject:
	default:
		r.failed++
		if r.failed <= 5 {
			logf("%s: op at ts %d: got %v, expected rejection by %q", r.workload, op.TS, err, op.Reject)
		}
	}
}

// runInProcess is the end-to-end run of an in-process workload: a closed
// loop with one caller for `seconds` of wall clock. Latency is each call's
// own wall time (a call the box interrupts is one sample of many);
// throughput is commits over the wall time of the whole phase, compactions
// included.
func runInProcess(s spec, seed int64, seconds float64, root string) (*report, error) {
	r := newReport(s.name)
	w, err := gen.New(s.name, seed)
	if err != nil {
		return nil, err
	}
	sys, setup, err := timedSetup(s, w, root)
	if err != nil {
		return nil, err
	}
	defer sys.close(false)
	eng := sys.eng
	r.set("setup_s", setup, "s")

	// Firing latency: the observer runs on the committing goroutine inside
	// ExecTxn, so opStart needs no synchronisation.
	var opStart, lastFiring time.Time
	cancel := eng.OnFiring(func(adb.Firing) { lastFiring = time.Now() })
	defer cancel()

	warm := w.Take(warmOps)
	r.note("op-stream digest %s (first %d ops)", gen.Digest(warm), warmOps)
	for _, op := range warm {
		commit(eng, op, r)
	}
	checkOracle(eng, w, r)

	// The live heap and the exact counts belong to a fixed amount of work,
	// not to however far this run got in its time: they are read when op
	// fixedAt has committed, whether the clock is still running or not.
	fixedAt := s.fixedOps(seconds)
	var commitUS, fireUS []float64
	ops := 0
	steps0, fired0 := eng.EvalSteps(), len(eng.Firings())
	timing := true
	cpu0, start := cpuTime(), time.Now()
	var cpu, wall time.Duration
	for timing || ops < fixedAt {
		op := w.Next()
		opStart = time.Now()
		commit(eng, op, r)
		if timing {
			commitUS = append(commitUS, float64(time.Since(opStart))/1e3)
			// One sample per commit that fired: when the last of its
			// firings was known.
			if lastFiring.After(opStart) {
				fireUS = append(fireUS, float64(lastFiring.Sub(opStart))/1e3)
			}
		}
		ops++
		if ops%compactEvery == 0 {
			eng.Compact()
		}
		if ops == fixedAt {
			// The forced collection is the harness's, not the workload's:
			// both clocks stand still for it.
			pauseCPU, pauseWall := cpuTime(), time.Now()
			r.set("adb.eval_steps_per_commit", float64(eng.EvalSteps()-steps0)/float64(ops), "count")
			checkFiringRate(s, len(eng.Firings())-fired0, ops, r)
			r.set("heap_live_mb", heapLiveMB(), "MB")
			cpu0 += cpuTime() - pauseCPU
			start = start.Add(time.Since(pauseWall))
		}
		if timing && ops%16 == 0 && time.Since(start).Seconds() >= seconds {
			timing = false
			cpu, wall = cpuTime()-cpu0, time.Since(start)
		}
	}
	r.setLatency("commit", commitUS)
	r.setLatency("fire", fireUS)
	r.set("commits_per_s", float64(len(commitUS))/wall.Seconds(), "1/s")
	r.set("load.commits_per_cpu_s", float64(len(commitUS))/cpu.Seconds(), "1/s")
	r.note("closed loop: %d commits timed in %.2f s of wall clock and %.2f s of processor time, %d in all",
		len(commitUS), wall.Seconds(), cpu.Seconds(), ops)
	return r, nil
}

// bandMinOps is the fewest commits a firing rate is judged on; a smoke run
// is too short for the rarer firings to have happened.
const bandMinOps = 1000

// checkFiringRate fails the run when the workload fires outside the band
// its row promises.
func checkFiringRate(s spec, firings, commits int, r *report) {
	perCommit := float64(firings) / float64(commits)
	r.set("load.firings_per_commit", perCommit, "count")
	if commits >= bandMinOps && (perCommit < s.firings[0] || perCommit > s.firings[1]) {
		r.mismatch("%.4f firings per commit, the workload promises %v", perCommit, s.firings)
	}
}
