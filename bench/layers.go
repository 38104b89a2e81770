package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ptlactive/bench/gen"
	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/server/wire"
)

// The per-layer run. A ladder replays the workload's first ops through the
// hops that block a commit's reply, each a span recorded from out here,
// around calls into public functions: client encode, wire decode, the
// commit (with the WAL's write stamped by the public hooks, and the firing
// encode the server does on the commit's goroutine by an OnFiring
// observer), reply encode and decode. Rungs that cannot nest in a commit
// (evaluator steps over the recorded history, state build, the push frame,
// the fsync, follower apply) are timed beside it.

// coreRules and coreStates bound the evaluator replay of the core rung.
const (
	coreRules  = 64
	coreStates = 2000
)

// ladderMode selects the engine a pass of the ladder runs on.
type ladderMode struct {
	// durable opens the deployment's store (fsync off, as the end-to-end
	// run has it); memory engines have no persist hops whatever the
	// deployment.
	durable bool
	// sequential sets Workers: 1, so that the evaluator steps of a commit
	// run one after the other and a share of its time is a share of its
	// work; otherwise the engine is configured as deployed (Workers: 0).
	sequential bool
	// bare leaves the integrity constraints out (the subtraction that
	// prices them).
	bare bool
}

// ladderPass is one engine the ladder's ops run through, and what it
// measured.
type ladderPass struct {
	s   spec
	rec *recorder // nil: the same code untraced
	eng *adb.Engine

	// Stamps from the WAL's public hooks, on the committing goroutine: the
	// failpoint is consulted just before the frame is written, the flush
	// hook runs once it is on its way.
	tAppend, tFlush time.Time
	flushBytes      int
	// trace and commitSpan tell the OnFiring observer which op and span a
	// firing belongs to; seq numbers the firings as the server would.
	trace, commitSpan, seq int
	reqBuf, repBuf         bytes.Buffer
	reqW, repW             *wire.FrameWriter

	opUS     []float64 // per op, the whole blocking path
	commitUS []float64 // per op, the adb.commit hop
	writeUS  []float64 // per op, the stamped WAL write (durable passes)
	rejects  int
	steps0   int64 // the engine's evaluator steps before the first op
	// bare: the pass commits what the constraints would refuse, and its
	// database drifts from the others' there.
	bare bool
}

// newLadder opens the engine of one pass.
func newLadder(s spec, w *gen.Workload, rec *recorder, root string, mode ladderMode) (*ladderPass, error) {
	p := &ladderPass{s: s, rec: rec, bare: mode.bare}
	cfg, dir := adb.Config{Initial: w.Initial}, ""
	if mode.durable {
		cfg = engineConfig(w, s.deploy, false)
		var err error
		if dir, err = os.MkdirTemp(root, "ladder"); err != nil {
			return nil, err
		}
	}
	if mode.sequential {
		cfg.Workers = 1
	}
	eng, err := newEngine(w, cfg, dir, !mode.bare)
	if err != nil {
		return nil, err
	}
	p.eng, p.steps0 = eng, eng.EvalSteps()
	if mode.durable {
		eng.SetWALFailpoint(func(op string, lsn int64) error {
			if op == "append" {
				p.tAppend = time.Now()
			}
			return nil
		})
		eng.WALFlushHook(func(data []byte, first, last int64) {
			p.tFlush = time.Now()
			p.flushBytes = len(data)
		})
	}
	// The fan-out hop: what server.broadcast does for a firing inside the
	// commit. The push frame itself is written by the session's writer, off
	// the blocking path (firingWriteRung).
	if s.deploy.served() {
		eng.OnFiring(func(f adb.Firing) {
			i := p.rec.begin(p.trace, p.commitSpan, "server.fanout")
			if _, err := wire.EncodeFiring(f, p.seq); err != nil {
				panic(err) // every generated binding is encodable
			}
			p.seq++
			p.rec.end(i, 1, 0)
		})
	}
	p.reqW = wire.NewFrameWriter(&p.reqBuf, wire.CodecBinary)
	p.repW = wire.NewFrameWriter(&p.repBuf, wire.CodecBinary)
	return p, nil
}

// step runs op i through the hops the deployment has. A refusal is an
// error only where the generator did not expect one.
func (p *ladderPass) step(i int, op gen.Op) error {
	rec := p.rec
	p.trace = i + 1
	opStart := time.Now()
	opSpan := rec.begin(p.trace, 0, "op")
	rootID := rec.id(opSpan)
	updates, events := op.Updates, op.Events
	if p.s.deploy.served() {
		sp := rec.begin(p.trace, rootID, "client.encode")
		encU, err := histio.EncodeItems(op.Updates)
		if err != nil {
			return err
		}
		encE, err := histio.EncodeEvents(op.Events)
		if err != nil {
			return err
		}
		p.reqBuf.Reset()
		if err := p.reqW.Write(&wire.Msg{T: wire.TypeTxn, ID: uint64(p.trace), TS: op.TS, Updates: encU, Events: encE}); err != nil {
			return err
		}
		rec.end(sp, 1, p.reqBuf.Len())

		sp = rec.begin(p.trace, rootID, "wire.decode")
		m, err := wire.ReadFrameC(bytes.NewReader(p.reqBuf.Bytes()), wire.CodecBinary)
		if err != nil {
			return err
		}
		if updates, err = histio.DecodeItems(m.Updates); err != nil {
			return err
		}
		if events, err = histio.DecodeEvents(m.Events); err != nil {
			return err
		}
		rec.end(sp, 1, p.reqBuf.Len())
	}

	sp := rec.begin(p.trace, rootID, "adb.commit")
	p.commitSpan = rec.id(sp)
	p.tFlush = time.Time{}
	t0 := time.Now()
	err := p.eng.ExecTxn(op.TS, updates, nil, events...)
	t1 := time.Now()
	rec.end(sp, 1, 0)
	writeUS := 0.0
	if !p.tFlush.IsZero() {
		rec.add(p.trace, p.commitSpan, "persist.write", p.tAppend, p.tFlush, p.flushBytes)
		writeUS = float64(p.tFlush.Sub(p.tAppend)) / 1e3
	}
	p.writeUS = append(p.writeUS, writeUS)
	p.commitUS = append(p.commitUS, float64(t1.Sub(t0))/1e3)
	if err != nil {
		p.rejects++
		if !p.bare && op.Reject == "" {
			return fmt.Errorf("ladder op %d: %w", i, err)
		}
	}

	if p.s.deploy.served() {
		sp := rec.begin(p.trace, rootID, "wire.reply")
		p.repBuf.Reset()
		if err := p.repW.Write(&wire.Msg{T: wire.TypeOK, ID: uint64(p.trace), TS: op.TS}); err != nil {
			return err
		}
		if _, err := wire.ReadFrameC(bytes.NewReader(p.repBuf.Bytes()), wire.CodecBinary); err != nil {
			return err
		}
		rec.end(sp, 1, p.repBuf.Len())
	}
	rec.end(opSpan, 1, 0)
	p.opUS = append(p.opUS, float64(time.Since(opStart))/1e3)
	return nil
}

// paired returns the median over the ops of a[i] - b[i]: two passes run in
// lock-step see the same box op by op, so their difference is the
// difference between them.
func paired(a, b []float64) float64 {
	d := make([]float64, len(a))
	for i := range a {
		d[i] = a[i] - b[i]
	}
	return median(d)
}

// runLayers measures the per-layer figures of one workload into r and
// writes the traced pass's spans to outDir.
func runLayers(s spec, seed int64, seconds float64, root, outDir string, r *report) error {
	w, err := gen.New(s.name, seed)
	if err != nil {
		return err
	}
	n := int(float64(s.ladderPerS) * seconds)
	if n < 50 {
		n = 50
	}
	ops := w.Take(n)
	durable := s.deploy.durable()

	timeRuleTable(w, r)

	// The passes. seq is a memory engine at Workers: 1, whose commits price
	// the evaluator's and the constraints' share of a commit's work, and
	// bare the same without the constraints. plain and traced are configured
	// as deployed, one untraced and one traced: the difference is the
	// tracing overhead. mem is the memory engine configured as deployed that
	// every adb.* figure comes from; for the memory deployments that is
	// plain itself.
	open := func(rec *recorder, mode ladderMode) (*ladderPass, error) {
		return newLadder(s, w, rec, root, mode)
	}
	seq, err := open(nil, ladderMode{sequential: true})
	if err != nil {
		return err
	}
	defer seq.eng.Close()
	var bare *ladderPass
	if hasConstraints(w) {
		if bare, err = open(nil, ladderMode{sequential: true, bare: true}); err != nil {
			return err
		}
		defer bare.eng.Close()
	}
	plain, err := open(nil, ladderMode{durable: durable})
	if err != nil {
		return err
	}
	defer plain.eng.Close()
	rec := newRecorder(len(ops) * 12)
	traced, err := open(rec, ladderMode{durable: durable})
	if err != nil {
		return err
	}
	defer traced.eng.Close()
	mem := plain
	if durable {
		if mem, err = open(nil, ladderMode{}); err != nil {
			return err
		}
		defer mem.eng.Close()
	}
	// seq runs first, one goroutine, its allocations counted around each
	// commit, the core rung's sweep and bare's commit of the same op right
	// after it; that also warms the allocator and the caches for the passes
	// configured as deployed.
	rung, err := newCoreRung(w)
	if err != nil {
		return err
	}
	if _, _, err := rung.catchUp(seq.eng.History()); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	var mallocs, allocated uint64
	var coreShares []float64
	for i, op := range ops {
		runtime.ReadMemStats(&m0)
		if err := seq.step(i, op); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		allocated += m1.TotalAlloc - m0.TotalAlloc
		sweepUS, ok, err := rung.catchUp(seq.eng.History())
		if err != nil {
			return err
		}
		if ok {
			coreShares = append(coreShares, sweepUS/seq.commitUS[i])
		}
		if bare != nil {
			if err := bare.step(i, op); err != nil {
				return err
			}
		}
	}
	// The others run in lock-step, op by op, taking turns to go first: a
	// slow stretch of the box or a collection hits them alike.
	group := []*ladderPass{plain, traced}
	if durable {
		group = append(group, mem)
	}
	for i, op := range ops {
		for k := range group {
			if err := group[(i+k)%len(group)].step(i, op); err != nil {
				return err
			}
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeSpans(filepath.Join(outDir, s.name+".trace.jsonl"), rec.spans); err != nil {
		return err
	}
	r.set("trace.overhead_pct", 100*paired(traced.opUS, plain.opUS)/median(plain.opUS), "%")

	cs := summarize(mem.commitUS)
	r.set("adb.commit_p50_us", cs.P50, "us")
	r.set("adb.commit_p99_us", cs.Tail, "us")
	r.set("adb.eval_steps_per_commit", float64(mem.eng.EvalSteps()-mem.steps0)/float64(n), "count")
	r.set("adb.allocs_per_commit", float64(mallocs)/float64(n), "count")
	r.set("adb.bytes_per_commit", float64(allocated)/float64(n), "B")
	r.set("adb.rejects", float64(mem.rejects), "count")
	r.set("load.firings_per_commit", float64(len(mem.eng.Firings()))/float64(n), "count")
	seqCommit := median(seq.commitUS)
	constraintUS := 0.0
	if bare != nil {
		constraintUS = paired(seq.commitUS, bare.commitUS)
	}
	r.set("adb.constraint_us", constraintUS, "us")

	// Each hop's self time, per call and per op (a hop may run several
	// times in an op, or in some ops only). The blocking path of an op is
	// its root span; what no named hop covers is the root's own self time.
	self := selfTimes(rec.spans)
	perCall := map[string][]float64{}
	perOp := map[string][]float64{}
	path := make([]float64, n)
	var rootUS, unattributed float64
	for i, sp := range rec.spans {
		us := float64(self[i]) / 1e3
		if sp.Name == "op" {
			rootUS += float64(sp.End-sp.Start) / 1e3
			unattributed += us
			continue
		}
		perCall[sp.Name] = append(perCall[sp.Name], us)
		if perOp[sp.Name] == nil {
			perOp[sp.Name] = make([]float64, n)
		}
		perOp[sp.Name][sp.Trace-1] += us
		path[sp.Trace-1] += us
	}
	r.set("trace.unattributed_pct", 100*unattributed/rootUS, "%")
	ladderSum := median(path)
	r.set("trace.ladder_sum_us", ladderSum, "us")
	r.set("client.encode_us", median(perCall["client.encode"]), "us")
	r.set("wire.decode_us", median(perCall["wire.decode"]), "us")
	r.set("wire.reply_us", median(perCall["wire.reply"]), "us")
	r.set("wire.firing_encode_us", median(perCall["server.fanout"]), "us")
	r.set("persist.write_us", median(perCall["persist.write"]), "us")
	hops := ""
	for _, name := range []string{"client.encode", "wire.decode", "adb.commit", "persist.write", "server.fanout", "wire.reply"} {
		if perOp[name] != nil {
			hops += fmt.Sprintf(" %s %.1f", name, median(perOp[name]))
		}
	}
	r.note("ladder: median op %.1f us over %d ops; median per op of each hop's self time, us:%s", ladderSum, n, hops)
	r.note("median commit: %.1f us on the memory engine as deployed, %.1f us at Workers: 1", median(mem.commitUS), seqCommit)
	reqBytes := 0.0
	for _, sp := range rec.spans {
		if sp.Name == "client.encode" {
			reqBytes = float64(sp.Bytes)
		}
	}
	r.set("client.req_bytes", reqBytes, "B")
	jsonUS, jsonBytes, err := jsonEncode(s, ops)
	if err != nil {
		return err
	}
	r.set("client.encode_json_us", jsonUS, "us")
	r.set("client.req_json_bytes", jsonBytes, "B")
	if err := firingWriteRung(s, traced.eng.Firings(), r); err != nil {
		return err
	}

	// persist.encode is the part of a durable commit that is neither the
	// engine's own work (the memory pass) nor the stamped write: the record
	// encode, which no public hook brackets.
	encodeUS, stallUS, snapBytes, fsyncUS := 0.0, 0.0, 0.0, 0.0
	if durable {
		net := make([]float64, n)
		for i := range net {
			net[i] = plain.commitUS[i] - plain.writeUS[i]
		}
		encodeUS = paired(net, mem.commitUS)
		if fsyncUS, err = fsyncRung(s, w, ops, root); err != nil {
			return err
		}
	}
	if s.deploy == servedDurable {
		// What a commit that triggers a checkpoint waits for, fsyncs of the
		// snapshot included.
		t0 := time.Now()
		if err := traced.eng.Checkpoint(); err != nil {
			return err
		}
		stallUS = float64(time.Since(t0)) / 1e3
		st, err := traced.eng.Storage()
		if err != nil {
			return err
		}
		snapBytes = float64(st.SnapshotBytes) / float64(st.Snapshots)
	}
	r.set("persist.encode_us", encodeUS, "us")
	r.set("persist.fsync_us", fsyncUS, "us")
	r.set("persist.checkpoint_stall_us", stallUS, "us")
	r.set("persist.snapshot_bytes", snapBytes, "B")

	if err := replicaRung(s, traced, n, root, r); err != nil {
		return err
	}
	ss := summarize(rung.stepUS)
	r.set("core.step_p50_us", ss.P50, "us")
	r.set("core.step_p99_us", ss.Tail, "us")
	r.set("core.state_nodes_peak", float64(rung.peak), "count")
	// The share of a commit's work: each commit's sweep over the commit,
	// scaled from the rules stepped here to the engine's own steps per commit
	// (of a large rule table only a sample is stepped).
	stepsPerCommit := float64(seq.eng.EvalSteps()-seq.steps0) / float64(n)
	coreShare := 100 * median(coreShares) * stepsPerCommit / float64(len(rung.rules))
	r.set("core.share_of_commit_pct", coreShare, "%")
	stateBuildRung(mem.eng.DB(), ops, r)
	compactRung(mem.eng, r)
	if err := servedProbes(s, w, ops, ladderSum, root, r); err != nil {
		return err
	}
	dominance(s, r, coreShare, 100*constraintUS/seqCommit, 100*median(perOp["server.fanout"])/median(perOp["adb.commit"]))
	return nil
}

func hasConstraints(w *gen.Workload) bool {
	for _, rule := range w.Rules {
		if rule.Constraint {
			return true
		}
	}
	return false
}

// timeRuleTable prices rule registration: parse and check per rule, then
// the engine's own add (on an empty engine; the cost does not depend on the
// database).
func timeRuleTable(w *gen.Workload, r *report) {
	reg := query.NewRegistry()
	eng := adb.NewEngine(adb.Config{})
	var parseUS, addUS []float64
	for _, rule := range w.Rules {
		t0 := time.Now()
		f, err := ptl.Parse(rule.Cond)
		if err == nil {
			_, err = ptl.Check(f, reg)
		}
		parseUS = append(parseUS, float64(time.Since(t0))/1e3)
		if err != nil {
			r.mismatch("rule %s: %v", rule.Name, err)
			continue
		}
		t0 = time.Now()
		if rule.Constraint {
			err = eng.AddConstraint(rule.Name, rule.Cond, adb.WithScheduling(rule.Sched))
		} else {
			err = eng.AddTrigger(rule.Name, rule.Cond, nil, adb.WithScheduling(rule.Sched))
		}
		addUS = append(addUS, float64(time.Since(t0))/1e3)
		if err != nil {
			r.mismatch("rule %s: %v", rule.Name, err)
		}
	}
	r.set("ptl.parse_check_us", median(parseUS), "us")
	r.set("adb.rule_add_us", median(addUS), "us")
}

// jsonEncode prices the JSON codec on the first ops, for comparison with
// the binary one the ladder uses.
func jsonEncode(s spec, ops []gen.Op) (us, size float64, err error) {
	if !s.deploy.served() {
		return 0, 0, nil
	}
	if len(ops) > 500 {
		ops = ops[:500]
	}
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, wire.CodecJSON)
	var samples []float64
	for i, op := range ops {
		t0 := time.Now()
		encU, err := histio.EncodeItems(op.Updates)
		if err != nil {
			return 0, 0, err
		}
		encE, err := histio.EncodeEvents(op.Events)
		if err != nil {
			return 0, 0, err
		}
		buf.Reset()
		if err := fw.Write(&wire.Msg{T: wire.TypeTxn, ID: uint64(i + 1), TS: op.TS, Updates: encU, Events: encE}); err != nil {
			return 0, 0, err
		}
		samples = append(samples, float64(time.Since(t0))/1e3)
	}
	return median(samples), float64(buf.Len()), nil
}

// coreRung steps the rule table's conditions, compiled as the engine
// compiles them (core.CompileAuto), over the states a sequential pass of the
// ladder commits, one sweep per state right after the commit that made it:
// commit and sweep see the same box, so the ratio of the two is the
// evaluator's share of a commit's work.
type coreRung struct {
	rules   []gen.Rule
	evs     []compiledRule
	clockUS float64 // what an empty timed pair costs, taken off every step
	next    int     // the next state of the history to step
	changed map[string]bool
	stepUS  []float64
	peak    int
}

type compiledRule struct {
	ev      core.ConditionEvaluator
	hinted  core.HintedEvaluator
	general *core.Evaluator
	items   []string // nil when the engine could give the rule no hint
}

// newCoreRung compiles the first coreRules rules of the table.
func newCoreRung(w *gen.Workload) (*coreRung, error) {
	c := &coreRung{rules: w.Rules, changed: map[string]bool{}}
	if len(c.rules) > coreRules {
		c.rules = c.rules[:coreRules]
	}
	// A fast-path step takes a few hundred nanoseconds, the same order as
	// reading the clock twice.
	var empty []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		empty = append(empty, float64(time.Since(t0))/1e3)
	}
	c.clockUS = median(empty)
	reg := query.NewRegistry()
	for _, rule := range c.rules {
		f, err := ptl.Parse(rule.Cond)
		if err != nil {
			return nil, err
		}
		if rule.Constraint {
			f = &ptl.Not{F: f}
		}
		info, err := ptl.Check(f, reg)
		if err != nil {
			return nil, err
		}
		ev, err := core.CompileAuto(info, reg, ptl.NoExecutions{})
		if err != nil {
			return nil, err
		}
		cr := compiledRule{ev: ev}
		cr.general, _ = ev.(*core.Evaluator)
		cr.hinted, _ = ev.(core.HintedEvaluator)
		fp, err := adb.ConditionFootprint(rule.Cond, reg)
		if err != nil {
			return nil, err
		}
		if fp.Analyzable && cr.hinted != nil {
			cr.items = append([]string{}, fp.Items...)
		}
		c.evs = append(c.evs, cr)
	}
	return c, nil
}

// catchUp sweeps every state of hist not yet stepped (the first coreStates
// only) and returns what the last sweep's steps took, in microseconds; ok
// is false when there was no new state.
func (c *coreRung) catchUp(hist *history.History) (sweepUS float64, ok bool, err error) {
	for ; c.next < hist.Len() && c.next < coreStates; c.next++ {
		st := hist.At(c.next)
		// The engine tells an evaluator when a state left its rule's items
		// untouched, so that it keeps its query results; the rung works the
		// same hint out from the states themselves.
		for name := range c.changed {
			delete(c.changed, name)
		}
		if c.next > 0 {
			st.DB.Diff(hist.At(c.next-1).DB, func(name string) bool {
				c.changed[name] = true
				return true
			})
		}
		sweepUS, ok = 0, true
		for k, cr := range c.evs {
			clean := c.next > 0 && cr.items != nil
			for _, item := range cr.items {
				clean = clean && !c.changed[item]
			}
			t0 := time.Now()
			if clean {
				_, err = cr.hinted.StepResultHinted(st, true)
			} else {
				_, err = cr.ev.StepResult(st)
			}
			us := float64(time.Since(t0))/1e3 - c.clockUS
			if err != nil {
				return 0, false, fmt.Errorf("core rung: rule %s state %d: %w", c.rules[k].Name, c.next, err)
			}
			if us < 0 {
				us = 0
			}
			c.stepUS = append(c.stepUS, us)
			sweepUS += us
			if cr.general != nil {
				if size := cr.general.StateSize(); size > c.peak {
					c.peak = size
				}
			}
		}
	}
	return sweepUS, ok, nil
}

// firingWriteRung times what the session's writer does for one pushed
// firing, off the commit's blocking path: the frame write of the encoded
// firing.
func firingWriteRung(s spec, firings []adb.Firing, r *report) error {
	if len(firings) > 2000 {
		firings = firings[:2000]
	}
	var buf bytes.Buffer
	fw := wire.NewFrameWriter(&buf, wire.CodecBinary)
	var us []float64
	if s.deploy.served() {
		for seq, f := range firings {
			fj, err := wire.EncodeFiring(f, seq)
			if err != nil {
				return err
			}
			buf.Reset()
			t0 := time.Now()
			if err := fw.Write(&wire.Msg{T: wire.TypeFiring, Firing: &fj}); err != nil {
				return err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	r.set("wire.firing_write_us", median(us), "us")
	r.set("wire.firing_bytes", float64(buf.Len()), "B")
	return nil
}

// stateBuildRung times the persistent database's path-copying update at
// the workload's database size.
func stateBuildRung(db history.DBState, ops []gen.Op, r *report) {
	if len(ops) > 2000 {
		ops = ops[:2000]
	}
	var us []float64
	for _, op := range ops {
		t0 := time.Now()
		db = db.WithAll(op.Updates)
		us = append(us, float64(time.Since(t0))/1e3)
	}
	r.set("history.state_build_us", median(us), "us")
}

// compactRung times Compact on the uncompacted memory engine and prices a
// retained state by the live heap it frees.
func compactRung(eng *adb.Engine, r *report) {
	before := heapLiveMB()
	t0 := time.Now()
	dropped := eng.Compact()
	took := time.Since(t0)
	after := heapLiveMB()
	r.set("adb.compact_us", float64(took)/1e3, "us")
	perState := 0.0
	if dropped > 0 {
		perState = (before - after) * 1e6 / float64(dropped)
	}
	r.set("adb.heap_per_state_bytes", perState, "B")
}

// fsyncRung prices the one thing the ladder leaves out: it commits the ops
// on a durable engine with fsync on, for at most a second and a half (a
// slow stretch of the box can stretch an fsync to tens of milliseconds), and
// returns the median time between the failpoint consulted before the fsync
// and the flush hook that follows it.
func fsyncRung(s spec, w *gen.Workload, ops []gen.Op, root string) (float64, error) {
	dir, err := os.MkdirTemp(root, "fsync")
	if err != nil {
		return 0, err
	}
	eng, err := newEngine(w, engineConfig(w, s.deploy, true), dir, true)
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	var tSync time.Time
	var us []float64
	eng.SetWALFailpoint(func(op string, lsn int64) error {
		if op == "sync" {
			tSync = time.Now()
		}
		return nil
	})
	eng.WALFlushHook(func([]byte, int64, int64) { us = append(us, float64(time.Since(tSync))/1e3) })
	for start := time.Now(); len(us) < len(ops) && time.Since(start) < 1500*time.Millisecond; {
		op := ops[len(us)]
		if err := eng.ExecTxn(op.TS, op.Updates, nil, op.Events...); err != nil {
			return 0, err
		}
	}
	return median(us), nil
}

// replicaRung feeds the durable pass's log to a fresh follower one record
// at a time, as the live stream does, timing ApplyFrames directly.
func replicaRung(s spec, p *ladderPass, commits int, root string, r *report) error {
	if s.deploy != servedReplica {
		r.set("replica.apply_us_per_record", 0, "us")
		r.set("replica.ship_bytes_per_commit", 0, "B")
		return nil
	}
	chunks, err := p.eng.WALReadFrom(1, 1)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "follower")
	if err != nil {
		return err
	}
	fol, err := adb.OpenFollower(adb.Config{NoFsync: true}, dir)
	if err != nil {
		return err
	}
	defer fol.Close()
	var us []float64
	shipped := 0
	for _, c := range chunks {
		t0 := time.Now()
		applied, err := fol.ApplyFrames(c.Data, 0)
		if err != nil {
			return err
		}
		if applied > 0 {
			us = append(us, float64(time.Since(t0))/1e3/float64(applied))
		}
		shipped += len(c.Data)
	}
	r.set("replica.apply_us_per_record", median(us), "us")
	r.set("replica.ship_bytes_per_commit", float64(shipped)/float64(commits), "B")
	return nil
}

// dominance checks that the workload still stresses the layer its row
// names. A failed assertion does not make the outputs wrong; it says the
// workload has stopped measuring what it was built to measure.
func dominance(s spec, r *report, coreShare, constraintShare, encodeShare float64) {
	ok := true
	assert := func(holds bool, format string, args ...any) {
		verdict := "holds"
		if !holds {
			verdict, ok = "FAILS", false
		}
		r.note("dominance %s: "+format, append([]any{verdict}, args...)...)
	}
	switch s.name {
	case "temporal-dense":
		assert(coreShare >= 70, "core is %.0f%% of the sequential commit (>= 70%%)", coreShare)
	case "sparse-static":
		steps := r.metrics["adb.eval_steps_per_commit"]
		assert(steps < 5, "%.2f evaluator steps per commit (< 5)", steps)
	case "sparse-temporal":
		steps := r.metrics["adb.eval_steps_per_commit"]
		assert(steps >= 1900, "%.0f evaluator steps per commit (>= 1900)", steps)
	case "constraint-gate":
		assert(constraintShare >= 60, "constraints are %.0f%% of the sequential commit (>= 60%%)", constraintShare)
	case "durable-served":
		// What turning fsync on adds to the served commit: the fsync and the
		// pipeline goroutine's way back onto a processor after it.
		on, off := r.metrics["server.durable_commit_us"], r.metrics["server.sync_commit_us"]
		assert(100*(on-off)/on >= 50, "fsync is %.0f%% of the synchronous commit with fsync on, %.1f of %.1f us (>= 50%%); the fsync alone, stamped in process, takes %.1f us",
			100*(on-off)/on, on-off, on, r.metrics["persist.fsync_us"])
	case "firing-stream":
		// Fan-out is work on both ends of connection 2 (encode, queue, push
		// frames, the client's decode and delivery), most of it off the
		// pipeline goroutine: its share is taken in processor time, served
		// commit with the subscriber against without. It reads 45 to 75 % at
		// the seed commit; the threshold leaves room for the box's noise.
		share := r.metrics["server.fanout_cpu_pct"]
		assert(share >= 25, "delivering the firings is %.0f%% of a pipelined commit's processor time (>= 25%%); the firing encode is %.0f%% of the commit on the pipeline goroutine",
			share, encodeShare)
	}
	v := 1.0
	if !ok {
		v = 0
	}
	r.set("trace.dominance_ok", v, "count")
}

// probed is what one served probe measured.
type probed struct {
	rttUS, commitUS []float64
	cpuPerCommit    float64 // us of processor time per pipelined commit
	pipelinedPerS   float64 // pipelined commits per second of wall clock
}

// probe deploys the workload and measures what the ladder cannot nest: the
// idle round trip, the back-to-back synchronous (one in flight) commit over
// the first half of ops, and a window of commits in flight over the second,
// the clocks stopped once the subscriber (if any) holds every firing.
func probe(s spec, w *gen.Workload, ops []gen.Op, root string, subscribe, fsync bool) (probed, error) {
	var out probed
	dir, err := os.MkdirTemp(root, "probe")
	if err != nil {
		return out, err
	}
	sys, err := deploy(s, w, dir, subscribe, fsync)
	if err != nil {
		return out, err
	}
	defer sys.close(false)
	var delivered atomic.Int64
	if subscribe {
		go func() {
			for range sys.sub.C { // ends when close shuts the connection
				delivered.Add(1)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		t0 := time.Now()
		if err := sys.commit.Ping(); err != nil {
			return out, err
		}
		out.rttUS = append(out.rttUS, float64(time.Since(t0))/1e3)
	}
	half := len(ops) / 2
	for _, op := range ops[:half] {
		t0 := time.Now()
		if _, err := buildTxn(sys.commit, op).Commit(); err != nil {
			return out, err
		}
		out.commitUS = append(out.commitUS, float64(time.Since(t0))/1e3)
	}
	c0, t0 := cpuTime(), time.Now()
	pending := make([]*client.Pending, 0, window)
	for _, op := range ops[half:] {
		if len(pending) == window {
			if _, err := pending[0].Wait(); err != nil {
				return out, err
			}
			pending = pending[1:]
		}
		pending = append(pending, buildTxn(sys.commit, op).Go())
	}
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			return out, err
		}
	}
	if subscribe {
		want := int64(len(sys.eng.Firings()))
		for deadline := time.Now().Add(10 * time.Second); delivered.Load() < want && time.Now().Before(deadline); {
			time.Sleep(100 * time.Microsecond)
		}
	}
	pipelined := float64(len(ops) - half)
	out.cpuPerCommit = float64(cpuTime()-c0) / 1e3 / pipelined
	out.pipelinedPerS = pipelined / time.Since(t0).Seconds()
	return out, nil
}

// servedProbes sets the figures of the served deployment beside the
// ladder's. The synchronous commit minus the ladder's hops is what the
// sockets and the goroutine hand-offs between them cost, most of which the
// idle round trip shows. It reads negative where the ladder's engine, alone
// in a quiet process, pays more for its worker pool (a sleeping processor
// woken per commit) than the served engine beside busy session goroutines
// does. The difference a subscriber makes is what delivering the firings
// costs, on both ends of connection 2. The durable deployments are probed
// once more with fsync on, as adbserverd runs.
func servedProbes(s spec, w *gen.Workload, ops []gen.Op, ladderSum float64, root string, r *report) error {
	if !s.deploy.served() {
		for _, name := range []string{"server.rtt_us", "server.sync_commit_us", "server.commit_overhead_us", "server.durable_commit_us",
			"server.pipelined_commits_per_s", "server.fanout_us_per_firing", "server.fanout_cpu_pct"} {
			r.set(name, 0, "us")
		}
		return nil
	}
	with, err := probe(s, w, ops, root, true, false)
	if err != nil {
		return err
	}
	without, err := probe(s, w, ops, root, false, false)
	if err != nil {
		return err
	}
	deployed, durableUS := with, 0.0
	if s.deploy.durable() {
		if deployed, err = probe(s, w, ops, root, true, true); err != nil {
			return err
		}
		durableUS = median(deployed.commitUS)
	}
	rtt, commit := median(with.rttUS), median(with.commitUS)
	r.set("server.rtt_us", rtt, "us")
	r.set("server.sync_commit_us", commit, "us")
	r.set("server.commit_overhead_us", commit-ladderSum, "us")
	r.set("server.durable_commit_us", durableUS, "us")
	r.set("server.pipelined_commits_per_s", deployed.pipelinedPerS, "1/s")
	perFiring := 0.0
	if f := r.metrics["load.firings_per_commit"]; f >= 1 {
		perFiring = (commit - median(without.commitUS)) / f
	}
	r.set("server.fanout_us_per_firing", perFiring, "us")
	r.set("server.fanout_cpu_pct", 100*(with.cpuPerCommit-without.cpuPerCommit)/with.cpuPerCommit, "%")
	r.note("synchronous served commit %.1f us (end-to-end row: %.1f us); ladder hops %.1f us + idle round trip %.1f us = %.1f us, %+.0f%% of it",
		commit, r.metrics["commit_p50_us"], ladderSum, rtt, ladderSum+rtt, 100*(ladderSum+rtt-commit)/commit)
	r.note("pipelined served commit: %.1f us of processor time with the subscriber, %.1f us without; %.0f commits/s deployed as adbserverd runs",
		with.cpuPerCommit, without.cpuPerCommit, deployed.pipelinedPerS)
	return nil
}
