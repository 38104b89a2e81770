package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/bench/gen"
	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// verifyOps bounds the reference replay of a served run: the firing
// streams are compared over the first verifyOps commits, the database over
// all of them (the generator's own model is the reference there).
const verifyOps = 10000

// streamDigest hashes a firing stream incrementally, so a subscriber can
// fold each firing in as it arrives and keep nothing.
type streamDigest struct {
	h hash.Hash64
	n int
}

func newStreamDigest() *streamDigest { return &streamDigest{h: fnv.New64a()} }

func (d *streamDigest) add(f adb.Firing) {
	var keys [4]string
	names := keys[:0]
	for k := range f.Binding {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(d.h, "%s|%d|%d", f.Rule, f.Time, f.StateIndex)
	for _, k := range names {
		fmt.Fprintf(d.h, "|%s=%s", k, f.Binding[k].Key())
	}
	d.h.Write([]byte{'\n'})
	d.n++
}

func (d *streamDigest) String() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.n) }

// digestUpTo hashes the firings with commit time <= limit.
func digestUpTo(fs []adb.Firing, limit int64) string {
	d := newStreamDigest()
	for _, f := range fs {
		if f.Time <= limit {
			d.add(f)
		}
	}
	return d.String()
}

// watcher drains the subscription on connection 2: it stamps each firing's
// arrival, folds it into the stream digest and counts gaps.
type watcher struct {
	epoch time.Time
	limit int64 // firings up to this commit time enter the digest

	mu     sync.Mutex
	ts     []int64 // commit time of each firing received
	at     []int64 // arrival, ns since epoch
	digest *streamDigest
	gaps   int
	count  atomic.Int64
	done   chan struct{}
	// lastTS is the commit time of the newest firing received, and arrived
	// is signalled at every arrival, for a committer that waits for its
	// commit's firings before it sends the next.
	lastTS  atomic.Int64
	arrived chan struct{}
}

func startWatcher(sub *client.Subscription, epoch time.Time, limit int64) *watcher {
	wt := &watcher{epoch: epoch, limit: limit, digest: newStreamDigest(), done: make(chan struct{}), arrived: make(chan struct{}, 1)}
	go func() {
		defer close(wt.done)
		for ev := range sub.C {
			now := int64(time.Since(epoch))
			wt.mu.Lock()
			if ev.Gap > 0 {
				wt.gaps += ev.Gap
			} else {
				wt.ts = append(wt.ts, ev.Firing.Time)
				wt.at = append(wt.at, now)
				if ev.Firing.Time <= wt.limit {
					wt.digest.add(ev.Firing)
				}
			}
			wt.mu.Unlock()
			wt.count.Add(int64(1 + ev.Gap))
			if ev.Gap == 0 {
				wt.lastTS.Store(ev.Firing.Time)
			}
			select {
			case wt.arrived <- struct{}{}:
			default:
			}
		}
	}()
	return wt
}

// waitForTS blocks until a firing of the commit at time ts (or a later one)
// has arrived.
func (wt *watcher) waitForTS(ts int64, timeout time.Duration) bool {
	if wt.lastTS.Load() >= ts {
		return true
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for wt.lastTS.Load() < ts {
		select {
		case <-wt.arrived:
		case <-deadline.C:
			return false
		}
	}
	return true
}

// waitFor blocks until n firings (or gap-counted losses) have arrived.
func (wt *watcher) waitFor(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for wt.count.Load() < int64(n) {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// committer drives connection 1 with a window of commits in flight: sent
// transactions go to a collector that takes them in send order, waits for
// each one's reply and (where every commit fires) for its firings to reach
// connection 2, and frees its place in the window.
type committer struct {
	c     *client.Client
	r     *report
	model map[string]value.Value // the database the acknowledged commits add up to
	// fired, when set, blocks until connection 2 holds a firing of the commit
	// at the given time.
	fired func(ts int64) bool

	inflight chan sent
	wg       sync.WaitGroup
	sem      chan struct{} // the window
}

type sent struct {
	op gen.Op
	p  *client.Pending
}

func (cm *committer) begin(sem chan struct{}) {
	cm.sem = sem
	cm.inflight = make(chan sent, cap(sem))
	cm.wg.Add(1)
	go func() {
		defer cm.wg.Done()
		for s := range cm.inflight {
			_, err := s.p.Wait()
			cm.r.attempted++
			checkOutcome(s.op, err, cm.r)
			if err == nil && cm.fired != nil && !cm.fired(s.op.TS) {
				cm.r.mismatch("no firing of the commit at time %d reached the subscriber", s.op.TS)
				cm.fired = nil // the run is incorrect; do not wait out every op after it
			}
			<-cm.sem
		}
	}()
}

// txn builds the client transaction for an op and books its updates on
// the model (no served workload has refusing constraints).
func (cm *committer) txn(op gen.Op) *client.Txn {
	for k, v := range op.Updates {
		cm.model[k] = v
	}
	return buildTxn(cm.c, op)
}

func buildTxn(c *client.Client, op gen.Op) *client.Txn {
	t := c.Txn().At(op.TS)
	for k, v := range op.Updates {
		t.Set(k, v)
	}
	return t.Emit(op.Events...)
}

func (cm *committer) send(op gen.Op) {
	cm.inflight <- sent{op: op, p: cm.txn(op).Go()}
}

// end waits for every op in flight.
func (cm *committer) end() {
	close(cm.inflight)
	cm.wg.Wait()
}

// remoteReads is a query load over connection 2, paced at `rate` queries a
// second until stopped: six clock reads, three firing-log tails and one
// whole-database read in ten. Each query is timed by itself.
type remoteReads struct {
	mu   sync.Mutex // held while a query is in flight
	us   []float64
	errs int
	quit chan struct{}
	wg   sync.WaitGroup
}

func startRemoteReads(c *client.Client, rate float64) *remoteReads {
	rr := &remoteReads{quit: make(chan struct{})}
	rr.wg.Add(1)
	go func() {
		defer rr.wg.Done()
		tail := 0
		interval := time.Duration(float64(time.Second) / rate)
		for i := 0; ; i++ {
			select {
			case <-rr.quit:
				return
			default:
			}
			rr.mu.Lock()
			t0 := time.Now()
			var err error
			switch i % 10 {
			case 9:
				_, err = c.DB()
			case 6, 7, 8:
				var fs []adb.Firing
				fs, err = c.Firings(tail)
				tail += len(fs)
			default:
				_, err = c.Now()
			}
			took := time.Since(t0)
			rr.mu.Unlock()
			rr.us = append(rr.us, float64(took)/1e3)
			if err != nil {
				rr.errs++
			}
			if took < interval {
				time.Sleep(interval - took) // overshoots by up to a millisecond, which a pace of queries can bear
			}
		}
	}()
	return rr
}

// stop ends the load and books it on the report.
func (rr *remoteReads) stop(r *report) {
	close(rr.quit)
	rr.wg.Wait()
	r.attempted += len(rr.us)
	r.failed += rr.errs
}

// lastFiringAt returns, for the n ops committed at times firstTS,
// firstTS+1, ..., when connection 2 held the last of each op's firings
// (nanoseconds since the epoch; 0 for an op that fired nothing).
func (wt *watcher) lastFiringAt(firstTS int64, n int) []int64 {
	last := make([]int64, n)
	wt.mu.Lock()
	defer wt.mu.Unlock()
	for j, ts := range wt.ts {
		if i := int(ts - firstTS); i >= 0 && i < n && wt.at[j] > last[i] {
			last[i] = wt.at[j]
		}
	}
	return last
}

// runServed is the end-to-end run of a served workload. Half of `seconds`
// goes to a closed loop with one commit (and its firings' delivery) in
// flight, which gives the latency of a commit and of event to action; the
// other half to a closed loop with a window of commits in flight, which
// gives throughput. A latency is one call's wall time, so a call the box
// interrupts is one sample of many; throughput is commits over the wall
// time of its phase.
func runServed(s spec, seed int64, seconds float64, root string) (*report, error) {
	r := newReport(s.name)
	w, err := gen.New(s.name, seed)
	if err != nil {
		return nil, err
	}
	sys, setup, err := timedSetup(s, w, root)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup, "s")
	epoch := time.Now()
	wt := startWatcher(sys.sub, epoch, verifyOps)
	// shutdown stops the deployment and waits for the watcher, whose
	// subscription ends with connection 2.
	closed := false
	shutdown := func(abandon bool) {
		if !closed {
			closed = true
			sys.close(abandon)
			<-wt.done
		}
	}
	defer shutdown(false)
	cm := &committer{c: sys.commit, r: r, model: map[string]value.Value{}}
	for k, v := range w.Initial {
		cm.model[k] = v
	}
	// Served workloads commit op i at time i+1, so an op's stamps live at
	// index TS-1.
	var sentAt, replyAt []int64
	syncCommit := func(op gen.Op) {
		t0 := int64(time.Since(epoch))
		_, err := cm.txn(op).Commit()
		sentAt, replyAt = append(sentAt, t0), append(replyAt, int64(time.Since(epoch)))
		r.attempted++
		checkOutcome(op, err, r)
	}
	// settle waits until connection 2 holds every firing the engine made.
	settle := func(after string) int {
		n := len(sys.eng.Firings())
		if !wt.waitFor(n, 30*time.Second) {
			r.mismatch("subscriber holds %d of %d firings after %s", wt.count.Load(), n, after)
		}
		return n
	}

	warm := w.Take(warmOps)
	r.note("op-stream digest %s (first %d ops)", gen.Digest(warm), warmOps)
	for _, op := range warm {
		syncCommit(op)
	}

	// One event-condition-action cycle in flight, queries beside it on
	// connection 2: the next commit is sent when the reply is in and, on the
	// workloads whose every commit fires, when connection 2 holds a firing
	// of it. Nothing is scheduled, so a pause of the box costs the ops it
	// hit and no queue builds behind it; nothing idles either, so the
	// figures do not hang on what waking a sleeping processor costs; and the
	// subscriber and the follower are never saturated.
	phase := seconds / 2
	fixedAt := s.fixedOps(seconds)
	everyCommitFires := s.firings[0] >= 1
	// walPerCommit reads what the engine has handed to its log so far, per
	// commit so far: exact when read at a fixed op.
	walPerCommit := func(commits int) error {
		if !s.deploy.durable() {
			return nil
		}
		walBytes, flushes := float64(sys.walBytes.Load()), float64(sys.walFlushes.Load())
		if s.deploy == servedReplica {
			// The flush hook belongs to the shipper there; without
			// checkpoints the log on disk is every byte ever handed to it.
			st, err := sys.commit.Storage()
			if err != nil {
				return err
			}
			walBytes, flushes = float64(st.WALBytes), float64(st.LastLSN)
		}
		r.set("persist.wal_bytes_per_commit", walBytes/float64(commits), "B")
		r.set("persist.flushes_per_commit", flushes/float64(commits), "count")
		return nil
	}
	reads := startRemoteReads(sys.watch, readRate)
	n := 0
	for start := time.Now(); time.Since(start).Seconds() < phase || n < fixedAt; {
		op := w.Next()
		syncCommit(op)
		if everyCommitFires && !wt.waitForTS(op.TS, 10*time.Second) {
			r.mismatch("no firing of the commit at time %d reached the subscriber", op.TS)
			break
		}
		if n++; n == fixedAt {
			pause := time.Now()
			settle("the first commits")
			// No query in flight: a firing-log read copies the whole log, and
			// whether one is under way is a matter of timing.
			reads.mu.Lock()
			r.set("heap_live_mb", heapLiveMB(), "MB")
			reads.mu.Unlock()
			checkFiringRate(s, len(sys.eng.Firings()), warmOps+n, r)
			if err := walPerCommit(warmOps + n); err != nil {
				return nil, err
			}
			start = start.Add(time.Since(pause))
		}
	}
	reads.stop(r)
	settle("the synchronous loop")
	total := warmOps + n
	commitUS := make([]float64, n)
	for i := range commitUS {
		commitUS[i] = float64(replyAt[warmOps+i]-sentAt[warmOps+i]) / 1e3
	}
	r.setLatency("commit", commitUS)
	r.setLatency("server.read", reads.us)
	// One sample per commit that fired: when connection 2 held the last of
	// its firings.
	var fireUS, lagUS []float64
	for i, at := range wt.lastFiringAt(warmOps+1, n) {
		if at != 0 {
			fireUS = append(fireUS, float64(at-sentAt[warmOps+i])/1e3)
			lagUS = append(lagUS, float64(at-replyAt[warmOps+i])/1e3)
		}
	}
	r.setLatency("fire", fireUS)
	if s.deploy == servedReplica {
		// The follower's firing follows the primary's commit but races its
		// reply, so a lag can read slightly negative.
		r.setLatency("replica.lag", lagUS)
	}
	if s.deploy == servedDurable {
		if err := sys.checkpoint(); err != nil {
			return nil, err
		}
	}

	// A window of event-condition-action cycles in flight: a commit leaves
	// the window when its reply is in and, on the workloads whose every
	// commit fires, connection 2 holds a firing of it, so no backlog builds
	// on the subscriber's or the follower's side.
	if everyCommitFires {
		cm.fired = func(ts int64) bool { return wt.waitForTS(ts, 10*time.Second) }
	}
	sem := make(chan struct{}, window)
	cm.begin(sem)
	cpu0, start := cpuTime(), time.Now()
	sentN := 0
	for time.Since(start).Seconds() < phase {
		sem <- struct{}{}
		cm.send(w.Next())
		sentN++
	}
	cm.end()
	nfirings := settle("the closed loop")
	cpu, wall := cpuTime()-cpu0, time.Since(start)
	total += sentN
	r.set("commits_per_s", float64(sentN)/wall.Seconds(), "1/s")
	r.set("load.commits_per_cpu_s", float64(sentN)/cpu.Seconds(), "1/s")
	r.note("closed loop: %d commits in %.2f s of wall clock and %.2f s of processor time, %d firings delivered",
		sentN, wall.Seconds(), cpu.Seconds(), nfirings)

	if s.deploy == servedDurable {
		// A checkpoint and then a fixed tail of commits: recovery loads the
		// snapshot and replays exactly recoveryTail records.
		if err := sys.checkpoint(); err != nil {
			return nil, err
		}
		for i := 0; i < recoveryTail; i++ {
			op := w.Next()
			_, err := cm.txn(op).Commit()
			r.attempted++
			checkOutcome(op, err, r)
		}
		total += recoveryTail
		settle("the recovery tail")
		st, err := sys.commit.Storage()
		if err != nil {
			return nil, err
		}
		r.set("persist.disk_hot_kib", float64(st.WALBytes+st.SnapshotBytes)/1024, "KiB")
	}

	// Verification against an in-process replay of the same op order.
	limit := total
	if limit > verifyOps {
		limit = verifyOps
	}
	ref, err := replay(s.name, seed, limit)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	limitTS := int64(limit)
	want := digestUpTo(ref.Firings(), limitTS)
	wt.mu.Lock()
	got, gaps := wt.digest.String(), wt.gaps
	wt.mu.Unlock()
	if got != want {
		r.mismatch("subscribed firing stream %s, in-process replay %s", got, want)
	}
	if engd := digestUpTo(sys.eng.Firings(), limitTS); engd != want {
		r.mismatch("served engine's firing log %s, in-process replay %s", engd, want)
	}
	dropped := sys.watch.DroppedPushes()
	r.set("server.sub_gaps", float64(gaps+dropped), "count")
	if gaps+dropped > 0 {
		r.mismatch("subscription lost %d firings to gaps and %d to dropped pushes", gaps, dropped)
	}
	if db, err := sys.watch.DB(); err != nil {
		r.mismatch("database read: %v", err)
	} else if err := sameItems(db, cm.model); err != nil {
		r.mismatch("served database against the acknowledged commits: %v", err)
	}
	r.note("verified: %d firings digest-equal to the replay of %d ops, database equal over %d ops", wt.digest.n, limit, total)

	switch s.deploy {
	case servedDurable:
		shutdown(true)
		checkRecovery(s, w, sys.dir, int64(total), want, limitTS, cm.model, r)
	case servedReplica:
		checkFollowerLog(sys, r)
	}
	return r, nil
}

func sameItems(got, want map[string]value.Value) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d items against %d", len(got), len(want))
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || !g.Equal(v) {
			return fmt.Errorf("item %s: %v against %v", k, g, v)
		}
	}
	return nil
}
