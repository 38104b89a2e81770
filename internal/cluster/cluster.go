package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/query"
	"ptlactive/internal/server"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// Config configures a Front.
type Config struct {
	// Shards are the partition owners, in shard-index order. Required,
	// at least one. The front becomes their only mutator; closing the
	// front closes them.
	Shards []Shard
	// Logf, when set, receives router diagnostics.
	Logf func(format string, args ...any)
}

// fanMsg is one fan-in delivery: a shard firing (or gap), or a control
// closure to run at the merge point (barriers).
type fanMsg struct {
	shard int
	fe    server.FiringEvent
	fn    func()
}

// relayReg tracks one shared relay trigger's registration: the first rule
// needing it registers, later rules wait on done and reuse it. A failed
// registration is removed from the registry so a retry re-registers.
type relayReg struct {
	done chan struct{}
	err  error
}

// Front is the cluster router: it implements server.Backend over N
// shards, so a server.Server in front of it speaks the ordinary wire
// protocol against the whole cluster. Transactions route to the shard
// owning their items and event symbols; rules register where their
// footprint lives; the per-shard firing streams merge — in fan-in
// arrival order, preserving each shard's internal order — into one
// globally sequenced log that subscriptions and firing queries serve.
type Front struct {
	shards []Shard
	part   Partitioner
	reg    *query.Registry // the built-ins, which placement resolves read sets against
	logf   func(string, ...any)

	// mu guards ruleHomes, rulePending, relays, gapLoss, and the merged
	// firing log.
	mu        sync.Mutex
	ruleHomes map[string]int
	// rulePending reserves rule names whose registration is in flight, so
	// two concurrent GoRule calls with one name cannot both pass the
	// duplicate check; a failed registration releases the reservation.
	rulePending map[string]bool
	// relays registers shared relay triggers once per (home shard, event
	// use), keyed by the relay trigger name (which encodes both).
	relays map[string]*relayReg
	// relaySeen is, per shard, the highest firing-log Seq whose relay
	// forwarding decision has been made (-1 before any). Owned by the
	// fan-in goroutine — no lock. Shard subscriptions are at-least-once
	// (a reconnect re-delivers backlog from the resume point); the
	// watermark pins each relay occurrence to exactly one forward, so
	// redelivery cannot double-fire rules on the home shard.
	relaySeen []int
	// gapLoss counts, per shard, merged-stream entries lost to firing
	// subscription overflow. Any cross-shard relay firings inside a gap
	// were never forwarded — home-shard rules missed those occurrences —
	// so a nonzero count degrades cluster health.
	gapLoss []int
	// The merged firing log: its firings in the engine's compact form
	// (adb.FiringLog), and the gap entries between them. A firing's
	// sequence number is its index in firings plus the firings lost to the
	// gaps before it; nextSeq is the next one to assign.
	firings adb.FiringLog
	gaps    []mergedGap
	nextSeq int

	obs atomic.Pointer[func(int)]

	// replaying is set while New merges the shards' historical backlogs:
	// relay firings seen then were already forwarded (the emit is in the
	// home shard's history), so the forwarder must not double them.
	replaying atomic.Bool

	in      chan fanMsg
	fanDone chan struct{}

	// relayQ is the unbounded forward queue from the fan-in to the relay
	// forwarder goroutine: the fan-in must never block on a shard's ops
	// channel (a full channel there would deadlock against that shard's
	// pipeline trying to deliver into the fan-in).
	relayMu   sync.Mutex
	relayCond *sync.Cond
	relayQ    []relayItem
	relayStop bool
	relayDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// mergedGap is a gap entry of the merged log: n firings lost from sequence
// number seq on, merged after the first at firings.
type mergedGap struct{ at, seq, n int }

type relayItem struct {
	home int
	ev   event.Event
}

// New builds a router over the shards and starts its fan-in: every
// shard's firing log is followed from the beginning, so a router started
// over shards with history re-merges that history first.
func New(cfg Config) (*Front, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: Config.Shards is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := &Front{
		shards:      cfg.Shards,
		part:        NewPartitioner(len(cfg.Shards)),
		reg:         query.NewRegistry(),
		logf:        logf,
		ruleHomes:   map[string]int{},
		rulePending: map[string]bool{},
		relays:      map[string]*relayReg{},
		relaySeen:   make([]int, len(cfg.Shards)),
		gapLoss:     make([]int, len(cfg.Shards)),
		in:          make(chan fanMsg, 4096),
		fanDone:     make(chan struct{}),
		relayDone:   make(chan struct{}),
	}
	for i := range f.relaySeen {
		f.relaySeen[i] = -1
	}
	f.relayCond = sync.NewCond(&f.relayMu)
	f.replaying.Store(true)
	go f.fanIn()
	go f.relayForwarder()
	for i, sh := range cfg.Shards {
		i := i
		if err := sh.Follow(func(fe server.FiringEvent) {
			f.in <- fanMsg{shard: i, fe: fe}
		}); err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: follow shard %d: %w", i, err)
		}
		// Re-home rules already registered on the shard (a router restarted
		// over durable shards). Relay triggers register into the relay
		// registry as already-complete, so new rules reuse them instead of
		// tripping over duplicate names on the shard.
		rules, err := sh.Rules()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: list shard %d rules: %w", i, err)
		}
		for _, r := range rules {
			if _, _, ok := parseRelayName(r.Name); ok {
				reg := &relayReg{done: make(chan struct{})}
				close(reg.done)
				f.relays[r.Name] = reg
				continue
			}
			f.ruleHomes[r.Name] = i
		}
	}
	// Settle the historical backlogs before live traffic: for local shards
	// the barrier orders exactly after the Follow replay, so every
	// historical relay firing is seen (and skipped) while replaying is
	// still set. Remote-shard backlogs ride a subscription with no
	// completion handshake; a router restarted over remote shards with
	// history may re-forward relay occurrences (at-least-once).
	f.Barrier()
	f.replaying.Store(false)
	return f, nil
}

// Partitioner exposes the item→shard map (diagnostics and tests).
func (f *Front) Partitioner() Partitioner { return f.part }

// fanIn owns the merged log: it assigns global sequence numbers in
// arrival order (per-shard order is preserved — each shard's Follow
// delivers from one goroutine) and forwards relay firings to their home
// shards instead of exposing them to subscribers.
func (f *Front) fanIn() {
	defer close(f.fanDone)
	for msg := range f.in {
		if msg.fn != nil {
			msg.fn()
			continue
		}
		fe := msg.fe
		if fe.Gap == 0 {
			if home, use, ok := parseRelayName(fe.F.Rule); ok {
				// The watermark advances even while replaying: historical
				// relay firings were forwarded in a previous life (their
				// emits are in the home shard's log), so a later redelivery
				// of the same Seq must be skipped, not forwarded.
				if fe.Seq > f.relaySeen[msg.shard] {
					f.relaySeen[msg.shard] = fe.Seq
					if !f.replaying.Load() {
						f.enqueueRelay(home, use, fe.F)
					}
				}
				continue
			}
		}
		f.mu.Lock()
		if fe.Gap > 0 {
			// A gap means this shard's firing subscription overflowed. Any
			// relay firings inside it were never forwarded — rules homed
			// elsewhere permanently missed those occurrences — so record the
			// loss and degrade Health until the operator notices. (The gap
			// count includes relay firings that subscribers would never have
			// seen, so as a merged-stream loss figure it is an upper bound.)
			f.gapLoss[msg.shard] += fe.Gap
			f.logf("cluster: shard %d firing subscription gapped (%d lost); any cross-shard relay firings in the gap were not forwarded", msg.shard, fe.Gap)
			f.gaps = append(f.gaps, mergedGap{at: f.firings.Len(), seq: f.nextSeq, n: fe.Gap})
			f.nextSeq += fe.Gap
		} else {
			f.firings.Append(fe.F)
			f.nextSeq++
		}
		head := f.nextSeq
		f.mu.Unlock()
		if fn := f.obs.Load(); fn != nil {
			(*fn)(head)
		}
	}
}

// enqueueRelay reconstructs the remote occurrence from the relay
// trigger's binding and queues it for forwarding to the home shard named
// in the relay trigger itself, as an emit at the home's next tick. The
// relay is shared by every rule on that home observing the event, so one
// occurrence is forwarded exactly once per home shard.
func (f *Front) enqueueRelay(home int, use adb.EventUse, fir adb.Firing) {
	if home < 0 || home >= len(f.shards) {
		f.logf("cluster: relay %s: home shard %d out of range, dropping occurrence", fir.Rule, home)
		return
	}
	args := make([]value.Value, use.Arity)
	for i := range args {
		v, ok := fir.Binding[fmt.Sprintf("A%d", i)]
		if !ok {
			f.logf("cluster: relay %s: binding misses A%d, dropping occurrence", fir.Rule, i)
			return
		}
		args[i] = v
	}
	f.relayMu.Lock()
	if f.relayStop {
		f.relayMu.Unlock()
		f.logf("cluster: relay %s: router draining, dropping occurrence", fir.Rule)
		return
	}
	f.relayQ = append(f.relayQ, relayItem{home: home, ev: event.New(use.Name, args...)})
	f.relayCond.Signal()
	f.relayMu.Unlock()
}

// relayForwarder drains the relay queue in order, one emit at a time:
// each forwarded occurrence is committed on its home shard before the
// next is issued, so relayed events arrive in the order their source
// firings merged.
func (f *Front) relayForwarder() {
	defer close(f.relayDone)
	for {
		f.relayMu.Lock()
		for len(f.relayQ) == 0 && !f.relayStop {
			f.relayCond.Wait()
		}
		if len(f.relayQ) == 0 {
			f.relayMu.Unlock()
			return
		}
		item := f.relayQ[0]
		f.relayQ = f.relayQ[1:]
		f.relayMu.Unlock()
		errc := make(chan error, 1)
		f.shards[item.home].GoEmit(0, []event.Event{item.ev}, func(_ int64, err error) { errc <- err })
		if err := <-errc; err != nil {
			f.logf("cluster: forward %v to shard %d: %v", item.ev, item.home, err)
		}
	}
}

// routeKeys collects the partitioned keys of a mutation (item names and
// event symbols) and resolves the single owning shard.
func (f *Front) route(updates map[string]value.Value, deletes []string, events []event.Event) (int, error) {
	keys := make([]string, 0, len(updates)+len(deletes)+len(events))
	for k := range updates {
		keys = append(keys, k)
	}
	keys = append(keys, deletes...)
	for _, ev := range events {
		keys = append(keys, ev.Name)
	}
	return RouteKeys(f.part, keys)
}

func (f *Front) GoTxn(ts int64, updates map[string]value.Value, deletes []string,
	events []event.Event, done func(int64, error)) {
	home, err := f.route(updates, deletes, events)
	if err != nil {
		done(ts, err)
		return
	}
	f.shards[home].GoTxn(ts, updates, deletes, events, done)
}

func (f *Front) GoEmit(ts int64, events []event.Event, done func(int64, error)) {
	home, err := f.route(nil, nil, events)
	if err != nil {
		done(ts, err)
		return
	}
	f.shards[home].GoEmit(ts, events, done)
}

func (f *Front) GoRule(name, cond string, constraint bool, sched int, done func(error)) {
	if strings.HasPrefix(name, relayPrefix) {
		done(fmt.Errorf("cluster: rule name prefix %q is reserved", relayPrefix))
		return
	}
	fp, err := adb.ConditionFootprint(cond, f.reg)
	if err != nil {
		done(err)
		return
	}
	f.mu.Lock()
	if _, dup := f.ruleHomes[name]; dup || f.rulePending[name] {
		f.mu.Unlock()
		done(fmt.Errorf("cluster: rule %q already registered", name))
		return
	}
	// Reserve the name before the async fan-out: a concurrent GoRule with
	// the same name fails the check above instead of racing to register.
	f.rulePending[name] = true
	homes := make(map[string]int, len(f.ruleHomes))
	for r, h := range f.ruleHomes {
		homes[r] = h
	}
	f.mu.Unlock()
	release := func() {
		f.mu.Lock()
		delete(f.rulePending, name)
		f.mu.Unlock()
	}
	pl, err := Place(f.part, fp, constraint, homes)
	if err != nil {
		release()
		done(err)
		return
	}
	// Registration fans out: shared relay triggers on the owner shards
	// first, then the rule on its home, serially, so the rule never
	// observes a half-built relay graph. The done callback fires only when
	// all of it is registered (or the first step failed).
	go func() {
		for _, re := range pl.RemoteEvents {
			if err := f.ensureRelay(re.Shard, pl.Home, re.Use); err != nil {
				release()
				done(fmt.Errorf("cluster: relay for %s on shard %d: %w", name, re.Shard, err))
				return
			}
		}
		errc := make(chan error, 1)
		f.shards[pl.Home].GoRule(name, cond, constraint, sched, func(err error) { errc <- err })
		if err := <-errc; err != nil {
			// The relays stay registered: they are keyed by (home, event use),
			// not by this rule, may already serve other rules, and a retry of
			// this registration reuses them (engines have no rule deletion).
			// An unused relay forwards occurrences its home does not observe,
			// which is inert there.
			release()
			done(err)
			return
		}
		f.mu.Lock()
		delete(f.rulePending, name)
		f.ruleHomes[name] = pl.Home
		f.mu.Unlock()
		done(nil)
	}()
}

// ensureRelay registers the shared relay trigger forwarding an event use
// from its owner shard to a home shard, exactly once however many rules
// need it: the first caller registers, concurrent callers wait for that
// outcome, later callers reuse the live relay. On failure the entry is
// removed so a subsequent registration can retry.
func (f *Front) ensureRelay(owner, home int, use adb.EventUse) error {
	name := relayName(home, use)
	f.mu.Lock()
	if reg, ok := f.relays[name]; ok {
		f.mu.Unlock()
		<-reg.done
		return reg.err
	}
	reg := &relayReg{done: make(chan struct{})}
	f.relays[name] = reg
	f.mu.Unlock()
	errc := make(chan error, 1)
	f.shards[owner].GoRule(name, relayCondition(use), false, int(adb.Relevant),
		func(err error) { errc <- err })
	reg.err = <-errc
	if reg.err != nil {
		f.mu.Lock()
		delete(f.relays, name)
		f.mu.Unlock()
	}
	close(reg.done)
	return reg.err
}

func (f *Front) GoRevive(name string, done func(error)) {
	f.mu.Lock()
	home, known := f.ruleHomes[name]
	f.mu.Unlock()
	if !known {
		done(fmt.Errorf("cluster: rule %q is not registered", name))
		return
	}
	f.shards[home].GoRevive(name, done)
}

func (f *Front) OnHead(fn func(head int)) (cancel func()) {
	f.obs.Store(&fn)
	return func() { f.obs.CompareAndSwap(&fn, nil) }
}

// Firings clamps from and returns at most limit entries of the merged log
// covering sequence numbers >= from (a gap entry is included when any of
// its lost range is covered).
func (f *Front) Firings(from, limit int) (int, []server.FiringEvent, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > f.nextSeq {
		from = f.nextSeq
	}
	// Skip the gaps wholly before from; lost counts the firings they lost.
	j, lost := 0, 0
	for j < len(f.gaps) && f.gaps[j].seq+f.gaps[j].n <= from {
		lost += f.gaps[j].n
		j++
	}
	// The first firing at or after from: past gap j-1, firing k has
	// sequence number k+lost, and a from inside gap j starts at that gap.
	k := from - lost
	if j < len(f.gaps) {
		k = min(k, f.gaps[j].at)
	}
	var backlog []server.FiringEvent
	for seq := k + lost; len(backlog) < limit && (k < f.firings.Len() || j < len(f.gaps)); {
		if j < len(f.gaps) && f.gaps[j].at == k {
			g := f.gaps[j]
			backlog = append(backlog, server.FiringEvent{Seq: g.seq, Gap: g.n})
			seq = g.seq + g.n
			j++
			continue
		}
		backlog = append(backlog, server.FiringEvent{F: f.firings.At(k), Seq: seq})
		k++
		seq++
	}
	return from, backlog, nil
}

// Now reports the maximum shard clock. A shard whose clock read fails
// (broken remote connection) is logged and skipped rather than silently
// contributing 0.
func (f *Front) Now() int64 {
	var max int64
	for i, sh := range f.shards {
		ts, err := sh.Now()
		if err != nil {
			f.logf("cluster: shard %d clock read failed: %v", i, err)
			continue
		}
		if ts > max {
			max = ts
		}
	}
	return max
}

func (f *Front) Items() (map[string]value.Value, error) {
	out := map[string]value.Value{}
	for i, sh := range f.shards {
		items, err := sh.Items()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		for k, v := range items {
			out[k] = v
		}
	}
	return out, nil
}

// Rules lists every user rule across the shards, sorted by name (the
// registration interleaving across shards is not a meaningful order);
// router-internal relay triggers are hidden.
func (f *Front) Rules() ([]wire.RuleJSON, error) {
	var out []wire.RuleJSON
	for i, sh := range f.shards {
		rules, err := sh.Rules()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		for _, r := range rules {
			if strings.HasPrefix(r.Name, relayPrefix) {
				continue
			}
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Health concatenates per-rule health across shards (relays hidden) and
// joins the degraded causes: the cluster reports degraded when any shard
// is, naming the shard.
func (f *Front) Health() ([]wire.HealthJSON, string, error) {
	var out []wire.HealthJSON
	var degraded []string
	for i, sh := range f.shards {
		h, d, err := sh.Health()
		if err != nil {
			return nil, "", fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		for _, hj := range h {
			if strings.HasPrefix(hj.Rule, relayPrefix) {
				continue
			}
			out = append(out, hj)
		}
		if d != "" {
			degraded = append(degraded, fmt.Sprintf("shard %d: %s", i, d))
		}
	}
	f.mu.Lock()
	for i, n := range f.gapLoss {
		if n > 0 {
			degraded = append(degraded, fmt.Sprintf(
				"shard %d: firing subscription gapped (%d entries lost; cross-shard relay firings in the gap were not forwarded)", i, n))
		}
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out, strings.Join(degraded, "; "), nil
}

// Storage sums the shards' footprints: sizes and counts add; HeadLSN and
// LastLSN report the max across shards (per-shard positions are
// independent sequences).
func (f *Front) Storage() (wire.StorageJSON, error) {
	var out wire.StorageJSON
	for i, sh := range f.shards {
		st, err := sh.Storage()
		if err != nil {
			return wire.StorageJSON{}, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
		out.Segments += st.Segments
		out.WALBytes += st.WALBytes
		out.Snapshots += st.Snapshots
		out.SnapshotBytes += st.SnapshotBytes
		if st.HeadLSN > out.HeadLSN {
			out.HeadLSN = st.HeadLSN
		}
		if st.LastLSN > out.LastLSN {
			out.LastLSN = st.LastLSN
		}
	}
	return out, nil
}

// Barrier waits for every shard's submitted operations, then flushes the
// fan-in so their firings are merged and delivered.
func (f *Front) Barrier() {
	for _, sh := range f.shards {
		sh.Barrier()
	}
	flushed := make(chan struct{})
	f.in <- fanMsg{fn: func() { close(flushed) }}
	<-flushed
}

// Close drains the router: the relay forwarder finishes its queue, the
// shards close (flushing their pipelines and, for durable engines, their
// WALs), and the fan-in winds down. No Go* calls may be made after Close
// begins.
func (f *Front) Close() error {
	f.closeOnce.Do(func() {
		// Stop the relay forwarder first — it mutates shards, which must
		// not be closed under it. Queued occurrences are still forwarded.
		f.relayMu.Lock()
		f.relayStop = true
		f.relayCond.Broadcast()
		f.relayMu.Unlock()
		<-f.relayDone
		var firstErr error
		for i, sh := range f.shards {
			if err := sh.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cluster: close shard %d: %w", i, err)
			}
		}
		// All producers are gone (each shard's Follow stops at its close);
		// wind down the fan-in.
		close(f.in)
		<-f.fanDone
		f.closeErr = firstErr
	})
	return f.closeErr
}
