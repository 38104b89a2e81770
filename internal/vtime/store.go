// Package vtime implements the valid-time system model of Section 9: a
// history whose database changes occur at the *valid time* of each update,
// which may precede the (transaction) time at which the update is posted
// and committed. It provides committed histories at a time t, collapsed
// committed histories (Theorem 2), tentative and definite trigger
// monitors with maximum delay Delta (Section 9.2), and the online/offline
// satisfaction notions for temporal integrity constraints (Section 9.3).
package vtime

import (
	"fmt"
	"math"
	"sort"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// TxnStatus tracks a transaction's lifecycle.
type TxnStatus int

const (
	// Pending transactions have begun and not yet resolved.
	Pending TxnStatus = iota
	// Committed transactions contribute their updates to committed
	// histories.
	Committed
	// Aborted transactions are ignored entirely ("it does not make sense
	// to fire a trigger based on updates that will be aborted").
	Aborted
)

// Update is a single retroactive database write: item := v at valid time
// Valid, issued by transaction Txn.
type Update struct {
	Txn   int64
	Item  string
	V     value.Value
	Valid int64
}

// txnRec tracks one transaction.
type txnRec struct {
	id      int64
	status  TxnStatus
	commit  int64 // commit (transaction) time when committed
	updates []Update
}

// vstate is one instant on the valid-time axis: the updates taking effect
// there and the events occurring there.
type vstate struct {
	ts      int64
	updates []Update
	events  []event.Event
}

// Store is the valid-time history: update effects are placed at their
// valid times, commit/abort events at their transaction times.
//
// The store keeps updates as per-instant deltas over the base DBState
// rather than materialized states, so a retroactive correction never
// copies the database; the materializing views (CommittedAt, Collapsed)
// build each state from its predecessor via DBState.WithAll, which is
// the structurally-shared persistent map of internal/pmap — a history
// over an n-item database with u total updates materializes in
// O(n + u × log n), not O(states × n).
type Store struct {
	base   history.DBState
	states []vstate // ordered by ts, strictly increasing
	txns   map[int64]*txnRec
	order  []int64 // txn ids in begin order
	now    int64   // latest transaction-time instant seen
	delta  int64   // maximum delay; updates must satisfy valid >= post-delta
	floor  int64   // oldest instant materializing views answer (TruncateBefore)
}

// NewStore creates a store over an initial database state. delta is the
// maximum delay Delta of Section 9.2: every update's valid time must be
// within delta of the time it is posted. A negative delta disables the
// check (no definite values ever).
func NewStore(initial history.DBState, start, delta int64) *Store {
	s := &Store{base: initial, txns: map[int64]*txnRec{}, now: start, delta: delta, floor: start}
	s.states = append(s.states, vstate{ts: start})
	return s
}

// Now returns the latest transaction-time instant.
func (s *Store) Now() int64 { return s.now }

// Delta returns the maximum delay.
func (s *Store) Delta() int64 { return s.delta }

// Begin starts transaction id at the current time. Ids must be unique.
func (s *Store) Begin(id int64) error {
	if _, dup := s.txns[id]; dup {
		return fmt.Errorf("vtime: transaction %d already exists", id)
	}
	s.txns[id] = &txnRec{id: id, status: Pending}
	s.order = append(s.order, id)
	return nil
}

// Post records an update by a pending transaction: item := v valid at
// time valid, posted at (current) time post. The maximum-delay invariant
// post - valid <= delta is enforced; valid times in the future of the
// posting time are rejected.
func (s *Store) Post(txn int64, item string, v value.Value, valid, post int64) error {
	rec, ok := s.txns[txn]
	if !ok {
		return fmt.Errorf("vtime: unknown transaction %d", txn)
	}
	if rec.status != Pending {
		return fmt.Errorf("vtime: transaction %d is not pending", txn)
	}
	if post < s.now {
		return fmt.Errorf("vtime: posting time %d before current time %d", post, s.now)
	}
	if valid > post {
		return fmt.Errorf("vtime: valid time %d after posting time %d", valid, post)
	}
	if s.delta >= 0 && post-valid > s.delta {
		return fmt.Errorf("vtime: retroactive change of %d exceeds maximum delay %d", post-valid, s.delta)
	}
	u := Update{Txn: txn, Item: item, V: v, Valid: valid}
	rec.updates = append(rec.updates, u)
	st := s.stateAt(valid)
	st.updates = append(st.updates, u)
	st.events = append(st.events, event.New(event.UpdateItem, value.NewString(item), value.NewInt(txn)))
	s.now = post
	return nil
}

// stateAt returns the state with the given valid timestamp, splicing a new
// one into order if absent ("otherwise a new system state is added to the
// history with time-stamp v").
func (s *Store) stateAt(ts int64) *vstate {
	i := sort.Search(len(s.states), func(i int) bool { return s.states[i].ts >= ts })
	if i < len(s.states) && s.states[i].ts == ts {
		return &s.states[i]
	}
	s.states = append(s.states, vstate{})
	copy(s.states[i+1:], s.states[i:])
	s.states[i] = vstate{ts: ts}
	return &s.states[i]
}

// Commit commits a transaction at time ts. No two transactions may commit
// at the same instant (Section 2's invariant carries over).
func (s *Store) Commit(txn, ts int64) error {
	rec, ok := s.txns[txn]
	if !ok {
		return fmt.Errorf("vtime: unknown transaction %d", txn)
	}
	if rec.status != Pending {
		return fmt.Errorf("vtime: transaction %d is not pending", txn)
	}
	if ts < s.now {
		return fmt.Errorf("vtime: commit time %d before current time %d", ts, s.now)
	}
	for _, o := range s.txns {
		if o.status == Committed && o.commit == ts {
			return fmt.Errorf("vtime: transaction %d already commits at %d", o.id, ts)
		}
	}
	// The maximum-delay bound must hold at commitment: a committed value
	// becomes definite Delta after its commit, so the commit itself may
	// not change the history more than Delta back (otherwise "definite"
	// states could still change — exactly the retraction the property test
	// TestDefiniteNeverRetracts guards against).
	if s.delta >= 0 {
		for _, u := range rec.updates {
			if ts-u.Valid > s.delta {
				return fmt.Errorf("vtime: commit at %d would retroactively change valid time %d, exceeding maximum delay %d",
					ts, u.Valid, s.delta)
			}
		}
	}
	rec.status = Committed
	rec.commit = ts
	st := s.stateAt(ts)
	st.events = append(st.events, event.New(event.TransactionCommit, value.NewInt(txn)))
	s.now = ts
	return nil
}

// Abort aborts a pending transaction at time ts; its updates are
// permanently excluded from committed histories.
func (s *Store) Abort(txn, ts int64) error {
	rec, ok := s.txns[txn]
	if !ok {
		return fmt.Errorf("vtime: unknown transaction %d", txn)
	}
	if rec.status != Pending {
		return fmt.Errorf("vtime: transaction %d is not pending", txn)
	}
	rec.status = Aborted
	st := s.stateAt(ts)
	st.events = append(st.events, event.New(event.TransactionAbort, value.NewInt(txn)))
	if ts > s.now {
		s.now = ts
	}
	return nil
}

// Complete reports whether every started transaction is committed or
// aborted (the paper's "complete history").
func (s *Store) Complete() bool {
	for _, rec := range s.txns {
		if rec.status == Pending {
			return false
		}
	}
	return true
}

// CommitPoints returns the commit times in increasing order.
func (s *Store) CommitPoints() []int64 {
	var out []int64
	for _, id := range s.order {
		if rec := s.txns[id]; rec.status == Committed {
			out = append(out, rec.commit)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Infinity is a time later than every other, for committed histories "at
// time infinity".
const Infinity = int64(math.MaxInt64)

// Unlimited disables the maximum-delay check.
const Unlimited = int64(-1)

// commitInfo pairs a committed transaction with its commit time for the
// collapse procedures.
type commitInfo struct {
	ts  int64
	rec *txnRec
}

// committedInOrder returns the committed transactions sorted by commit
// time, ties broken by transaction id. The stable sort plus the id
// tie-break makes collapsed committed histories deterministic even for
// histories (built outside Commit's same-instant guard) in which two
// transactions commit at the same timestamp: the higher id applies later
// and its updates win.
func (s *Store) committedInOrder() []commitInfo {
	var commits []commitInfo
	for _, id := range s.order {
		rec := s.txns[id]
		if rec.status == Committed {
			commits = append(commits, commitInfo{ts: rec.commit, rec: rec})
		}
	}
	sort.SliceStable(commits, func(i, j int) bool {
		if commits[i].ts != commits[j].ts {
			return commits[i].ts < commits[j].ts
		}
		return commits[i].rec.id < commits[j].rec.id
	})
	return commits
}

// committedIn reports whether the update's transaction has a commit event
// within a prefix ending at time t.
func (s *Store) committedIn(u Update, t int64) bool {
	rec := s.txns[u.Txn]
	return rec != nil && rec.status == Committed && rec.commit <= t
}

// CommittedAt materializes the committed system history at time t
// (Section 9.1): the prefix of states with timestamps <= t, with the
// effects of updates uncommitted in that prefix eliminated. Database
// changes take effect at valid times.
func (s *Store) CommittedAt(t int64) *history.History {
	h := history.New()
	db := s.base
	for _, st := range s.states {
		if st.ts > t {
			break
		}
		var evs []event.Event
		var changed map[string]value.Value
		for _, u := range st.updates {
			if s.committedIn(u, t) {
				if changed == nil {
					changed = map[string]value.Value{}
				}
				changed[u.Item] = u.V
			}
		}
		for _, ev := range st.events {
			// Strip update events of uncommitted transactions and commit
			// events beyond t (none, since st.ts <= t).
			if ev.Name == event.UpdateItem && len(ev.Args) == 2 {
				txn := ev.Args[1].AsInt()
				if !s.committedIn(Update{Txn: txn}, t) {
					continue
				}
			}
			if ev.Name == event.TransactionAbort {
				continue // aborted transactions are ignored entirely
			}
			evs = append(evs, ev)
		}
		db = db.WithAll(changed)
		// In the valid-time model the database changes at update instants,
		// so the history invariant "changes only at commits" does not
		// apply; build states directly.
		h2 := history.SystemState{DB: db, Events: event.NewSet(evs...), TS: st.ts}
		appendLoose(h, h2)
	}
	return h
}

// Collapsed returns the collapsed committed history (Section 9.3): the
// committed system history at infinity with every database change moved
// from its update (valid) time to its transaction's commit time — i.e.
// the transaction-time view of the same execution. Theorem 2 states that
// online and offline satisfaction coincide on this history.
func (s *Store) Collapsed() *history.History {
	// Gather commit times and sort states by ts as usual; each state's db
	// reflects all updates of transactions committed at or before it.
	commits := s.committedInOrder()

	h := history.New()
	db := s.base
	ci := 0
	for _, st := range s.states {
		var evs []event.Event
		for _, ev := range st.events {
			if ev.Name == event.TransactionAbort {
				continue
			}
			if ev.Name == event.UpdateItem && len(ev.Args) == 2 {
				txn := ev.Args[1].AsInt()
				if rec := s.txns[txn]; rec == nil || rec.status != Committed {
					continue
				}
			}
			evs = append(evs, ev)
		}
		for ci < len(commits) && commits[ci].ts <= st.ts {
			changed := map[string]value.Value{}
			// Later valid times win within one transaction.
			ups := append([]Update(nil), commits[ci].rec.updates...)
			sort.SliceStable(ups, func(i, j int) bool { return ups[i].Valid < ups[j].Valid })
			for _, u := range ups {
				changed[u.Item] = u.V
			}
			db = db.WithAll(changed)
			ci++
		}
		appendLoose(h, history.SystemState{DB: db, Events: event.NewSet(evs...), TS: st.ts})
	}
	return h
}

// CollapsedStore rebuilds the store's execution in the transaction-time
// view: every committed transaction's updates are re-posted with valid
// time equal to the commit time. Theorem 2 is checked by comparing online
// and offline satisfaction on the result.
func (s *Store) CollapsedStore() *Store {
	out := NewStore(s.base, s.states[0].ts, Unlimited)
	for _, c := range s.committedInOrder() {
		if err := out.Begin(c.rec.id); err != nil {
			panic(err)
		}
		ups := append([]Update(nil), c.rec.updates...)
		sort.SliceStable(ups, func(i, j int) bool { return ups[i].Valid < ups[j].Valid })
		for _, u := range ups {
			if err := out.Post(c.rec.id, u.Item, u.V, c.ts, c.ts); err != nil {
				panic(err)
			}
		}
		if err := out.Commit(c.rec.id, c.ts); err != nil {
			panic(err)
		}
	}
	return out
}

// appendLoose appends without the transaction-time invariants (valid-time
// histories legitimately change the database between commits).
func appendLoose(h *history.History, st history.SystemState) {
	h.AppendUnchecked(st)
}

// Floor returns the oldest instant the materializing views still answer:
// the store's start, or the cut of the latest TruncateBefore.
func (s *Store) Floor() int64 { return s.floor }

// CommittedAtChecked is CommittedAt with a typed refusal for prefixes the
// store has truncated away: t below the floor wraps
// history.ErrHistoryTruncated instead of silently materializing a history
// whose early states were folded into the base.
func (s *Store) CommittedAtChecked(t int64) (*history.History, error) {
	if t < s.floor {
		return nil, fmt.Errorf("vtime: committed history at %d unavailable (floor is %d): %w",
			t, s.floor, history.ErrHistoryTruncated)
	}
	return s.CommittedAt(t), nil
}

// TruncateBefore folds the valid-time states older than t into the base
// database state and discards them, bounding the store's resident history
// the way the engine's retention policy bounds aux relations. It requires
// a complete history (every transaction resolved): a pending transaction
// could still commit or abort updates sitting in the fold region.
//
// The effective cut can be earlier than t: a committed transaction whose
// commit time is at or after the cut may hold retroactive updates below
// it, and folding those would bake them into views at times before the
// commit. The cut retreats below every such update (the maximum-delay
// bound keeps this retreat at most delta), so every materializing view at
// or after the returned cut is unchanged by the truncation. The cut never
// retreats below the current floor.
//
// The fold preserves the committed-history views (CommittedAt and the
// monitors built on them). The collapse procedures (Collapsed,
// CollapsedStore) re-order the folded prefix by commit time, which the
// base cannot represent; run them before truncating if the whole-history
// transaction-time view is needed.
func (s *Store) TruncateBefore(t int64) (int64, error) {
	if !s.Complete() {
		return s.floor, fmt.Errorf("vtime: truncate of an incomplete history (pending transactions)")
	}
	cut := t
	for {
		prev := cut
		for _, rec := range s.txns {
			if rec.status != Committed || rec.commit < cut {
				continue
			}
			for _, u := range rec.updates {
				if u.Valid < cut {
					cut = u.Valid
				}
			}
		}
		if cut == prev {
			break
		}
	}
	if cut < s.floor {
		cut = s.floor
	}
	// Fold: apply the committed updates of each dropped state to the base
	// in state order, batched per state exactly as CommittedAt batches
	// them, so the remaining suffix materializes identically. Always keep
	// at least one state so the views stay non-empty.
	kept := 0
	for kept < len(s.states)-1 && s.states[kept].ts < cut {
		st := s.states[kept]
		var changed map[string]value.Value
		for _, u := range st.updates {
			if rec := s.txns[u.Txn]; rec != nil && rec.status == Committed {
				if changed == nil {
					changed = map[string]value.Value{}
				}
				changed[u.Item] = u.V
			}
		}
		s.base = s.base.WithAll(changed)
		kept++
	}
	if kept == 0 {
		return cut, nil
	}
	s.states = append([]vstate(nil), s.states[kept:]...)
	// Transactions that committed below the cut have every update below it
	// (valid <= commit) and are fully folded; drop their records so the
	// collapse procedures do not re-apply them.
	liveOrder := s.order[:0]
	for _, id := range s.order {
		rec := s.txns[id]
		dead := rec.status == Aborted ||
			(rec.status == Committed && rec.commit < cut)
		if dead {
			delete(s.txns, id)
			continue
		}
		liveOrder = append(liveOrder, id)
	}
	s.order = liveOrder
	if cut > s.floor {
		s.floor = cut
	}
	return cut, nil
}
