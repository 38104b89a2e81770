// Package history implements the transaction-time system model of
// Section 2: database states, system states (S, E) with timestamps, and
// system histories with the paper's invariants — at most one transaction
// commit per state, database state changes only at commits, strictly
// increasing timestamps.
package history

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"ptlactive/internal/event"
	"ptlactive/internal/pmap"
	"ptlactive/internal/value"
)

// TimeItem is the reserved data item holding each state's timestamp
// (Section 2: "the value of this time stamp is given by a data-item called
// time").
const TimeItem = "time"

// ErrHistoryTruncated reports a point-in-time read older than the oldest
// state a history keeps: the states before it were discarded.
var ErrHistoryTruncated = errors.New("history truncated")

// DBState is an immutable mapping from database item names to values.
// Mutating operations return a new state that shares all untouched
// structure with its parent (internal/pmap): a commit touching u of n
// items costs O(u × log n), not a full-map copy, and consecutive system
// states share everything the commit left alone — the structural form
// of the model's "the database only changes at commit points".
type DBState struct {
	m pmap.Map[value.Value]
}

// valueEq adapts value.Value.Equal for the pmap callbacks.
func valueEq(a, b value.Value) bool { return a.Equal(b) }

// EmptyDB returns the empty database state.
func EmptyDB() DBState { return DBState{} }

// NewDB builds a state from an item map.
func NewDB(items map[string]value.Value) DBState {
	return DBState{m: pmap.Map[value.Value]{}.WithAll(items)}
}

// Get returns the value of an item; ok is false if the item is absent.
func (d DBState) Get(name string) (value.Value, bool) {
	return d.m.Get(name)
}

// With returns a new state with one item set.
func (d DBState) With(name string, v value.Value) DBState {
	return DBState{m: d.m.With(name, v)}
}

// WithAll returns a new state with all the given updates applied.
func (d DBState) WithAll(updates map[string]value.Value) DBState {
	return DBState{m: d.m.WithAll(updates)}
}

// Without returns a new state with an item removed.
func (d DBState) Without(name string) DBState {
	return DBState{m: d.m.Without(name)}
}

// Range calls fn for every item in ascending name order until fn
// returns false. The underlying map is ordered, so this is the
// deterministic iterator — use it on hot paths (persist encode, state
// dumps) instead of Items, which allocates the name slice.
func (d DBState) Range(fn func(name string, v value.Value) bool) {
	d.m.Range(fn)
}

// Items returns the sorted item names. It allocates; prefer Range where
// the names are only iterated.
func (d DBState) Items() []string {
	names := make([]string, 0, d.m.Len())
	d.m.Range(func(name string, _ value.Value) bool {
		names = append(names, name)
		return true
	})
	return names
}

// Len returns the number of items.
func (d DBState) Len() int { return d.m.Len() }

// Equal reports whether two states map identical items to equal values.
// States that share structure are compared by walking only the unshared
// part: a state against its own successor costs O(updates × log n), and
// event states (which reuse the database wholesale) compare in O(1).
func (d DBState) Equal(o DBState) bool {
	return d.m.Equal(o.m, valueEq)
}

// Diff calls fn, in ascending name order, for every item present in
// exactly one of the two states or mapped to unequal values, walking
// only structure the states do not share. It reconstructs "what did
// this commit change" from two adjacent states in O(changes × log n).
func (d DBState) Diff(o DBState, fn func(name string) bool) {
	d.m.Diff(o.m, valueEq, fn)
}

// String renders the state deterministically.
func (d DBState) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	first := true
	d.m.Range(func(name string, v value.Value) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s=%s", name, v)
		return true
	})
	sb.WriteByte(']')
	return sb.String()
}

// SystemState is the pair (S, E) with its timestamp: a snapshot of the
// database plus the set of events occurring at that instant.
type SystemState struct {
	// DB is the database state S.
	DB DBState
	// Events is the event set E.
	Events *event.Set
	// TS is the global-clock timestamp of the state.
	TS int64
}

// Time returns the state's timestamp as a Value, i.e. the value of the
// reserved "time" data item.
func (s SystemState) Time() value.Value { return value.NewInt(s.TS) }

// GetItem looks up a database item, resolving the reserved "time" item to
// the state's timestamp.
func (s SystemState) GetItem(name string) (value.Value, bool) {
	if name == TimeItem {
		return s.Time(), true
	}
	return s.DB.Get(name)
}

// String renders the state compactly.
func (s SystemState) String() string {
	return fmt.Sprintf("@%d %s %s", s.TS, s.DB, s.Events)
}

// History is a finite sequence of system states. Append enforces the
// model's invariants.
type History struct {
	states []SystemState
}

// New returns an empty history.
func New() *History { return &History{} }

// Len returns the number of states.
func (h *History) Len() int { return len(h.states) }

// At returns state i (0-based).
func (h *History) At(i int) SystemState { return h.states[i] }

// Last returns the most recent state; ok is false when the history is
// empty.
func (h *History) Last() (SystemState, bool) {
	if len(h.states) == 0 {
		return SystemState{}, false
	}
	return h.states[len(h.states)-1], true
}

// States returns the backing slice; it must not be mutated.
func (h *History) States() []SystemState { return h.states }

// Append adds a new system state, enforcing:
//   - strictly increasing timestamps (Section 2: simultaneous events share
//     a single state, so distinct states have distinct times);
//   - at most one transaction_commit event per state;
//   - the database state may differ from its predecessor only when the
//     event set contains a transaction_commit. "Differ" is identity
//     (value.Identical), not the logic's =, under which a NaN item would
//     differ from itself.
func (h *History) Append(s SystemState) error {
	if prev, ok := h.Last(); ok {
		if s.TS <= prev.TS {
			return fmt.Errorf("history: timestamp %d not after previous %d", s.TS, prev.TS)
		}
		if s.Events.CommitCount() == 0 && !s.DB.m.Equal(prev.DB.m, value.Value.Identical) {
			return fmt.Errorf("history: database changed at %d without a transaction_commit event", s.TS)
		}
	}
	if n := s.Events.CommitCount(); n > 1 {
		return fmt.Errorf("history: %d simultaneous transaction commits at %d", n, s.TS)
	}
	h.states = append(h.states, s)
	return nil
}

// AppendUnchecked appends a state enforcing only strictly increasing
// timestamps. The valid-time model (internal/vtime) uses it: there the
// database legitimately changes at update instants rather than only at
// commits, so the transaction-time invariant of Append does not apply.
func (h *History) AppendUnchecked(s SystemState) {
	if prev, ok := h.Last(); ok && s.TS <= prev.TS {
		panic(fmt.Sprintf("history: timestamp %d not after previous %d", s.TS, prev.TS))
	}
	h.states = append(h.states, s)
}

// MustAppend is Append that panics on error; for tests and generators
// whose inputs are valid by construction.
func (h *History) MustAppend(s SystemState) {
	if err := h.Append(s); err != nil {
		panic(err)
	}
}

// CommitPoints returns the indices of states whose event set contains a
// transaction_commit (Section 8: "a commit point in a history h is a state
// that contains the commit transaction event").
func (h *History) CommitPoints() []int {
	var out []int
	for i, s := range h.states {
		if s.Events.CommitCount() > 0 {
			out = append(out, i)
		}
	}
	return out
}

// Prefix returns a view of the first n states. The returned history shares
// storage with h and must not be appended to while h is in use.
func (h *History) Prefix(n int) *History {
	if n < 0 || n > len(h.states) {
		panic(fmt.Sprintf("history: prefix %d out of range 0..%d", n, len(h.states)))
	}
	return &History{states: h.states[:n:n]}
}

// PrefixAtTime returns the longest prefix whose states all have
// timestamps <= t.
func (h *History) PrefixAtTime(t int64) *History {
	n := sort.Search(len(h.states), func(i int) bool { return h.states[i].TS > t })
	return h.Prefix(n)
}

// Clone returns an independent copy (states are value types and shared).
func (h *History) Clone() *History {
	c := &History{states: make([]SystemState, len(h.states))}
	copy(c.states, h.states)
	return c
}

// String renders the history one state per line.
func (h *History) String() string {
	var sb strings.Builder
	for i, s := range h.states {
		fmt.Fprintf(&sb, "%4d: %s\n", i, s)
	}
	return sb.String()
}

// Builder incrementally constructs a valid history from update/commit
// operations; it is the convenience layer used by tests, examples and the
// workload generators. The active-database engine in internal/adb builds
// its histories through a Builder too.
type Builder struct {
	h       *History
	db      DBState
	pending *event.Set
	now     int64
}

// NewBuilder starts a builder with an initial database state. The first
// state is appended at time t0 with an empty event set.
func NewBuilder(db DBState, t0 int64) *Builder {
	b := &Builder{h: New(), db: db, now: t0}
	b.h.MustAppend(SystemState{DB: db, Events: event.NewSet(), TS: t0})
	return b
}

// Now returns the timestamp of the latest state.
func (b *Builder) Now() int64 { return b.now }

// DB returns the current database state.
func (b *Builder) DB() DBState { return b.db }

// History returns the history built so far.
func (b *Builder) History() *History { return b.h }

// Event appends a new state at time t containing the given events and an
// unchanged database.
func (b *Builder) Event(t int64, events ...event.Event) error {
	s := SystemState{DB: b.db, Events: event.NewSet(events...), TS: t}
	if err := b.h.Append(s); err != nil {
		return err
	}
	b.now = t
	return nil
}

// Commit appends a commit state at time t: the event set contains
// transaction_commit(txn) plus extra events, and the database reflects
// exactly the transaction's updates.
func (b *Builder) Commit(t int64, txn int64, updates map[string]value.Value, extra ...event.Event) error {
	events := append([]event.Event{event.New(event.TransactionCommit, value.NewInt(txn))}, extra...)
	ndb := b.db.WithAll(updates)
	s := SystemState{DB: ndb, Events: event.NewSet(events...), TS: t}
	if err := b.h.Append(s); err != nil {
		return err
	}
	b.db = ndb
	b.now = t
	return nil
}
