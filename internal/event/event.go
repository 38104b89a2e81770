// Package event defines the parameterized events of the system model
// (Section 2 of the paper). Events are instantaneous; several events may
// occur at the same instant, in which case they form the event set of a
// single system state.
package event

import (
	"sort"
	"strings"

	"ptlactive/internal/value"
)

// Standard event symbol names used by the execution model. User code can
// define any further symbols; these are the ones the engine itself emits.
const (
	TransactionBegin  = "transaction_begin"  // args: (txn id)
	TransactionCommit = "transaction_commit" // args: (txn id)
	TransactionAbort  = "transaction_abort"  // args: (txn id)
	AttemptsToCommit  = "attempts_to_commit" // args: (txn id)
	UpdateItem        = "update_item"        // args: (item name)
)

// Event is an occurrence of a parameterized event symbol, e.g.
// transaction_begin(30) or user_logs_in("alice").
type Event struct {
	// Name is the event symbol.
	Name string
	// Args are the actual parameter values.
	Args []value.Value
}

// New constructs an event.
func New(name string, args ...value.Value) Event {
	return Event{Name: name, Args: args}
}

// String renders the event as name(arg, ...).
func (e Event) String() string {
	if len(e.Args) == 0 {
		return e.Name
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// Key returns a canonical identity key for deduplication.
func (e Event) Key() string {
	var sb strings.Builder
	sb.WriteString(e.Name)
	sb.WriteByte('(')
	for _, a := range e.Args {
		sb.WriteString(a.Key())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Equal reports whether two events are the same occurrence pattern: same
// symbol and pairwise equal arguments.
func (e Event) Equal(o Event) bool {
	if e.Name != o.Name || len(e.Args) != len(o.Args) {
		return false
	}
	for i := range e.Args {
		if !e.Args[i].Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Set is the event set E of a system state: the events that occur at one
// instant. A Set never contains duplicate occurrences.
type Set struct {
	events []Event
	// keys dedups large sets; small sets (the common case — a commit
	// carries a handful of system events) stay map-free and dedup by a
	// linear Equal scan, which allocates nothing.
	keys map[string]struct{}
	// names caches Names(); Add invalidates it.
	names []string
}

// setMapThreshold is the set size at which dedup switches from linear
// scanning to the keys map.
const setMapThreshold = 8

// NewSet builds a set from the given events, dropping duplicates.
func NewSet(events ...Event) *Set {
	s := &Set{}
	for _, e := range events {
		s.Add(e)
	}
	return s
}

// NewSetOwned builds a set taking ownership of the slice: events are
// deduplicated in place and the backing array becomes the set's storage,
// so a caller that assembled an exactly-sized slice pays no copy. The
// slice must not be used after the call.
func NewSetOwned(events []Event) *Set {
	s := &Set{events: events[:0]}
	for _, e := range events {
		s.Add(e)
	}
	return s
}

// Add inserts an event unless an equal occurrence is already present.
// It reports whether the event was inserted.
func (s *Set) Add(e Event) bool {
	if s.keys == nil {
		if len(s.events) < setMapThreshold {
			for _, have := range s.events {
				if have.Equal(e) {
					return false
				}
			}
			s.events = append(s.events, e)
			s.names = nil
			return true
		}
		// Crossing the threshold: index everything so far.
		s.keys = make(map[string]struct{}, 2*len(s.events))
		for _, have := range s.events {
			s.keys[have.Key()] = struct{}{}
		}
	}
	k := e.Key()
	if _, dup := s.keys[k]; dup {
		return false
	}
	s.keys[k] = struct{}{}
	s.events = append(s.events, e)
	s.names = nil
	return true
}

// Len returns the number of events in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.events)
}

// Events returns the events in insertion order. The result must not be
// mutated.
func (s *Set) Events() []Event {
	if s == nil {
		return nil
	}
	return s.events
}

// Contains reports whether an equal occurrence is in the set.
func (s *Set) Contains(e Event) bool {
	if s == nil {
		return false
	}
	if s.keys == nil {
		for _, have := range s.events {
			if have.Equal(e) {
				return true
			}
		}
		return false
	}
	_, ok := s.keys[e.Key()]
	return ok
}

// ByName returns all occurrences of the given symbol.
func (s *Set) ByName(name string) []Event {
	if s == nil {
		return nil
	}
	var out []Event
	for _, e := range s.events {
		if e.Name == name {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of occurrences of the given symbol, without
// allocating.
func (s *Set) Count(name string) int {
	n := 0
	for _, e := range s.Events() {
		if e.Name == name {
			n++
		}
	}
	return n
}

// Names returns the sorted set of distinct symbols occurring in s. The
// execution model's relevance filter (Section 8) keys on these per sweep,
// so the result is memoized until the next Add. The result must not be
// mutated.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	if s.names != nil || len(s.events) == 0 {
		return s.names
	}
	names := make([]string, 0, len(s.events))
	for _, e := range s.events {
		dup := false
		for _, n := range names {
			if n == e.Name {
				dup = true
				break
			}
		}
		if !dup {
			names = append(names, e.Name)
		}
	}
	sort.Strings(names)
	s.names = names
	return names
}

// CommitCount returns the number of transaction_commit events in the set.
// The system model requires at most one per state (Section 2); History
// enforces it using this.
func (s *Set) CommitCount() int {
	return s.Count(TransactionCommit)
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	if s == nil {
		return NewSet()
	}
	return NewSet(s.events...)
}

// String renders the set as {e1, e2, ...} in insertion order.
func (s *Set) String() string {
	if s.Len() == 0 {
		return "{}"
	}
	parts := make([]string, len(s.events))
	for i, e := range s.events {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
