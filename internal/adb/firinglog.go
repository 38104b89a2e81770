package adb

import (
	"slices"

	"ptlactive/internal/core"
	"ptlactive/internal/value"
)

// Chunk sizes of a FiringLog: rows and binding values are stored in
// fixed-size chunks (64 KiB and 80 KiB). Only the first chunk grows by
// appends, so a small log stays small; every later one is allocated whole,
// so a growing log never copies more than its first chunk, and a later
// window can drop whole chunks.
const (
	rowChunkBits = 11
	rowChunk     = 1 << rowChunkBits // rows per chunk
	valChunk     = 2048              // values per chunk (a larger binding gets a chunk of its own)
)

// FiringLog is an append-only firing log stored compactly: each firing is a
// fixed 32-byte row — its shape (the rule and the binding's names), time,
// state index and where its values sit — and the binding's values are
// stored, in the shape's name order, in a flat arena of value chunks. A
// two-parameter firing costs 112 B; a closed one stores no values. Reads
// build the public Firing, with a fresh Binding map per firing, when asked.
//
// The zero FiringLog is empty and ready to use. It is not safe for
// concurrent use: its owner serializes appends against reads (Engine.mu).
type FiringLog struct {
	rows [][]firingRow
	vals [][]value.Value
	n    int
	// shapes interns the bindings' shapes, per rule name: one entry per key
	// set the rule's bindings have bound (a parameterised rule that can
	// also fire closed has two).
	shapes map[string][]*bindingShape
}

// bindingShape is one rule's binding key set: the rule name, shared by
// every row of that rule, and the bound names in sorted order, the order
// the row's values are stored in.
type bindingShape struct {
	rule  string
	names []string
}

// firingRow is one logged firing; its values are vals[chunk][off:off+n],
// n being len(shape.names).
type firingRow struct {
	shape *bindingShape
	time  int64
	state int
	chunk uint32
	off   uint32
}

// Len returns the number of firings logged.
func (l *FiringLog) Len() int { return l.n }

// Append logs f. Its binding's values are copied into the arena; the map
// itself is not kept.
func (l *FiringLog) Append(f Firing) {
	s := l.shapeOf(f.Rule, f.Binding)
	vals := l.add(s, f.Time, f.StateIndex)
	for i, name := range s.names {
		vals[i] = f.Binding[name]
	}
}

// add appends a row of shape s and returns the arena slots of its values,
// for the caller to fill in the shape's name order.
func (l *FiringLog) add(s *bindingShape, time int64, state int) []value.Value {
	chunk, off, vals := l.reserve(len(s.names))
	l.appendRow(firingRow{shape: s, time: time, state: state, chunk: chunk, off: off})
	return vals
}

// At returns firing i with a fresh Binding map.
func (l *FiringLog) At(i int) Firing { return l.ref(i).firing() }

// firingRef is a logged firing with its values resolved. Rows and values
// are never rewritten once appended, so a ref taken under the lock that
// orders appends stays valid, and is read, after the lock is released.
type firingRef struct {
	*firingRow
	vals []value.Value
}

func (l *FiringLog) ref(i int) firingRef {
	r := l.row(i)
	return firingRef{r, l.values(r)}
}

// refs returns the refs of firings [from, to) (nil when the range is
// empty).
func (l *FiringLog) refs(from, to int) []firingRef {
	if from >= to {
		return nil
	}
	out := make([]firingRef, to-from)
	for i := range out {
		out[i] = l.ref(from + i)
	}
	return out
}

// firing builds the public form of r.
func (r firingRef) firing() Firing {
	b := make(core.Binding, len(r.vals))
	for j, v := range r.vals {
		b[r.shape.names[j]] = v
	}
	return Firing{Rule: r.shape.rule, Binding: b, Time: r.time, StateIndex: r.state}
}

// firingsOf builds the public form of refs.
func firingsOf(refs []firingRef) []Firing {
	if refs == nil {
		return nil
	}
	out := make([]Firing, len(refs))
	for i, r := range refs {
		out[i] = r.firing()
	}
	return out
}

// row returns the row of firing i.
func (l *FiringLog) row(i int) *firingRow {
	return &l.rows[i>>rowChunkBits][i&(rowChunk-1)]
}

// values returns the stored values of r, in its shape's name order.
func (l *FiringLog) values(r *firingRow) []value.Value {
	n := len(r.shape.names)
	if n == 0 {
		return nil
	}
	return l.vals[r.chunk][r.off : int(r.off)+n]
}

// shapeOf returns the interned shape of rule's binding b.
func (l *FiringLog) shapeOf(rule string, b core.Binding) *bindingShape {
	for _, s := range l.shapes[rule] {
		if s.fits(b) {
			return s
		}
	}
	return l.intern(rule, sortedKeys(b))
}

// fits reports whether b binds exactly the shape's names.
func (s *bindingShape) fits(b core.Binding) bool {
	if len(b) != len(s.names) {
		return false
	}
	for _, name := range s.names {
		if _, ok := b[name]; !ok {
			return false
		}
	}
	return true
}

// intern returns rule's shape binding the sorted names, adding it on first
// use.
func (l *FiringLog) intern(rule string, names []string) *bindingShape {
	for _, s := range l.shapes[rule] {
		if slices.Equal(s.names, names) {
			return s
		}
	}
	if l.shapes == nil {
		l.shapes = map[string][]*bindingShape{}
	}
	s := &bindingShape{rule: rule, names: slices.Clone(names)}
	l.shapes[rule] = append(l.shapes[rule], s)
	return s
}

// reserve returns room for n contiguous values in the arena: the chunk, the
// offset in it, and the slots. No room is taken for a closed firing.
func (l *FiringLog) reserve(n int) (chunk, off uint32, vals []value.Value) {
	if n == 0 {
		return 0, 0, nil
	}
	last := len(l.vals) - 1
	switch {
	case last < 0:
		l.vals, last = [][]value.Value{nil}, 0
	case len(l.vals[last])+n > valChunk:
		l.vals = append(l.vals, make([]value.Value, 0, max(valChunk, n)))
		last++
	}
	c := slices.Grow(l.vals[last], n)
	at := len(c)
	l.vals[last] = c[:at+n]
	return uint32(last), uint32(at), c[at : at+n]
}

// appendRow appends r to the row chunks.
func (l *FiringLog) appendRow(r firingRow) {
	switch {
	case l.n == 0:
		l.rows = [][]firingRow{nil}
	case l.n&(rowChunk-1) == 0:
		l.rows = append(l.rows, make([]firingRow, 0, rowChunk))
	}
	last := len(l.rows) - 1
	l.rows[last] = append(l.rows[last], r)
	l.n++
}
