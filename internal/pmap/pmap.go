// Package pmap implements an immutable, persistent map from string keys
// to values whose update operations share all untouched structure with
// the version they were derived from. It is the storage layer behind
// history.DBState: consecutive database states in a system history
// differ by one transaction's updates, so path copying makes a commit
// cost O(updates × log n) instead of the O(n) full-map copy, and two
// states that share structure can be compared or diffed by walking only
// the unshared part.
//
// The representation is adaptive. Maps of at most smallMax entries are
// a copy-on-write slice sorted by key — one allocation per update, the
// cheapest possible shape for the small databases of unit workloads and
// for per-transaction update sets. Larger maps are a path-copying treap
// whose heap priorities are a hash of the key, which makes the tree
// shape a canonical function of the key set alone: the same keys always
// build the same tree, regardless of insertion order. Canonical shapes
// are what let Equal and Diff align two maps node by node and cut off
// at pointer-shared subtrees.
//
// Invariants:
//   - Values of type Map are immutable forever; every operation returns
//     a new Map and never mutates reachable nodes. Old versions remain
//     valid and cheap to retain (a history window holds L states in
//     O(n + L·u·log n) space, not O(L·n)).
//   - A map of k entries is in slice form iff k <= smallMax; Without
//     collapses a treap that shrinks to smallMax back to a slice, so
//     representation is a function of content.
//   - Treap shape is the unique treap over {(key, prio(key))} ordered
//     by key (BST) and by (prio, key) (heap, ties broken toward the
//     smaller key), so shape is deterministic and insertion-order-free.
package pmap

import "slices"

// smallMax is the largest map kept in sorted-slice form. Eight matches
// the small-set elision in internal/event: beyond this, whole-slice
// copies start losing to path copying.
const smallMax = 8

// keyPrio is the treap priority hash (FNV-1a plus a murmur-style
// finalizer: priorities compare as integers, so the *high* bits must
// avalanche, which raw FNV of near-identical keys does not deliver). It
// is a variable only so the package tests can force priority collisions
// and adversarial shapes; production code must never replace it — maps
// built under different priority functions must not be mixed.
var keyPrio = fnvPrio

func fnvPrio(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// beats reports whether (p1, k1) takes heap precedence over (p2, k2).
// It is a strict total order because keys are unique.
func beats(p1 uint64, k1 string, p2 uint64, k2 string) bool {
	return p1 > p2 || (p1 == p2 && k1 < k2)
}

type entry[V any] struct {
	k string
	v V
}

type node[V any] struct {
	k    string
	v    V
	prio uint64
	l, r *node[V]
	size int
}

// Map is an immutable, persistent, ordered map. The zero value is the
// empty map.
type Map[V any] struct {
	vec  []entry[V] // sorted by key; used iff root is nil
	root *node[V]
}

func size[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.size
}

// Len returns the number of entries.
func (m Map[V]) Len() int {
	if m.root != nil {
		return m.root.size
	}
	return len(m.vec)
}

// Get returns the value stored under k.
func (m Map[V]) Get(k string) (V, bool) {
	if m.root == nil {
		for i := range m.vec {
			if m.vec[i].k == k {
				return m.vec[i].v, true
			}
		}
		var zero V
		return zero, false
	}
	n := m.root
	for n != nil {
		switch {
		case k == n.k:
			return n.v, true
		case k < n.k:
			n = n.l
		default:
			n = n.r
		}
	}
	var zero V
	return zero, false
}

// vecSearch returns the first index whose key is >= k.
func vecSearch[V any](vec []entry[V], k string) int {
	lo, hi := 0, len(vec)
	for lo < hi {
		mid := (lo + hi) / 2
		if vec[mid].k < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// With returns a new map with k set to v.
func (m Map[V]) With(k string, v V) Map[V] {
	if m.root != nil {
		return Map[V]{root: insert(m.root, k, v, keyPrio(k))}
	}
	i := vecSearch(m.vec, k)
	if i < len(m.vec) && m.vec[i].k == k {
		out := make([]entry[V], len(m.vec))
		copy(out, m.vec)
		out[i].v = v
		return Map[V]{vec: out}
	}
	if len(m.vec) == smallMax {
		return Map[V]{root: insert(buildTreap(m.vec), k, v, keyPrio(k))}
	}
	out := make([]entry[V], len(m.vec)+1)
	copy(out, m.vec[:i])
	out[i] = entry[V]{k: k, v: v}
	copy(out[i+1:], m.vec[i:])
	return Map[V]{vec: out}
}

// WithAll returns a new map with every update applied. A small map that
// stays small is rebuilt in a single allocation.
func (m Map[V]) WithAll(updates map[string]V) Map[V] {
	if len(updates) == 0 {
		return m
	}
	if m.root == nil {
		fresh := 0
		for k := range updates {
			if i := vecSearch(m.vec, k); i >= len(m.vec) || m.vec[i].k != k {
				fresh++
			}
		}
		if len(m.vec)+fresh <= smallMax {
			out := make([]entry[V], len(m.vec), len(m.vec)+fresh)
			copy(out, m.vec)
			for k, v := range updates {
				i := vecSearch(out, k)
				if i < len(out) && out[i].k == k {
					out[i].v = v
					continue
				}
				out = append(out, entry[V]{})
				copy(out[i+1:], out[i:])
				out[i] = entry[V]{k: k, v: v}
			}
			return Map[V]{vec: out}
		}
		// A slice-form receiver outgrowing smallMax has no structure worth
		// sharing: merge, sort once and build the treap in one pass. The
		// keys are sorted alone — entries are several words wide, and moving
		// them dominates a sort.
		keys := make([]string, 0, len(m.vec)+fresh)
		for _, e := range m.vec {
			if _, shadowed := updates[e.k]; !shadowed {
				keys = append(keys, e.k)
			}
		}
		for k := range updates {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		merged := make([]entry[V], len(keys))
		for i, k := range keys {
			v, updated := updates[k]
			if !updated {
				v, _ = m.Get(k)
			}
			merged[i] = entry[V]{k: k, v: v}
		}
		return Map[V]{root: buildTreap(merged)}
	}
	root := m.root
	for k, v := range updates {
		root = insert(root, k, v, keyPrio(k))
	}
	return Map[V]{root: root}
}

// Without returns a new map with k removed; m itself is returned when k
// is absent.
func (m Map[V]) Without(k string) Map[V] {
	if m.root != nil {
		root, ok := remove(m.root, k)
		if !ok {
			return m
		}
		if root.size == smallMax {
			return Map[V]{vec: collapse(root)}
		}
		return Map[V]{root: root}
	}
	i := vecSearch(m.vec, k)
	if i >= len(m.vec) || m.vec[i].k != k {
		return m
	}
	if len(m.vec) == 1 {
		return Map[V]{}
	}
	out := make([]entry[V], len(m.vec)-1)
	copy(out, m.vec[:i])
	copy(out[i:], m.vec[i+1:])
	return Map[V]{vec: out}
}

// Range calls fn for every entry in ascending key order until fn
// returns false. The map is ordered, so Range doubles as the sorted
// iterator — deterministic with no per-call sorting or allocation.
func (m Map[V]) Range(fn func(k string, v V) bool) {
	if m.root == nil {
		for i := range m.vec {
			if !fn(m.vec[i].k, m.vec[i].v) {
				return
			}
		}
		return
	}
	rangeNodes(m.root, fn)
}

func rangeNodes[V any](n *node[V], fn func(string, V) bool) bool {
	if n == nil {
		return true
	}
	return rangeNodes(n.l, fn) && fn(n.k, n.v) && rangeNodes(n.r, fn)
}

// Equal reports whether m and o hold the same keys with eq-equal
// values. Shapes are canonical, so the maps are compared node by node
// with pointer-shared subtrees skipped outright: comparing a state
// against a version derived from it by u updates costs O(u × log n).
func (m Map[V]) Equal(o Map[V], eq func(a, b V) bool) bool {
	if m.Len() != o.Len() {
		return false
	}
	if m.root == nil {
		// Same length ⇒ same representation (content determines form).
		for i := range m.vec {
			if m.vec[i].k != o.vec[i].k || !eq(m.vec[i].v, o.vec[i].v) {
				return false
			}
		}
		return true
	}
	return equalNodes(m.root, o.root, eq)
}

func equalNodes[V any](a, b *node[V], eq func(V, V) bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.size != b.size || a.k != b.k {
		return false
	}
	return eq(a.v, b.v) && equalNodes(a.l, b.l, eq) && equalNodes(a.r, b.r, eq)
}

// Diff reports, in ascending key order, every key at which m and o
// differ — present in exactly one, or present in both with values eq
// considers unequal — stopping early if fn returns false. Subtrees
// shared between the two maps are skipped by pointer equality, so
// diffing a state against a version derived from it by u value updates
// walks O(u × log n) nodes; an insertion or deletion that restructured
// the tree near the root degrades the walk toward a sorted merge of the
// divergent subtrees, never worse than O(n).
func (m Map[V]) Diff(o Map[V], eq func(a, b V) bool, fn func(k string) bool) {
	if m.root != nil && o.root != nil {
		diffNodes(m.root, o.root, eq, fn)
		return
	}
	var ca, cb cursor[V]
	ca.vec, cb.vec = m.vec, o.vec
	ca.push(m.root)
	cb.push(o.root)
	mergeDiff(&ca, &cb, eq, fn)
}

func diffNodes[V any](a, b *node[V], eq func(V, V) bool, fn func(string) bool) bool {
	if a == b {
		return true
	}
	if a == nil {
		return rangeNodes(b, func(k string, _ V) bool { return fn(k) })
	}
	if b == nil {
		return rangeNodes(a, func(k string, _ V) bool { return fn(k) })
	}
	if a.k == b.k {
		if !diffNodes(a.l, b.l, eq, fn) {
			return false
		}
		if !eq(a.v, b.v) && !fn(a.k) {
			return false
		}
		return diffNodes(a.r, b.r, eq, fn)
	}
	// The key sets diverge here and the shapes no longer align; fall
	// back to a sorted merge of the two subtrees.
	var ca, cb cursor[V]
	ca.push(a)
	cb.push(b)
	return mergeDiff(&ca, &cb, eq, fn)
}

// cursor is an in-order iterator over one map (either representation).
type cursor[V any] struct {
	vec   []entry[V]
	stack []*node[V]
}

func (c *cursor[V]) push(n *node[V]) {
	for ; n != nil; n = n.l {
		c.stack = append(c.stack, n)
	}
}

func (c *cursor[V]) next() (string, V, bool) {
	if len(c.vec) > 0 {
		e := c.vec[0]
		c.vec = c.vec[1:]
		return e.k, e.v, true
	}
	if len(c.stack) == 0 {
		var zero V
		return "", zero, false
	}
	n := c.stack[len(c.stack)-1]
	c.stack = c.stack[:len(c.stack)-1]
	c.push(n.r)
	return n.k, n.v, true
}

func mergeDiff[V any](a, b *cursor[V], eq func(V, V) bool, fn func(string) bool) bool {
	ka, va, oka := a.next()
	kb, vb, okb := b.next()
	for oka && okb {
		switch {
		case ka == kb:
			if !eq(va, vb) && !fn(ka) {
				return false
			}
			ka, va, oka = a.next()
			kb, vb, okb = b.next()
		case ka < kb:
			if !fn(ka) {
				return false
			}
			ka, va, oka = a.next()
		default:
			if !fn(kb) {
				return false
			}
			kb, vb, okb = b.next()
		}
	}
	for oka {
		if !fn(ka) {
			return false
		}
		ka, _, oka = a.next()
	}
	for okb {
		if !fn(kb) {
			return false
		}
		kb, _, okb = b.next()
	}
	return true
}

// insert returns the canonical treap holding n's entries plus k=v.
// Nodes along the search path are copied; the rotations restoring the
// heap order touch only those fresh copies, never shared structure.
func insert[V any](n *node[V], k string, v V, p uint64) *node[V] {
	if n == nil {
		return &node[V]{k: k, v: v, prio: p, size: 1}
	}
	c := *n
	switch {
	case k == n.k:
		c.v = v
		return &c
	case k < n.k:
		c.l = insert(n.l, k, v, p)
		c.size = c.l.size + size(c.r) + 1
		if beats(c.l.prio, c.l.k, c.prio, c.k) {
			return rotRight(&c)
		}
	default:
		c.r = insert(n.r, k, v, p)
		c.size = size(c.l) + c.r.size + 1
		if beats(c.r.prio, c.r.k, c.prio, c.k) {
			return rotLeft(&c)
		}
	}
	return &c
}

// rotRight lifts c.l above c. Both nodes are fresh copies owned by the
// caller, so they are rewired in place.
func rotRight[V any](c *node[V]) *node[V] {
	l := c.l
	c.l = l.r
	c.size = size(c.l) + size(c.r) + 1
	l.r = c
	l.size = size(l.l) + c.size + 1
	return l
}

func rotLeft[V any](c *node[V]) *node[V] {
	r := c.r
	c.r = r.l
	c.size = size(c.l) + size(c.r) + 1
	r.l = c
	r.size = c.size + size(r.r) + 1
	return r
}

// remove returns n without k and whether k was present; the original
// subtree is returned untouched when k is absent, so a miss allocates
// nothing.
func remove[V any](n *node[V], k string) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	switch {
	case k == n.k:
		return merge(n.l, n.r), true
	case k < n.k:
		l, ok := remove(n.l, k)
		if !ok {
			return n, false
		}
		c := *n
		c.l = l
		c.size = n.size - 1
		return &c, true
	default:
		r, ok := remove(n.r, k)
		if !ok {
			return n, false
		}
		c := *n
		c.r = r
		c.size = n.size - 1
		return &c, true
	}
}

// merge joins two treaps whose key ranges are ordered (max(a) < min(b)).
func merge[V any](a, b *node[V]) *node[V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if beats(a.prio, a.k, b.prio, b.k) {
		c := *a
		c.r = merge(a.r, b)
		c.size = a.size + b.size
		return &c
	}
	c := *b
	c.l = merge(a, b.l)
	c.size = a.size + b.size
	return &c
}

// buildTreap builds the canonical treap over a slice sorted by key in
// O(n), allocating exactly one node per entry: the Cartesian-tree
// construction over (key, keyPrio(key)). The stack holds the right spine
// of the tree so far; an arriving entry pops every spine node it beats
// (they become its left subtree) and hangs off the survivor's right. A
// node's children are both final when it is popped, so that is where its
// size is set. The result is the same tree one-at-a-time insertion builds
// — the treap over a key set is unique — without its O(n log n) discarded
// path copies.
func buildTreap[V any](vec []entry[V]) *node[V] {
	var spine []*node[V]
	pop := func() *node[V] {
		n := spine[len(spine)-1]
		spine = spine[:len(spine)-1]
		n.size = size(n.l) + size(n.r) + 1
		return n
	}
	for i := range vec {
		x := &node[V]{k: vec[i].k, v: vec[i].v, prio: keyPrio(vec[i].k)}
		for len(spine) > 0 {
			if top := spine[len(spine)-1]; !beats(x.prio, x.k, top.prio, top.k) {
				top.r = x
				break
			}
			x.l = pop()
		}
		spine = append(spine, x)
	}
	var root *node[V]
	for len(spine) > 0 {
		root = pop()
	}
	return root
}

// collapse flattens a treap that shrank to smallMax entries back into
// the sorted-slice form, keeping representation a function of content.
func collapse[V any](n *node[V]) []entry[V] {
	out := make([]entry[V], 0, n.size)
	rangeNodes(n, func(k string, v V) bool {
		out = append(out, entry[V]{k: k, v: v})
		return true
	})
	return out
}
