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
// at pointer-shared subtrees. A node is its key, value, priority and two
// children (the Map keeps the count); a map outgrowing the slice form is
// built whole in one radix-sorted pass, and WithAll on a treap copies each
// node its present keys' search paths share once.
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

import (
	"cmp"
	"slices"
)

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
}

// Map is an immutable, persistent, ordered map. The zero value is the
// empty map.
type Map[V any] struct {
	vec  []entry[V] // sorted by key; used iff root is nil
	root *node[V]
	n    int // entries under root
}

// Len returns the number of entries.
func (m Map[V]) Len() int {
	if m.root != nil {
		return m.n
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
		m.root = insert(m.root, k, v, keyPrio(k), &m.n)
		return m
	}
	i := vecSearch(m.vec, k)
	if i < len(m.vec) && m.vec[i].k == k {
		out := make([]entry[V], len(m.vec))
		copy(out, m.vec)
		out[i].v = v
		return Map[V]{vec: out}
	}
	if len(m.vec) == smallMax {
		return m.WithAll(map[string]V{k: v})
	}
	out := make([]entry[V], len(m.vec)+1)
	copy(out, m.vec[:i])
	out[i] = entry[V]{k: k, v: v}
	copy(out[i+1:], m.vec[i:])
	return Map[V]{vec: out}
}

// WithAll returns a new map with every update applied. A small map that
// stays small is rebuilt in a single allocation and one that outgrows
// smallMax is built whole.
func (m Map[V]) WithAll(updates map[string]V) Map[V] {
	if len(updates) == 0 {
		return m
	}
	if m.root != nil {
		return m.assignAll(updates)
	}
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
	ps := make([]keyed[V], 0, len(m.vec)+fresh)
	for _, e := range m.vec {
		if _, shadowed := updates[e.k]; !shadowed {
			ps = append(ps, leaf(e.k, e.v))
		}
	}
	for k, v := range updates {
		ps = append(ps, leaf(k, v))
	}
	return build(ps)
}

// assignAll is WithAll on a treap. A single key is With; more are sorted
// (on the stack up to smallMax) and one descent stores the present ones,
// copying each node on their search paths once; absent ones are inserted.
func (m Map[V]) assignAll(updates map[string]V) Map[V] {
	if len(updates) == 1 {
		for k, v := range updates {
			return m.With(k, v)
		}
	}
	var buf [smallMax]string
	keys := buf[:0]
	for k := range updates {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	root, found := assign(m.root, keys, updates)
	out := Map[V]{root: root, n: m.n}
	for i := 0; found < len(keys); i++ {
		if _, ok := m.Get(keys[i]); !ok {
			out = out.With(keys[i], updates[keys[i]])
			found++
		}
	}
	return out
}

// assign returns n with updates stored at the sorted keys present below
// it, and how many were; a subtree holding none is returned as it is.
func assign[V any](n *node[V], keys []string, updates map[string]V) (*node[V], int) {
	if n == nil || len(keys) == 0 {
		return n, 0
	}
	i, hit := slices.BinarySearch(keys, n.k)
	l, fl := assign(n.l, keys[:i], updates)
	if hit {
		i++
	}
	r, fr := assign(n.r, keys[i:], updates)
	if !hit && l == n.l && r == n.r {
		return n, 0
	}
	c := *n
	c.l, c.r = l, r
	if hit {
		c.v = updates[n.k]
		fl++
	}
	return &c, fl + fr
}

// Without returns a new map with k removed; m itself is returned when k
// is absent.
func (m Map[V]) Without(k string) Map[V] {
	if m.root != nil {
		root, ok := remove(m.root, k)
		if !ok {
			return m
		}
		if m.n-1 == smallMax {
			return Map[V]{vec: collapse(root)}
		}
		return Map[V]{root: root, n: m.n - 1}
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
	if a == nil || b == nil || a.k != b.k {
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

// insert returns the canonical treap holding n's entries plus k=v,
// counting a new key in *count. Nodes along the search path are copied;
// the rotations restoring the heap order touch only those fresh copies,
// never shared structure.
func insert[V any](n *node[V], k string, v V, p uint64, count *int) *node[V] {
	if n == nil {
		*count++
		return &node[V]{k: k, v: v, prio: p}
	}
	c := *n
	switch {
	case k == n.k:
		c.v = v
	case k < n.k:
		c.l = insert(n.l, k, v, p, count)
		if beats(c.l.prio, c.l.k, c.prio, c.k) {
			return rotRight(&c)
		}
	default:
		c.r = insert(n.r, k, v, p, count)
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
	l.r = c
	return l
}

func rotLeft[V any](c *node[V]) *node[V] {
	r := c.r
	c.r = r.l
	r.l = c
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
		return &c, true
	default:
		r, ok := remove(n.r, k)
		if !ok {
			return n, false
		}
		c := *n
		c.r = r
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
		return &c
	}
	c := *b
	c.l = merge(a, b.l)
	return &c
}

type keyed[V any] struct {
	pre uint64 // n.k's first eight bytes, big-endian, zero-padded
	n   *node[V]
}

func leaf[V any](k string, v V) keyed[V] {
	var pre uint64
	for i := 0; i < 8 && i < len(k); i++ {
		pre |= uint64(k[i]) << (56 - 8*i)
	}
	return keyed[V]{pre: pre, n: &node[V]{k: k, v: v, prio: keyPrio(k)}}
}

// build links ps's nodes (distinct keys) into the canonical treap. An LSD
// radix sort orders them by prefix, skipping bytes every prefix shares; a
// comparison sort orders each run of equal prefixes, so short keys, NUL
// bytes and long shared prefixes stay exact. The Cartesian-tree pass keeps
// the right spine on a stack: a node pops those it beats into its left side.
func build[V any](ps []keyed[V]) Map[V] {
	var differ uint64
	for _, p := range ps {
		differ |= p.pre ^ ps[0].pre
	}
	src, dst := ps, make([]keyed[V], len(ps))
	for shift := 0; shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var at [257]int
		for _, p := range src {
			at[p.pre>>shift&0xff+1]++
		}
		for b := 1; b < 256; b++ {
			at[b] += at[b-1]
		}
		for _, p := range src {
			b := p.pre >> shift & 0xff
			dst[at[b]] = p
			at[b]++
		}
		src, dst = dst, src
	}
	for i, j := 0, 1; i < len(src); i, j = j, j+1 {
		for j < len(src) && src[j].pre == src[i].pre {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(src[i:j], func(a, b keyed[V]) int { return cmp.Compare(a.n.k, b.n.k) })
		}
	}
	spine := make([]*node[V], 0, 64)
	for _, p := range src {
		x := p.n
		for len(spine) > 0 {
			top := spine[len(spine)-1]
			if !beats(x.prio, x.k, top.prio, top.k) {
				top.r = x
				break
			}
			x.l = top
			spine = spine[:len(spine)-1]
		}
		spine = append(spine, x)
	}
	return Map[V]{root: spine[0], n: len(ps)}
}

// collapse flattens a treap that shrank to smallMax entries back into
// the sorted-slice form, keeping representation a function of content.
func collapse[V any](n *node[V]) []entry[V] {
	out := make([]entry[V], 0, smallMax)
	rangeNodes(n, func(k string, v V) bool {
		out = append(out, entry[V]{k: k, v: v})
		return true
	})
	return out
}
