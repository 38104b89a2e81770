package pmap

import "fmt"

// SetPrioForTesting replaces the treap priority hash and returns a
// restore function. Tests use it to force priority collisions (every
// key tied, exercising the key tie-break until the tree degenerates)
// and adversarial shapes. Maps built under different priority functions
// must not be mixed, so tests restore before leaving.
func SetPrioForTesting(f func(string) uint64) (restore func()) {
	old := keyPrio
	keyPrio = f
	return func() { keyPrio = old }
}

// Fingerprint returns a preorder walk of the internal structure — keys
// plus a shape marker per node — so tests can assert that the
// representation is canonical: the same contents produce byte-identical
// fingerprints regardless of the operation order that built the map.
func (m Map[V]) Fingerprint() string {
	if m.root == nil {
		out := "vec:"
		for i := range m.vec {
			out += m.vec[i].k + ","
		}
		return out
	}
	return "treap:" + fingerprint(m.root)
}

func fingerprint[V any](n *node[V]) string {
	if n == nil {
		return "."
	}
	return "(" + n.k + " " + fingerprint(n.l) + " " + fingerprint(n.r) + ")"
}

// depth returns the height of the treap (0 for slice form), for the
// balance sanity test.
func (m Map[V]) Depth() int {
	var d func(*node[V]) int
	d = func(n *node[V]) int {
		if n == nil {
			return 0
		}
		dl, dr := d(n.l), d(n.r)
		if dr > dl {
			dl = dr
		}
		return dl + 1
	}
	return d(m.root)
}

// Validate checks every node's cached size and priority against its
// children, and the BST order — the invariants a bulk build must establish
// without the insert path's help.
func (m Map[V]) Validate() error {
	var walk func(n *node[V]) error
	walk = func(n *node[V]) error {
		if n == nil {
			return nil
		}
		if n.size != size(n.l)+size(n.r)+1 {
			return fmt.Errorf("node %q: size %d, children %d+%d", n.k, n.size, size(n.l), size(n.r))
		}
		if n.prio != keyPrio(n.k) {
			return fmt.Errorf("node %q: stale priority", n.k)
		}
		for _, c := range []*node[V]{n.l, n.r} {
			if c != nil && !beats(n.prio, n.k, c.prio, c.k) {
				return fmt.Errorf("node %q: heap order broken at child %q", n.k, c.k)
			}
		}
		if n.l != nil && n.l.k >= n.k || n.r != nil && n.r.k <= n.k {
			return fmt.Errorf("node %q: key order broken", n.k)
		}
		if err := walk(n.l); err != nil {
			return err
		}
		return walk(n.r)
	}
	return walk(m.root)
}

// UnsharedNodes counts the nodes of m that are not pointer-shared with o at
// the same position: after one With on a treap, exactly the copied path.
func (m Map[V]) UnsharedNodes(o Map[V]) int {
	var walk func(a, b *node[V]) int
	walk = func(a, b *node[V]) int {
		if a == nil || a == b {
			return 0
		}
		if b == nil {
			return a.size
		}
		return 1 + walk(a.l, b.l) + walk(a.r, b.r)
	}
	return walk(m.root, o.root)
}
