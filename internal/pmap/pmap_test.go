package pmap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func eqInt(a, b int) bool { return a == b }

// version pairs a persistent map with an independent snapshot of the
// plain-map reference model at the moment the version was created.
type version struct {
	m     Map[int]
	model map[string]int
}

func snapshot(model map[string]int) map[string]int {
	out := make(map[string]int, len(model))
	for k, v := range model {
		out[k] = v
	}
	return out
}

// checkAgainst verifies a map against its reference model completely:
// length, every key, misses, sorted iteration, and Items-style output.
func checkAgainst(t *testing.T, m Map[int], model map[string]int) {
	t.Helper()
	if m.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", m.Len(), len(model))
	}
	for k, want := range model {
		got, ok := m.Get(k)
		if !ok || got != want {
			t.Fatalf("Get(%q) = %d,%v; model %d", k, got, ok, want)
		}
	}
	if _, ok := m.Get("\x00never-a-key"); ok {
		t.Fatalf("Get on absent key reported present")
	}
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	m.Range(func(k string, v int) bool {
		if i >= len(keys) || k != keys[i] || v != model[k] {
			t.Fatalf("Range[%d] = %q,%d; want %q,%d", i, k, v, keys[i], model[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("Range visited %d of %d", i, len(keys))
	}
}

// modelDiff computes the expected Diff output from two model snapshots.
func modelDiff(a, b map[string]int) []string {
	seen := map[string]bool{}
	var out []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			out = append(out, k)
			seen[k] = true
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok && !seen[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func collectDiff(a, b Map[int]) []string {
	var out []string
	a.Diff(b, eqInt, func(k string) bool {
		out = append(out, k)
		return true
	})
	return out
}

// runModelTest drives a long random interleaving of With / WithAll /
// Without / Get / Equal / Diff against the reference model, retaining
// every tenth version and re-verifying all retained versions after
// every mutation — old versions must be immutable forever (no aliasing
// between versions).
func runModelTest(t *testing.T, rng *rand.Rand, keys []string, steps int) {
	t.Helper()
	cur := version{model: map[string]int{}}
	var old []version
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // With
			k := keys[rng.Intn(len(keys))]
			v := rng.Intn(1000)
			cur = version{m: cur.m.With(k, v), model: snapshot(cur.model)}
			cur.model[k] = v
		case op < 6: // WithAll
			ups := map[string]int{}
			for n := rng.Intn(5); n >= 0; n-- {
				ups[keys[rng.Intn(len(keys))]] = rng.Intn(1000)
			}
			next := snapshot(cur.model)
			for k, v := range ups {
				next[k] = v
			}
			cur = version{m: cur.m.WithAll(ups), model: next}
		case op < 8: // Without
			k := keys[rng.Intn(len(keys))]
			next := snapshot(cur.model)
			delete(next, k)
			cur = version{m: cur.m.Without(k), model: next}
		case op < 9: // Equal against a random retained version
			if len(old) > 0 {
				o := old[rng.Intn(len(old))]
				want := len(modelDiff(cur.model, o.model)) == 0
				if got := cur.m.Equal(o.m, eqInt); got != want {
					t.Fatalf("step %d: Equal = %v, model %v", step, got, want)
				}
			}
		default: // Diff against a random retained version
			if len(old) > 0 {
				o := old[rng.Intn(len(old))]
				got := collectDiff(cur.m, o.m)
				want := modelDiff(cur.model, o.model)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: Diff = %v, model %v", step, got, want)
				}
			}
		}
		if step%10 == 0 {
			old = append(old, cur)
		}
		if step%25 == 0 {
			checkAgainst(t, cur.m, cur.model)
			// Old versions must read exactly as they did when retained.
			for _, o := range old {
				checkAgainst(t, o.m, o.model)
			}
		}
	}
	checkAgainst(t, cur.m, cur.model)
	for _, o := range old {
		checkAgainst(t, o.m, o.model)
	}
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("item%03d", i)
	}
	return keys
}

// oddKeys are keys an eight-byte prefix cannot order alone: the empty
// key, keys shorter than eight bytes that a trailing NUL extends, keys
// sharing more than eight bytes, and bytes at and above 0x80.
func oddKeys() []string {
	keys := []string{"", "a", "a\x00", "ab", "abcdefgh", "abcdefgh\x00", "abcdefgh\x00\x00", "\x00", "\x80", "\xff", "\xff\xfe", "\xffz", "é", "z\x80"}
	for i := 0; i < 30; i++ {
		keys = append(keys, fmt.Sprintf("session_user_%04d", i))
	}
	return keys
}

func TestPMapModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			// Key universes straddling the slice/treap boundary in both
			// directions, so transitions are crossed constantly.
			runModelTest(t, rand.New(rand.NewSource(seed)), testKeys(6), 600)
			runModelTest(t, rand.New(rand.NewSource(seed)), testKeys(12), 800)
			runModelTest(t, rand.New(rand.NewSource(seed)), testKeys(80), 1500)
			runModelTest(t, rand.New(rand.NewSource(seed)), oddKeys(), 1200)
		})
	}
}

// TestPMapModelCollisions forces priority-collision paths through a
// test-seam hash: all-tied priorities (pure key tie-break, the tree
// degenerates to a spine) and a 4-bucket hash (long tie runs).
func TestPMapModelCollisions(t *testing.T) {
	t.Run("allTied", func(t *testing.T) {
		restore := SetPrioForTesting(func(string) uint64 { return 7 })
		defer restore()
		runModelTest(t, rand.New(rand.NewSource(42)), testKeys(40), 1200)
		runModelTest(t, rand.New(rand.NewSource(44)), oddKeys(), 1200)
	})
	t.Run("fourBuckets", func(t *testing.T) {
		restore := SetPrioForTesting(func(k string) uint64 { return fnvPrio(k) % 4 })
		defer restore()
		runModelTest(t, rand.New(rand.NewSource(43)), testKeys(40), 1200)
		runModelTest(t, rand.New(rand.NewSource(45)), oddKeys(), 1200)
	})
}

// TestPMapCanonicalShape asserts the unique-representation invariant:
// the same contents produce byte-identical internal structure whatever
// operation order built the map — the property Equal and Diff rely on
// to align two maps node by node.
func TestPMapCanonicalShape(t *testing.T) {
	keys := testKeys(50)
	rng := rand.New(rand.NewSource(99))
	want := ""
	for trial := 0; trial < 10; trial++ {
		order := rng.Perm(len(keys))
		m := Map[int]{}
		for _, i := range order {
			m = m.With(keys[i], i)
		}
		// Insert and remove some extra keys so deletions are covered too.
		for j := 0; j < 10; j++ {
			k := fmt.Sprintf("extra%02d", rng.Intn(20))
			m = m.With(k, j)
			defer func() {}() // keep loop shape clear
			m = m.Without(k)
		}
		fp := m.Fingerprint()
		if trial == 0 {
			want = fp
		} else if fp != want {
			t.Fatalf("trial %d: fingerprint diverged:\n%s\nvs\n%s", trial, fp, want)
		}
	}
}

// TestPMapSharing asserts structural sharing: a one-key update of a
// large map must report only that key in Diff and stay Equal-fast via
// pointer cutoffs (we can only observe correctness here; the alloc test
// below observes the cost).
func TestPMapSharing(t *testing.T) {
	m := Map[int]{}
	for _, k := range testKeys(1000) {
		m = m.With(k, 1)
	}
	m2 := m.With("item500", 2)
	if d := collectDiff(m, m2); len(d) != 1 || d[0] != "item500" {
		t.Fatalf("Diff after one update = %v", d)
	}
	m3 := m.Without("item007")
	if d := collectDiff(m, m3); len(d) != 1 || d[0] != "item007" {
		t.Fatalf("Diff after one delete = %v", d)
	}
	if !m.Equal(m, eqInt) {
		t.Fatalf("map not Equal to itself")
	}
	if m.Equal(m2, eqInt) || m.Equal(m3, eqInt) {
		t.Fatalf("distinct versions compared Equal")
	}
	// Early termination of Diff and Range.
	calls := 0
	m.Diff(Map[int]{}, eqInt, func(string) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Diff ignored early stop: %d calls", calls)
	}
	calls = 0
	m.Range(func(string, int) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("Range ignored early stop: %d calls", calls)
	}
}

// TestPMapDepth sanity-checks the expected O(log n) shape under the
// production hash: a 100k-key treap must stay within a small multiple
// of log2(n) (~17), far from the degenerate spine.
func TestPMapDepth(t *testing.T) {
	m := Map[int]{}
	for i := 0; i < 100000; i++ {
		m = m.With(fmt.Sprintf("item%06d", i), i)
	}
	if d := m.Depth(); d > 5*17 {
		t.Fatalf("treap depth %d for 100k keys; hash is misbehaving", d)
	}
}

// TestPMapAllocs is the allocation-regression gate for the small-update
// operations the commit hot path performs, so the structural-sharing
// win cannot silently rot back into O(n) copying.
func TestPMapAllocs(t *testing.T) {
	small := Map[int]{}
	for _, k := range testKeys(4) {
		small = small.With(k, 1)
	}
	big := Map[int]{}
	for i := 0; i < 100000; i++ {
		big = big.With(fmt.Sprintf("item%06d", i), i)
	}
	prev := big
	big2 := big.With("item050000", -1)
	// A write set of three present keys copies the union of their search
	// paths once: one node per distinct node on the paths, and at most one
	// allocation of scratch.
	three := map[string]int{"item012345": 1, "item050000": 2, "item087654": 3}
	onPaths := map[*node[int]]bool{}
	for k := range three {
		for n := big.root; n != nil; {
			onPaths[n] = true
			switch {
			case k == n.k:
				n = nil
			case k < n.k:
				n = n.l
			default:
				n = n.r
			}
		}
	}

	cases := []struct {
		name  string
		limit float64
		fn    func()
	}{
		// Slice form: exactly one slice allocation per update.
		{"smallWith", 1, func() { small.With("item002", 9) }},
		// Treap form: one node per copied path level; expected depth for
		// 100k keys is ~2·ln n ≈ 23. The bound is loose enough for hash
		// variance, tight enough that an O(n) copy (100k allocs) or a
		// degenerate spine can never pass.
		{"bigWith", 96, func() { big.With("item050000", -1) }},
		{"bigWithout", 96, func() { big.Without("item050000") }},
		{"get", 0, func() { big.Get("item099999") }},
		// Sharing-aware comparisons of adjacent versions allocate nothing.
		{"equalShared", 0, func() { prev.Equal(big2, eqInt) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(200, c.fn); got > c.limit {
				t.Fatalf("%s: %.1f allocs/op, limit %.0f", c.name, got, c.limit)
			}
		})
	}
	t.Run("bigWithAll", func(t *testing.T) {
		got := testing.AllocsPerRun(200, func() { big.WithAll(three) })
		if got < float64(len(onPaths)) || got > float64(len(onPaths)+1) {
			t.Fatalf("bigWithAll: %.1f allocs/op, union of the search paths %d", got, len(onPaths))
		}
	})
}

// TestPMapBulkBuild pins the O(n) construction behind WithAll on an empty
// or slice-form receiver to the one-at-a-time build it replaces: the same
// tree node for node (shapes are canonical, so anything else would break
// Equal and Diff's alignment), under the production hash and under the
// forced-collision hashes, and a later With on it path-copies one root-to-
// node path and shares everything else.
func TestPMapBulkBuild(t *testing.T) {
	check := func(t *testing.T, base Map[int], keys []string) {
		t.Helper()
		ups := make(map[string]int, len(keys))
		inc := base
		for i, k := range keys {
			ups[k] = i
			inc = inc.With(k, i)
		}
		bulk := base.WithAll(ups)
		for _, m := range []Map[int]{bulk, inc} {
			if err := m.Validate(); err != nil {
				t.Fatalf("build of %d keys: %v", len(keys), err)
			}
		}
		if got, want := bulk.Fingerprint(), inc.Fingerprint(); got != want {
			t.Fatalf("bulk build of %d keys diverges from incremental:\n%s\nvs\n%s", len(keys), got, want)
		}
		if d := collectDiff(bulk, inc); len(d) != 0 || !bulk.Equal(inc, eqInt) {
			t.Fatalf("bulk build of %d keys: Diff %v against incremental", len(keys), d)
		}
		if bulk.Len() <= smallMax {
			return
		}
		k := keys[len(keys)/2]
		next := bulk.With(k, -1)
		depth := 1
		for n := next.root; n.k != k; depth++ {
			if k < n.k {
				n = n.l
			} else {
				n = n.r
			}
		}
		if got := next.UnsharedNodes(bulk); got != depth {
			t.Fatalf("With on a bulk-built map copied %d nodes, path is %d", got, depth)
		}
	}
	sizes := func(t *testing.T, rng *rand.Rand) {
		sets := [][]string{oddKeys(), append(oddKeys(), testKeys(40)...), oddKeys()[:smallMax+1]}
		for _, n := range []int{0, 1, smallMax, smallMax + 1, 40, 500} {
			sets = append(sets, testKeys(n))
		}
		for _, keys := range sets {
			rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
			check(t, Map[int]{}, keys)
			// A slice-form receiver whose entries the updates partly shadow.
			small := Map[int]{}.With("item001", -7).With("zz", -8).With("aa", -9)
			check(t, small, keys)
		}
	}
	t.Run("production", func(t *testing.T) { sizes(t, rand.New(rand.NewSource(5))) })
	t.Run("allTied", func(t *testing.T) {
		defer SetPrioForTesting(func(string) uint64 { return 7 })()
		sizes(t, rand.New(rand.NewSource(6)))
	})
	t.Run("fourBuckets", func(t *testing.T) {
		defer SetPrioForTesting(func(k string) uint64 { return fnvPrio(k) % 4 })()
		sizes(t, rand.New(rand.NewSource(7)))
	})
	t.Run("depth", func(t *testing.T) {
		ups := make(map[string]int, 100000)
		for i := 0; i < 100000; i++ {
			ups[fmt.Sprintf("item%06d", i)] = i
		}
		m := Map[int]{}.WithAll(ups)
		if d := m.Depth(); d > 5*17 {
			t.Fatalf("bulk-built treap depth %d for 100k keys", d)
		}
		if got := testing.AllocsPerRun(1, func() { Map[int]{}.WithAll(ups) }); got > 100000+64 {
			t.Fatalf("bulk build of 100k keys: %.0f allocations, want one per node plus scratch", got)
		}
	})
}
