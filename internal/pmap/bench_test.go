package pmap

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchKey(i int) string { return fmt.Sprintf("k%06d", i) }

// BenchmarkWithAll is one commit's state update on the 100k-item
// workloads: a Zipf(1.1) write set of 1–3 present keys, as benchSparse in
// internal/adb draws them, applied to the previous state.
func BenchmarkWithAll(b *testing.B) {
	const items = 100000
	all := make(map[string]int, items)
	for i := 0; i < items; i++ {
		all[benchKey(i)] = i
	}
	m := Map[int]{}.WithAll(all)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, items-1)
	sets := make([]map[string]int, 4096)
	for i := range sets {
		sets[i] = map[string]int{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			sets[i][benchKey(int(zipf.Uint64()))] = rng.Intn(1000)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = m.WithAll(sets[i%len(sets)])
	}
}

// BenchmarkBuild is a state built from an item map, as history.NewDB
// builds an engine's initial state.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{40, 1000, 100000} {
		items := make(map[string]int, n)
		for i := 0; i < n; i++ {
			items[benchKey(i)] = i
		}
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Map[int]{}.WithAll(items)
			}
		})
	}
}
