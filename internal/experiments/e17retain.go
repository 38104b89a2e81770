package experiments

import (
	"fmt"
	"os"

	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// e17Sample is one measurement point of a sustained-commit run: the
// engine's storage footprint after a given number of commits.
type e17Sample struct {
	commits int
	hot     int64 // WAL segments + snapshot chain, bytes
	segs    int
}

// e17Run drives commits commits through a durable engine under the given
// durability mode and retention policy, sampling the on-disk footprint
// at each point in at. Checkpoints run on the engine's own cadence;
// every sample syncs first so buffered bytes are on disk.
func e17Run(mode adb.Durability, ret adb.Retention, at []int) []e17Sample {
	dir, err := os.MkdirTemp("", "ptlactive-e17-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cfg := adb.Config{
		Initial:       map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(0)},
		Durability:    mode,
		SnapshotEvery: 256,
		NoFsync:       true,
		Retention:     ret,
	}
	eng, err := adb.Restore(cfg, dir)
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	var out []e17Sample
	done := 0
	for _, target := range at {
		for ; done < target; done++ {
			ts := int64(done + 1)
			if err := eng.Exec(ts, map[string]value.Value{
				"a": value.NewInt(ts % 97),
				"b": value.NewInt(ts),
			}); err != nil {
				panic(err)
			}
		}
		st, err := eng.Storage()
		if err != nil {
			panic(err)
		}
		out = append(out, e17Sample{
			commits: target,
			hot:     st.WALBytes + st.SnapshotBytes,
			segs:    st.Segments,
		})
	}
	return out
}

// E17BoundedDisk measures the on-disk footprint under sustained commits,
// with and without the storage lifecycle: an unbounded engine's WAL
// grows linearly forever, while segment rotation plus snapshot-chain GC
// holds the hot set (WAL + snapshots) flat. Every column is a byte or
// file count; what a restart over the retained footprint takes is
// bench/'s persist.recover_ms, and the footprint itself under served
// load is persist.disk_hot_kib (both on durable-served).
func E17BoundedDisk(quick bool) Table {
	at := []int{2000, 4000, 8000, 16000}
	if quick {
		at = []int{500, 1000, 2000, 4000}
	}
	t := Table{
		ID:     "E17",
		Title:  "disk footprint under sustained commits (WAL rotation + snapshot GC)",
		Header: []string{"config@commits", "hot KiB", "segments", "vs first"},
		Notes: "hot = live WAL segments + snapshot chain. Acceptance: the retained config's hot " +
			"ratio stays near 1x from first to last sample while unbounded grows with the commit " +
			"count.",
	}
	configs := []struct {
		name string
		mode adb.Durability
		ret  adb.Retention
	}{
		// The unbounded baseline is a WAL-only engine: no checkpoints, so
		// the single log holds every commit ever made and grows forever.
		{"unbounded", adb.DurabilityWAL, adb.Retention{}},
		{"retained", adb.DurabilitySnapshot, adb.Retention{SegmentBytes: 64 << 10, KeepSnapshots: 2}},
	}
	for _, cfg := range configs {
		samples := e17Run(cfg.mode, cfg.ret, at)
		first := samples[0].hot
		for _, s := range samples {
			ratio := "-"
			if first > 0 {
				ratio = fmt.Sprintf("%.2f", float64(s.hot)/float64(first))
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%s@%d", cfg.name, s.commits),
				fmt.Sprintf("%.0f", float64(s.hot)/1024),
				fmt.Sprint(s.segs),
				ratio,
			})
		}
	}
	return t
}
