package experiments

import (
	"fmt"
	"os"

	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/value"
)

// DurabilityRun drives n external commits through a durable engine in the
// given mode (fsync disabled: nothing here is timed), closes it and
// returns how many WAL records the subsequent Restore replayed.
func DurabilityRun(n int, mode adb.Durability, snapEvery int) (replayed int) {
	dir, err := os.MkdirTemp("", "ptlactive-e10-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	cfg := adb.Config{
		Initial:       map[string]value.Value{"px": value.NewInt(100)},
		Durability:    mode,
		SnapshotEvery: snapEvery,
		NoFsync:       true,
	}
	eng, err := adb.Restore(cfg, dir)
	if err != nil {
		panic(err)
	}
	if err := eng.AddTrigger("spike",
		`@tick and item("px") > 110 and previously item("px") <= 110`, nil); err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		px := int64(100 + (i % 40) - 20) // deterministic sawtooth crossing 110
		if err := eng.Exec(int64(i+1), map[string]value.Value{"px": value.NewInt(px)}, event.New("tick")); err != nil {
			panic(err)
		}
	}
	if err := eng.Close(); err != nil {
		panic(err)
	}
	e2, err := adb.Restore(cfg, dir)
	if err != nil {
		panic(err)
	}
	replayed = e2.Recovery().ReplayedRecords
	e2.Close()
	return replayed
}

// E10Durability counts what a snapshot buys at recovery time: periodic
// snapshots turn recovery from full-history replay into bounded tail
// replay (Theorem 1's bounded evaluator state is what keeps the snapshot
// small). What the log costs a commit and what a replayed record costs a
// restart are timed by bench/ (persist.encode_us, persist.write_us,
// persist.recover_ms, persist.replay_us_per_record on durable-served).
func E10Durability(quick bool) Table {
	n := 2000
	if quick {
		n = 400
	}
	t := Table{
		ID:     "E10",
		Title:  "durability: snapshot-bounded recovery",
		Header: []string{"durability", "commits", "replayed records"},
		Notes: "without snapshots recovery replays the whole log (every commit, the rule " +
			"registration and the init record: commits + 2); with a snapshot every 64 records it " +
			"replays only the wal tail since the last checkpoint.",
	}
	for _, c := range []struct {
		label string
		mode  adb.Durability
		every int
	}{
		{"wal", adb.DurabilityWAL, 0},
		{"wal+snapshot/64", adb.DurabilitySnapshot, 64},
	} {
		replayed := DurabilityRun(n, c.mode, c.every)
		t.Rows = append(t.Rows, []string{c.label, fmt.Sprint(n), fmt.Sprint(replayed)})
	}
	return t
}
