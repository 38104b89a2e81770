package server

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// TestStorageQuery: the "storage" query reports the backend's storage
// footprint over the wire — segment and snapshot accounting for a
// durable engine, with the retired history-tier fields at zero — and a
// memory engine answers with zero persistence fields rather than an
// error (its backend still implements the capability).
func TestStorageQuery(t *testing.T) {
	dir := t.TempDir()
	eng, err := adb.Restore(adb.Config{
		Initial:    map[string]value.Value{"a": value.NewInt(0)},
		Durability: adb.DurabilityWAL,
		NoFsync:    true,
	}, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
	c := dial(t, addr)
	for ts := int64(1); ts <= 20; ts++ {
		if _, err := c.Exec(ts, map[string]value.Value{"a": value.NewInt(ts)}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Storage()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments == 0 || st.WALBytes == 0 || st.LastLSN == 0 {
		t.Fatalf("durable engine reported empty storage: %+v", st)
	}
	if st.HistoryWindow != 0 || st.HistoryFloor != 0 || st.SpillHistory || st.TierRows != 0 || st.TierBytes != 0 {
		t.Fatalf("retired history-tier fields not zero: %+v", st)
	}
}

func TestStorageQueryMemoryEngine(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dial(t, addr)
	st, err := c.Storage()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 0 || st.WALBytes != 0 || st.HistoryWindow != 0 {
		t.Fatalf("memory engine reported persistence state: %+v", st)
	}
}

// TestPipelineCompacts: the commit pipeline compacts its engine every
// compactEvery operations, so after 10·compactEvery commits a memory (on
// both engines) and a WAL-only durable backend each retain at most
// compactEvery+1 states, though one rule's event never occurs.
// Restoring the WAL-only directory replays the logged compactions to the
// same past (base, retained states, firings, database), and readers run
// beside the compactions throughout.
func TestPipelineCompacts(t *testing.T) {
	initial := map[string]value.Value{"a": value.NewInt(0)}
	dir := t.TempDir()
	cfg := adb.Config{Initial: initial, Durability: adb.DurabilityWAL, NoFsync: true}
	durable, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		eng  *adb.Engine
	}{
		{"memory", adb.NewEngine(adb.Config{Initial: initial})},
		{"coarse", adb.NewCoarseEngine(adb.Config{Initial: initial})},
		{"wal", durable},
	} {
		be := NewEngineBackend(tc.eng)
		be.GoRule("rise", `[x <- item("a")] lasttime item("a") < x`, false, int(adb.Eager), func(err error) {
			if err != nil {
				t.Errorf("%s: rule: %v", tc.name, err)
			}
		})
		// Never woken: no alarm occurs, and a Relevant rule that is not
		// temporal reads only the newest state when one does.
		be.GoRule("alarm", `@alarm(X)`, false, int(adb.Relevant), func(err error) {
			if err != nil {
				t.Errorf("%s: rule: %v", tc.name, err)
			}
		})
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for i := 0; i < 3; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					be.Now()
					if _, err := be.Items(); err != nil {
						t.Errorf("%s: items: %v", tc.name, err)
					}
					if _, _, err := be.Firings(0, math.MaxInt); err != nil {
						t.Errorf("%s: firings: %v", tc.name, err)
					}
				}
			}()
		}
		for ts := int64(1); ts <= 10*compactEvery; ts++ {
			be.GoTxn(ts, map[string]value.Value{"a": value.NewInt(ts % 7)}, nil, nil, func(ts int64, err error) {
				if err != nil {
					t.Errorf("%s: commit %d: %v", tc.name, ts, err)
				}
			})
		}
		be.Barrier()
		close(stop)
		readers.Wait()
		if n := tc.eng.History().Len(); n > compactEvery+1 {
			t.Errorf("%s: %d states retained after %d commits, want at most %d", tc.name, n, 10*compactEvery, compactEvery+1)
		}
		if len(tc.eng.Firings()) == 0 {
			t.Fatalf("%s: no firings; the test is vacuous", tc.name)
		}
		if err := be.Close(); err != nil {
			t.Fatal(err)
		}
	}

	restored, err := adb.Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := restored.BaseIndex(), durable.BaseIndex(); got != want || got == 0 {
		t.Errorf("restored base index %d, want %d (> 0)", got, want)
	}
	if got, want := restored.History().Len(), durable.History().Len(); got != want {
		t.Errorf("restored history holds %d states, want %d", got, want)
	}
	if got, want := restored.Firings(), durable.Firings(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored firings differ: %d, want %d", len(got), len(want))
	}
	if got, want := restored.DB(), durable.DB(); !got.Equal(want) {
		t.Errorf("restored database %v, want %v", got, want)
	}
}
