package server

import (
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
	_, addr := startServer(t, Config{Engine: eng})
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
