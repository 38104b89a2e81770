package adb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"testing"

	"ptlactive/internal/histio"
	"ptlactive/internal/history"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// everyKind is an initial database holding each value kind, with the floats
// JSON numbers cannot carry and a string that needs escaping.
func everyKind() map[string]value.Value {
	return map[string]value.Value{
		"int":   value.NewInt(-7),
		"float": value.NewFloat(2.5),
		"nan":   value.NewFloat(math.NaN()),
		"pinf":  value.NewFloat(math.Inf(1)),
		"ninf":  value.NewFloat(math.Inf(-1)),
		"str":   value.NewString("q\" b\\ nl\n tab\t <&>   \x01 é"),
		"bool":  value.NewBool(true),
		"null":  {},
		"tuple": value.NewTuple(value.NewInt(1), value.NewString("x"), value.Value{}),
		"rel": value.NewRelation([][]value.Value{
			{value.NewInt(1), value.NewFloat(0.5)},
			{value.NewInt(2), value.NewBool(false)},
		}),
	}
}

// TestInitRecordBytesEveryKind checks that the init record, encoded from
// the engine's initial state when it is needed, is byte for byte the record
// histio.EncodeItems makes of the original map: in a fresh engine's
// snapshot (taken after later commits and a compaction replaced the initial
// state), in the snapshot of the engine restored from it, in a durable
// engine's KindInit record, and in a follower bootstrapped from that record.
func TestInitRecordBytesEveryKind(t *testing.T) {
	initial := everyKind()
	items, err := histio.EncodeItems(initial)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(&persist.InitRecord{Initial: items, Start: 3, CascadeLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	check := func(src string, rec *persist.InitRecord) {
		t.Helper()
		if rec == nil {
			t.Fatalf("%s: no init record", src)
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: init record\n got %s\nwant %s", src, got, want)
		}
	}
	snapshot := func(src string, e *Engine) ([]byte, *persist.EngineSnapshot) {
		t.Helper()
		var buf bytes.Buffer
		if err := e.SaveSnapshot(&buf); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		snap, err := persist.DecodeSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		check(src, snap.Init)
		return buf.Bytes(), snap
	}
	commit := func(e *Engine) {
		t.Helper()
		for ts := int64(4); ts < 7; ts++ {
			if err := e.Exec(ts, map[string]value.Value{"int": value.NewInt(ts), "str": value.NewString("later")}); err != nil {
				t.Fatal(err)
			}
		}
	}

	mem := NewEngine(Config{Initial: initial, Start: 3})
	commit(mem)
	if mem.Compact() == 0 {
		t.Fatal("compaction dropped nothing: the initial state is still in the history")
	}
	first, snap := snapshot("memory engine", mem)
	restored, err := engineFromSnapshot(Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := snapshot("restored engine", restored); !bytes.Equal(again, first) {
		t.Fatalf("restored engine's snapshot differs:\n got %s\nwant %s", again, first)
	}

	dur, err := Restore(Config{Durability: DurabilityWAL, NoFsync: true, Initial: initial, Start: 3}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	commit(dur)
	chunks, err := dur.WALReadFrom(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var whole []byte
	for _, c := range chunks {
		whole = append(whole, c.Data...)
	}
	recs, _, err := persist.ParseFrames(whole)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Kind != persist.KindInit {
		t.Fatalf("the log does not open with an init record: %d records", len(recs))
	}
	check("durable engine's log", recs[0].Init)

	fol, err := OpenFollower(Config{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	if _, err := fol.ApplyFrames(whole, 0); err != nil {
		t.Fatal(err)
	}
	rec, err := fol.Engine().initRecord()
	if err != nil {
		t.Fatal(err)
	}
	check("follower", rec)
	snapshot("follower's snapshot", fol.Engine())
}

// TestMemoryEngineKeepsNoEncodedItems checks that a memory engine holds its
// initial items once, in the state it builds from them: its live heap after
// NewEngine over 100k items stays below 1.3 times that state's own. A kept
// JSON copy of the items comes to more than twice the state.
func TestMemoryEngineKeepsNoEncodedItems(t *testing.T) {
	const n = 100_000
	initial := make(map[string]value.Value, n)
	for i := 0; i < n; i++ {
		initial[fmt.Sprintf("item%06d", i)] = value.NewInt(int64(i))
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	db := history.NewDB(initial)
	state := live() - before
	runtime.KeepAlive(db)
	before = live()
	e := NewEngine(Config{Initial: initial})
	engine := live() - before
	runtime.KeepAlive(e)
	// The map must outlive both measures: freed in between, it would
	// offset what the engine holds.
	runtime.KeepAlive(initial)
	if float64(engine) > 1.3*float64(state) {
		t.Fatalf("engine over %d items holds %d B, its initial state %d B (%.2fx, ceiling 1.3x)",
			n, engine, state, float64(engine)/float64(state))
	}
}
