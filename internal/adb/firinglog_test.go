package adb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/histio"
	"ptlactive/internal/persist"
	"ptlactive/internal/ptlgen"
	"ptlactive/internal/value"
)

// TestFiringLogReadEquivalence holds the compact firing log to the firings
// it was given. Over random parameterised rule sets — ptlgen.ParamFormula
// rules, a closed rule, and a rule whose bindings bind U or nothing — on
// the fast and on the general evaluator, fed a random history:
//   - Firings() and FiringsFrom(k), for every k, deep-equal the OnFiring
//     stream, closed firings' empty bindings included;
//   - the engine's snapshot restores to the same Firings();
//   - the snapshot's FiringSnapshot bytes equal the ones encoding each
//     streamed firing's Binding map writes, and the restored engine's too.
func TestFiringLogReadEquivalence(t *testing.T) {
	var closed, param, mixed int
	for seed := 0; seed < 40; seed++ {
		for _, general := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(9100 + seed)))
			conds := []string{`@e1(U) or item("a") > 3`, ptlgen.Formula(rng, 2).String()}
			for i := 0; i < 4; i++ {
				conds = append(conds, ptlgen.ParamFormula(rng, 1+rng.Intn(3)).String())
			}
			h := ptlgen.ParamHistory(rng, 40)
			initial := map[string]value.Value{}
			for _, name := range h.At(0).DB.Items() {
				initial[name], _ = h.At(0).DB.Get(name)
			}
			e := NewEngine(Config{Initial: initial, Start: h.At(0).TS})
			for i, c := range conds {
				if err := e.AddTrigger(fmt.Sprintf("r%d", i), c, nil); err != nil {
					t.Fatalf("seed %d: rule r%d %s: %v", seed, i, c, err)
				}
			}
			if general {
				for _, r := range e.rules {
					ev, err := core.New(r.info, e.reg, e)
					if err != nil {
						t.Fatal(err)
					}
					r.ev = ev
				}
			}
			var stream []Firing
			e.OnFiring(func(f Firing) { stream = append(stream, f) })
			for i := 1; i < h.Len(); i++ {
				st := h.At(i)
				if st.Events.CommitCount() == 0 {
					e.Emit(st.TS, st.Events.Events()...) // a rule's step error leaves the log consistent
					continue
				}
				tx := e.Begin()
				for _, name := range st.DB.Items() {
					v, _ := st.DB.Get(name)
					tx.Set(name, v)
				}
				for _, ev := range st.Events.Events() {
					if ev.Name != event.TransactionCommit {
						tx.Emit(ev)
					}
				}
				tx.Commit(st.TS)
			}
			where := fmt.Sprintf("seed %d general=%v", seed, general)

			if got := e.Firings(); !sameFirings(got, stream) {
				t.Fatalf("%s: Firings() differs from the OnFiring stream:\n got %v\nwant %v", where, got, stream)
			}
			for k := -1; k <= len(stream)+1; k++ {
				want := min(max(k, 0), len(stream))
				from, got := e.FiringsFrom(k, math.MaxInt)
				if from != want || !sameFirings(got, stream[want:]) {
					t.Fatalf("%s: FiringsFrom(%d) = %d, %v; want %d, %v", where, k, from, got, want, stream[want:])
				}
			}

			snap, err := e.buildSnapshot()
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			wantBytes := mapEncodedFirings(t, stream)
			if got := firingBytes(t, snap.Firings); !bytes.Equal(got, wantBytes) {
				t.Fatalf("%s: snapshot firings\n got %s\nwant %s", where, got, wantBytes)
			}
			restored, err := engineFromSnapshot(Config{}, snap)
			if err != nil {
				t.Fatalf("%s: restore: %v", where, err)
			}
			if got := restored.Firings(); !sameFirings(got, stream) {
				t.Fatalf("%s: restored Firings() differs:\n got %v\nwant %v", where, got, stream)
			}
			again, err := restored.buildSnapshot()
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if got := firingBytes(t, again.Firings); !bytes.Equal(got, wantBytes) {
				t.Fatalf("%s: restored snapshot firings\n got %s\nwant %s", where, got, wantBytes)
			}

			for _, f := range stream {
				if len(f.Binding) == 0 {
					closed++
				} else {
					param++
				}
			}
			for _, shapes := range e.firings.shapes {
				if len(shapes) > 1 {
					mixed++
				}
			}
		}
	}
	t.Logf("%d closed and %d parameterised firings; %d rules bound more than one key set", closed, param, mixed)
	if closed == 0 || param == 0 || mixed == 0 {
		t.Fatalf("the rule sets left a case out: %d closed and %d parameterised firings, %d rules with mixed key sets", closed, param, mixed)
	}
}

// sameFirings is reflect.DeepEqual on the firings, but an empty and a nil
// slice are alike.
func sameFirings(a, b []Firing) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// mapEncodedFirings is the snapshot's firing section as the map-based
// encoder wrote it: each firing's Binding map encoded item by item.
func mapEncodedFirings(t *testing.T, fs []Firing) []byte {
	t.Helper()
	var out []persist.FiringSnapshot
	for _, f := range fs {
		binding, err := histio.EncodeItems(f.Binding)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, persist.FiringSnapshot{Rule: f.Rule, Binding: binding, Time: f.Time, StateIndex: f.StateIndex})
	}
	return firingBytes(t, out)
}

func firingBytes(t *testing.T, fs []persist.FiringSnapshot) []byte {
	t.Helper()
	raw, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFiringLogConcurrentReader reads the log beside the mutator that grows
// it: FiringsFrom builds its maps after releasing the lock, from rows and
// values appended before it, while appends fill the chunks past them and
// the first chunk moves as it grows. Every firing read must carry the
// binding it was logged with (A = its time, B = its time mod 7).
func TestFiringLogConcurrentReader(t *testing.T) {
	e := NewEngine(Config{})
	if err := e.AddTrigger("tick", "@tick(A, B)", nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; ; k += 997 {
				select {
				case <-done:
					return
				default:
				}
				from, fs := e.FiringsFrom(k%(e.FiringCount()+1), math.MaxInt)
				for i, f := range fs {
					want := Firing{Rule: "tick", Time: int64(from + i + 1), StateIndex: from + i + 1, Binding: core.Binding{
						"A": value.NewInt(int64(from + i + 1)), "B": value.NewInt(int64((from + i + 1) % 7)),
					}}
					if !reflect.DeepEqual(f, want) {
						t.Errorf("firing %d read as %v, want %v", from+i, f, want)
						return
					}
				}
			}
		}(g)
	}
	const emits = 5000 // three row chunks and five value chunks
	for i := 1; i <= emits; i++ {
		if err := e.Emit(int64(i), event.New("tick", value.NewInt(int64(i)), value.NewInt(int64(i%7)))); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if n := e.FiringCount(); n != emits {
		t.Fatalf("%d firings, want %d", n, emits)
	}
}
