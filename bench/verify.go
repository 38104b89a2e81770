package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ptlactive/bench/gen"
	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/history"
	"ptlactive/internal/naive"
	"ptlactive/internal/ptl"
	"ptlactive/internal/query"
	"ptlactive/internal/value"
)

// oracleRules caps how many rules of a large rule table the whole-history
// oracle re-evaluates; it costs O(states) per rule and state.
const oracleRules = 64

func bindingKey(b core.Binding) string {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, k := range names {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(b[k].Key())
		sb.WriteByte(';')
	}
	return sb.String()
}

// replay commits the first n ops of a workload's stream (regenerated from
// the seed) on a fresh in-process memory engine: the reference every
// served, recovered and replicated firing stream must equal.
func replay(name string, seed int64, n int) (*adb.Engine, error) {
	w, err := gen.New(name, seed)
	if err != nil {
		return nil, err
	}
	eng, err := newEngine(w, adb.Config{Initial: w.Initial}, "", true)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		op := w.Next()
		if err := eng.ExecTxn(op.TS, op.Updates, nil, op.Events...); err != nil && op.Reject == "" {
			return nil, fmt.Errorf("replay op %d: %w", i, err)
		}
		if (i+1)%compactEvery == 0 {
			eng.Compact()
		}
	}
	return eng, nil
}

// checkRecovery restores the data directory a served durable engine was
// abandoned with, three times: the first restore is verified (every
// acknowledged commit present, firing log and database equal to the
// references), all are timed.
func checkRecovery(s spec, w *gen.Workload, dir string, lastTS int64, want string, limitTS int64, model map[string]value.Value, r *report) {
	cfg := engineConfig(w, s.deploy, false)
	var ms, perRecord []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		eng, err := adb.Restore(cfg, dir)
		took := time.Since(t0)
		if err != nil {
			r.mismatch("restore: %v", err)
			return
		}
		ms = append(ms, float64(took)/1e6)
		rec := eng.Recovery()
		if rec.ReplayedRecords > 0 {
			perRecord = append(perRecord, float64(took)/1e3/float64(rec.ReplayedRecords))
		}
		if i == 0 {
			if eng.Now() != lastTS {
				r.mismatch("restored engine is at time %d, the last acknowledged commit at %d", eng.Now(), lastTS)
			}
			if got := digestUpTo(eng.Firings(), limitTS); got != want {
				r.mismatch("restored firing log %s, in-process replay %s", got, want)
			}
			if err := sameItems(items(eng.DB()), model); err != nil {
				r.mismatch("restored database against the acknowledged commits: %v", err)
			}
			for _, e := range rec.ReplayErrors {
				r.mismatch("restore: %v", e)
			}
			r.note("recovery: snapshot at LSN %d, %d records replayed", rec.SnapshotLSN, rec.ReplayedRecords)
		}
		if err := eng.Close(); err != nil {
			r.mismatch("close restored engine: %v", err)
		}
	}
	r.set("persist.recover_ms", median(ms), "ms")
	r.set("persist.replay_us_per_record", median(perRecord), "us")
}

func items(db history.DBState) map[string]value.Value {
	out := make(map[string]value.Value, db.Len())
	db.Range(func(name string, v value.Value) bool {
		out[name] = v
		return true
	})
	return out
}

// checkFollowerLog waits for the follower to hold the primary's last
// record and compares the two logs byte for byte.
func checkFollowerLog(sys *system, r *report) {
	want := sys.eng.WALLastLSN()
	for deadline := time.Now().Add(30 * time.Second); sys.follower.LastLSN() < want; {
		if time.Now().After(deadline) {
			r.mismatch("follower stuck at LSN %d, primary at %d", sys.follower.LastLSN(), want)
			return
		}
		time.Sleep(time.Millisecond)
	}
	pb, err := walBytes(sys.dir)
	if err != nil {
		r.mismatch("primary log: %v", err)
		return
	}
	fb, err := walBytes(sys.fdir)
	if err != nil {
		r.mismatch("follower log: %v", err)
		return
	}
	if !bytes.Equal(pb, fb) {
		r.mismatch("follower log (%d bytes) differs from the primary's (%d bytes)", len(fb), len(pb))
	}
	r.note("follower log byte-identical to the primary's: %d bytes, LSN %d", len(pb), want)
}

// walBytes concatenates a data directory's WAL segments (wal.000001, ...)
// in ordinal order.
func walBytes(dir string) ([]byte, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal.[0-9]*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names) // zero-padded ordinals: lexical order is log order
	var out []byte
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b...)
	}
	return out, nil
}

// checkOracle compares the engine's firings over the states it has so far
// (the warm-up ops: nothing has been compacted yet) with the whole-history
// semantics of internal/naive, rule by rule and state by state. A closed
// rule must fire exactly where its condition holds; a rule with an
// enumerated parameter must fire for exactly the satisfying values.
func checkOracle(eng *adb.Engine, w *gen.Workload, r *report) {
	hist := eng.History()
	fired := map[string]bool{}
	for _, f := range eng.Firings() {
		fired[fmt.Sprintf("%s|%d|%s", f.Rule, f.StateIndex, bindingKey(f.Binding))] = true
	}
	reg := query.NewRegistry()
	nv := naive.New(reg, hist, nil)
	checked, expected := 0, 0
	for _, rule := range oracleSubset(w, hist, reg) {
		f, err := ptl.Parse(rule.Cond)
		if err != nil {
			r.mismatch("oracle: rule %s: %v", rule.Name, err)
			continue
		}
		envs := []naive.Env{nil}
		if rule.Param != "" {
			envs = envs[:0]
			for _, v := range rule.Domain {
				envs = append(envs, naive.Env{rule.Param: v})
			}
		}
		for i := 0; i < hist.Len(); i++ {
			for _, env := range envs {
				want, err := nv.Sat(i, f, env)
				if err != nil {
					r.mismatch("oracle: rule %s at state %d: %v", rule.Name, i, err)
					continue
				}
				key := fmt.Sprintf("%s|%d|%s", rule.Name, i, bindingKey(core.Binding(env)))
				checked++
				if want {
					expected++
				}
				if want != fired[key] {
					r.mismatch("oracle: rule %s at state %d %v: engine fired=%v, whole-history semantics say %v",
						rule.Name, i, env, fired[key], want)
				}
			}
		}
	}
	r.note("oracle: %d rule-state pairs checked over %d states, %d firings expected and found", checked, hist.Len(), expected)
}

// oracleSubset picks the triggers the oracle re-evaluates: all of a small
// table; of a large one, those whose items the states so far touched
// (where firings can be) and then the first untouched ones, up to the cap.
func oracleSubset(w *gen.Workload, hist *history.History, reg *query.Registry) []gen.Rule {
	var triggers []gen.Rule
	for _, rule := range w.Rules {
		if !rule.Constraint {
			triggers = append(triggers, rule)
		}
	}
	if len(triggers) <= oracleRules {
		return triggers
	}
	touched := map[string]bool{}
	for i := 1; i < hist.Len(); i++ {
		hist.At(i).DB.Diff(hist.At(i-1).DB, func(name string) bool {
			touched[name] = true
			return true
		})
	}
	var hot, cold []gen.Rule
	for _, rule := range triggers {
		fp, err := adb.ConditionFootprint(rule.Cond, reg)
		isHot := false
		for _, item := range fp.Items {
			isHot = isHot || touched[item]
		}
		if err == nil && isHot {
			hot = append(hot, rule)
		} else {
			cold = append(cold, rule)
		}
	}
	out := append(hot, cold...)
	return out[:oracleRules]
}
