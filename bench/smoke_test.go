package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smokeSeconds is a fiftieth of the declared run length.
const smokeSeconds = 0.1

// Every workload end to end at a fiftieth of its length, verification on:
// the oracle and replay comparisons, the expected rejections, recovery and
// the follower's log are all checked by the run itself.
func TestSmokeEndToEnd(t *testing.T) {
	for _, s := range specs {
		s := s
		t.Run(s.name, func(t *testing.T) {
			t.Parallel() // outputs are checked here, not times
			r, err := runEndToEnd(s, 1, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if r.wrong != 0 || r.failed != 0 || r.attempted < warmOps {
				t.Errorf("%d mismatches, %d failed of %d ops", r.wrong, r.failed, r.attempted)
			}
			for _, m := range endToEnd {
				v, ok := r.metrics[m.name]
				if m.name == "fire_p50_us" && s.firings[0] < 0.01 {
					continue // a rule that fires once in hundreds of commits may not have, this early
				}
				if !ok || v <= 0 {
					t.Errorf("%s = %v (measured: %v)", m.name, v, ok)
				}
			}
		})
	}
}

// The per-layer run on one in-process and one served workload: the figures
// of the layers the workload has are measured and the span file is written.
func TestSmokePerLayer(t *testing.T) {
	for name, want := range map[string][]string{
		"temporal-dense": {"core.step_p50_us", "core.state_nodes_peak", "core.share_of_commit_pct", "adb.commit_p50_us",
			"adb.eval_steps_per_commit", "adb.allocs_per_commit", "history.state_build_us", "ptl.parse_check_us", "trace.ladder_sum_us"},
		"replicated": {"replica.apply_us_per_record", "replica.ship_bytes_per_commit", "persist.write_us", "persist.wal_bytes_per_commit",
			"client.encode_us", "wire.decode_us", "wire.firing_encode_us", "server.rtt_us", "server.sync_commit_us",
			"server.durable_commit_us", "server.pipelined_commits_per_s", "server.read_p50_us", "persist.fsync_us",
			"wire.firing_write_us", "adb.commit_p50_us"},
	} {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, _ := specByName(name)
			out := t.TempDir()
			r, err := runEndToEnd(s, 1, smokeSeconds, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := runLayers(s, 1, smokeSeconds, t.TempDir(), out, r); err != nil {
				t.Fatal(err)
			}
			if r.wrong != 0 || r.failed != 0 {
				t.Errorf("%d mismatches, %d failed ops", r.wrong, r.failed)
			}
			for _, m := range want {
				if v := r.metrics[m]; v <= 0 {
					t.Errorf("%s = %v", m, v)
				}
			}
			if _, ok := r.metrics["trace.dominance_ok"]; !ok {
				t.Error("the dominance assertions did not run")
			}
			if st, err := os.Stat(filepath.Join(out, name+".trace.jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, commit ...float64) string {
		f := resultsFile{}
		for _, v := range commit {
			set := map[string]*workloadResult{}
			for _, s := range specs {
				wr := &workloadResult{EndToEnd: resultLine{Correct: true, Attempted: 1, Metrics: map[string]measured{}}}
				for _, m := range endToEnd {
					wr.EndToEnd.Metrics[m.name] = measured{Value: 100, Unit: m.unit}
				}
				wr.EndToEnd.Metrics["commit_p50_us"] = measured{Value: v, Unit: "us"}
				set[s.name] = wr
			}
			f.Sets = append(f.Sets, set)
		}
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	decl := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 100, 101, 99)
	if err := agreeFiles(decl, base, write("same.json", 102, 100, 101)); err != nil {
		t.Errorf("runs within the bound disagree: %v", err)
	}
	if err := agreeFiles(decl, base, write("worse.json", 150, 151, 149)); err == nil {
		t.Error("a commit latency half as high again passed")
	}
	if err := agreeFiles(decl, base, write("better.json", 50, 51, 49)); err != nil {
		t.Errorf("a better run disagrees: %v", err)
	}
	if err := agreeFiles(decl, base, write("wide.json", 60, 100, 140)); err == nil {
		t.Error("a spread wider than the bound was not reported as unresolved")
	}
}
