package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"ptlactive/bench/gen"
)

// BENCHMARK.json at the root of the repository repeats the lists in
// spec.go; a later change must not let them drift apart.
func TestDeclarationMatchesSpec(t *testing.T) {
	type entry struct {
		Name, Why, Unit, Better string
		Bound                   *float64
	}
	var decl struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(specs) || len(gen.Names()) != len(specs) {
		t.Fatalf("%d workloads declared, %d specified, %d generated", len(decl.Workloads), len(specs), len(gen.Names()))
	}
	for i, s := range specs {
		if d := decl.Workloads[i]; d.Name != s.name || d.Why != s.why || gen.Names()[i] != s.name {
			t.Errorf("workload %d: declared %q (%q), specified %q (%q), generated %q", i, d.Name, d.Why, s.name, s.why, gen.Names()[i])
		}
	}
	check := func(kind string, declared []entry, want []metric, bounded bool) {
		if len(declared) != len(want) {
			t.Fatalf("%s: %d declared, %d specified", kind, len(declared), len(want))
		}
		for i, m := range want {
			better := "lower"
			if m.higher {
				better = "higher"
			}
			d := declared[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != better {
				t.Errorf("%s %d: declared %+v, specified %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
	if decl.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be declared")
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" || decl.RunSeconds < 1 || len(decl.Command) == 0 {
		t.Errorf("paths %v, command %v, run_seconds %d", decl.Paths, decl.Command, decl.RunSeconds)
	}
}
