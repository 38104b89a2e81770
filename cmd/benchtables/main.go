// Command benchtables regenerates every experiment table of
// EXPERIMENTS.md and prints them: E1-E9, A1 and A2, one per reproduced
// claim of the paper, and the counted tables E10, E12, E13, E14 and E17 of
// the system built around it. The tables are printed, never compared with
// committed numbers — timings that are live in bench/ (BENCHMARK.json).
// Use -quick for reduced sweeps and -markdown for the format
// EXPERIMENTS.md embeds. -only runs just the named experiments (the rest
// are skipped, not merely hidden), and -cpuprofile/-memprofile capture
// pprof profiles of the selected runs.
//
//	go run ./cmd/benchtables            # full sweeps, aligned text
//	go run ./cmd/benchtables -quick
//	go run ./cmd/benchtables -markdown  # paste into EXPERIMENTS.md
//	go run ./cmd/benchtables -only E1,E7
//	go run ./cmd/benchtables -only E8 -workers 4
//	go run ./cmd/benchtables -only E12 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ptlactive/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E1,E7)")
	workers := flag.Int("workers", 0, "worker pool for the parallel E8 columns (0 = all cores)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the runs to this file")
	flag.Parse()

	if *workers > 0 {
		experiments.DefaultWorkers = *workers
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		if id != "" {
			want[id] = true
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	for _, e := range experiments.Catalog {
		if len(want) > 0 && !want[strings.ToUpper(e.ID)] {
			continue
		}
		t := e.Run(*quick)
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		f.Close()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchtables:", err)
	os.Exit(1)
}
