// Command bench is the repository's one benchmark of the commit path:
// seven workloads, each run in its own process, end-to-end figures measured
// with tracing off and per-layer figures from a separate traced run. See
// README.md beside this file.
//
// From the root of the repository (run.sh builds into .bench_build/):
//
//	bash bench/run.sh [-seed 1] [-seconds 5] [-repeat N]            the whole suite
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1      one run, one JSON line last
//	bash bench/run.sh -agree A.json B.json                          compare two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// measured is one figure of the result line.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// header is what a run records about where it ran.
type header struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	Commit     string `json:"commit"`
	DataDir    string `json:"data_dir"`
	Filesystem string `json:"filesystem"`
}

func newHeader(dataDir string) header {
	h := header{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		Commit: "unknown", DataDir: dataDir, Filesystem: fsType(dataDir)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.Commit = kv.Value
			}
		}
	}
	return h
}

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result line (the driver's mode)")
	seed := flag.Int64("seed", 1, "generator seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 5, "how long one run measures (0.1 is the smoke tests' length)")
	trace := flag.Int("trace", 0, "0: end-to-end figures, tracing off; 1: per-layer figures from the traced run")
	repeat := flag.Int("repeat", 1, "suite mode: run this many sets back to back and report median and quartiles")
	agree := flag.Bool("agree", false, "compare two result files (arguments) against the bounds in BENCHMARK.json")
	data := flag.String("data", ".bench_build/run", "directory for data dirs (removed after each run)")
	out := flag.String("out", "bench/out", "directory for results.json and trace files")
	bounds := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration -agree reads bounds from")
	flag.Parse()

	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	var err error
	switch {
	case *agree:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-agree needs two result files")
		} else {
			err = agreeFiles(*bounds, flag.Arg(0), flag.Arg(1))
		}
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace, *data, *out)
	default:
		err = runSuite(*seed, *seconds, *repeat, *data, *out)
	}
	if err != nil {
		logf("bench: %v", err)
		os.Exit(1)
	}
}

// runOne is one run of one workload in this process. Human-readable lines
// (`workload metric value unit`) come first, the result line last.
func runOne(name string, seed int64, seconds float64, trace int, data, out string) error {
	s, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(data, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	h := newHeader(root)
	logf("%s: seed %d, %.2f s, trace %d, %s, GOMAXPROCS %d of %d, commit %s, data on %s",
		name, seed, seconds, trace, h.Go, h.GOMAXPROCS, h.CPUs, h.Commit, h.Filesystem)

	var r *report
	if trace == 0 {
		if r, err = runEndToEnd(s, seed, seconds, root); err != nil {
			return err
		}
	} else {
		// The deployment-level figures of the per-layer list (tails, read
		// latency, replication lag, recovery) need the deployed system; a
		// short untraced run supplies them before the ladder.
		if r, err = runEndToEnd(s, seed, seconds*0.4, root); err != nil {
			return err
		}
		if err := runLayers(s, seed, seconds*0.6, root, out, r); err != nil {
			return err
		}
	}

	line := resultLine{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed + r.wrong, Metrics: map[string]measured{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	want := endToEnd
	if trace != 0 {
		want = perLayer
	}
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok && trace == 0 {
			return fmt.Errorf("%s: metric %s was not measured", name, m.name)
		}
		line.Metrics[m.name] = measured{Value: v, Unit: m.unit}
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %s %.6g %s\n", name, k, r.metrics[k], r.units[k])
	}
	fmt.Printf("%s fail_ratio %.6g ratio\n", name, float64(line.Failed)/float64(line.Attempted))
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func runEndToEnd(s spec, seed int64, seconds float64, root string) (*report, error) {
	if s.deploy.served() {
		return runServed(s, seed, seconds, root)
	}
	return runInProcess(s, seed, seconds, root)
}
