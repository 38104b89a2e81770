package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// workloadResult is one workload's two result lines.
type workloadResult struct {
	EndToEnd resultLine `json:"end_to_end"`
	PerLayer resultLine `json:"per_layer"`
}

// resultsFile is what the suite writes; Sets holds one entry per -repeat.
// Claim is always null: this benchmark measures, it claims no gain.
type resultsFile struct {
	Header  header                       `json:"header"`
	Seed    int64                        `json:"seed"`
	Seconds float64                      `json:"seconds"`
	Sets    []map[string]*workloadResult `json:"sets"`
	Claim   *string                      `json:"claim"`
}

// child runs one workload in a freshly exec'd process (a clean heap) and
// parses the last line it prints. The child's own lines are passed on.
func child(name string, seed int64, seconds float64, trace int, data, out string) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-data", data, "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return line, fmt.Errorf("%s (trace %d): %w", name, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s (trace %d): result line: %w", name, trace, err)
	}
	return line, nil
}

// runSuite runs every workload, untraced then traced, `repeat` times over;
// it writes results.json and fails on any incorrect output, failed op or
// dominance assertion.
func runSuite(seed int64, seconds float64, repeat int, data, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(data, 0o755); err != nil {
		return err
	}
	file := resultsFile{Header: newHeader(data), Seed: seed, Seconds: seconds}
	var problems []string
	for rep := 0; rep < repeat; rep++ {
		set := map[string]*workloadResult{}
		for _, s := range specs {
			wr := &workloadResult{}
			var err error
			if wr.EndToEnd, err = child(s.name, seed, seconds, 0, data, out); err != nil {
				return err
			}
			if wr.PerLayer, err = child(s.name, seed, seconds, 1, data, out); err != nil {
				return err
			}
			for _, line := range []resultLine{wr.EndToEnd, wr.PerLayer} {
				if !line.Correct || line.Failed > 0 {
					problems = append(problems, fmt.Sprintf("%s: %d of %d ops failed or mismatched", s.name, line.Failed, line.Attempted))
				}
			}
			if wr.PerLayer.Metrics["trace.dominance_ok"].Value != 1 {
				problems = append(problems, s.name+": a dominance assertion fails: the workload no longer stresses its layer")
			}
			set[s.name] = wr
		}
		file.Sets = append(file.Sets, set)
	}
	printSummary(file)
	b, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	logf("wrote %s", filepath.Join(out, "results.json"))
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// series collects one metric's values over a file's sets.
func (f resultsFile) series(workload, metric string, perLayer bool) []float64 {
	var xs []float64
	for _, set := range f.Sets {
		wr := set[workload]
		if wr == nil {
			continue
		}
		line := wr.EndToEnd
		if perLayer {
			line = wr.PerLayer
		}
		if m, ok := line.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// printSummary prints, per workload, the end-to-end row and under it the
// per-layer figures that should explain it; with several sets each figure
// is the median with its quartiles.
func printSummary(f resultsFile) {
	show := func(workload string, m metric, perLayer bool) {
		xs := f.series(workload, m.name, perLayer)
		if len(xs) == 0 {
			return
		}
		q1, q2, q3 := quartiles(xs)
		if len(xs) > 1 {
			fmt.Printf("  %-32s %14.6g %-5s  q1 %.6g  q3 %.6g  (n=%d)\n", m.name, q2, m.unit, q1, q3, len(xs))
		} else {
			fmt.Printf("  %-32s %14.6g %s\n", m.name, q2, m.unit)
		}
	}
	for _, s := range specs {
		fmt.Printf("\n%s — %s\n end to end (tracing off)\n", s.name, s.why)
		for _, m := range endToEnd {
			show(s.name, m, false)
		}
		fmt.Printf(" per layer (traced run)\n")
		for _, m := range perLayer {
			show(s.name, m, true)
		}
	}
	fmt.Printf("\n\"claim\": null\n")
}

// declaration is the part of BENCHMARK.json -agree reads.
type declaration struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agreeFiles compares two result files metric by metric and workload by
// workload against the declared bounds: B may be worse than A by at most
// the bound. Where either file's own spread (quartile distance over the
// median, from -repeat) is wider than the bound the pair is unresolved.
// Any worse or unresolved pair is a disagreement.
func agreeFiles(boundsPath, pathA, pathB string) error {
	var decl declaration
	if err := readJSON(boundsPath, &decl); err != nil {
		return err
	}
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	bad := 0
	for _, s := range specs {
		for _, m := range decl.EndToEnd {
			xa, xb := a.series(s.name, m.Name, false), b.series(s.name, m.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-16s %-16s missing\n", s.name, m.Name)
				bad++
				continue
			}
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			worse := (bm - am) / am
			if m.Better == "higher" {
				worse = (am - bm) / am
			}
			spread := (a3 - a1) / am
			if sb := (b3 - b1) / bm; sb > spread {
				spread = sb
			}
			verdict := "ok"
			switch {
			case spread > m.Bound:
				verdict = "unresolved (spread wider than bound)"
				bad++
			case worse > m.Bound:
				verdict = "worse"
				bad++
			}
			fmt.Printf("%-16s %-16s A %12.6g  B %12.6g  %+6.1f%% (bound %.0f%%, spread %.1f%%)  %s\n",
				s.name, m.Name, am, bm, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric-workload pairs disagree", bad)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
