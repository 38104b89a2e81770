// Package experiments implements the experiments of DESIGN.md §3. Each
// returns a Table with the same rows that EXPERIMENTS.md records;
// cmd/benchtables prints them and the root bench_test.go wraps their
// kernels as Go benchmarks.
//
// The paper's evaluation is qualitative (no numbered tables or figures),
// so E1-E9, A1 and A2 each operationalize one measurable claim of the
// paper; the expected shape is stated in each table's Notes and the
// numbers are printed, never compared against committed ones. E10, E12,
// E13 and E17 cover the system built around the paper and report only
// what can be counted — steps, replayed records, deliveries, segments,
// bytes — which the package's test pins exactly. Nothing here is a
// timing baseline: wall-clock numbers that are compared across commits
// live in bench/ (BENCHMARK.json).
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "note: %s\n", t.Notes)
	}
	return sb.String()
}

// Markdown renders the table as a GitHub-flavored markdown table.
func (t Table) Markdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&sb, "\n%s\n", t.Notes)
	}
	return sb.String()
}

// Catalog lists every experiment with its table ID in report order, so
// callers (cmd/benchtables -only) can run a subset without paying for the
// rest.
var Catalog = []struct {
	ID  string
	Run func(quick bool) Table
}{
	{"E1", E1IncrementalVsNaive},
	{"E2", E2BoundedState},
	{"E3", E3AggregateMaintenance},
	{"E4", E4FiringThroughput},
	{"E5", E5ValidTime},
	{"E6", E6OnlineOffline},
	{"E7", E7StateBlowup},
	{"E7B", E7bRelativeTiming},
	{"E8", E8RelevanceFiltering},
	{"E9", E9TemporalActions},
	{"E10", E10Durability},
	{"E12", E12ReadSetIndex},
	{"E13", E13Server},
	{"E14", E14Cluster},
	{"E17", E17BoundedDisk},
	{"A1", A1DecomposableFastPath},
	{"A2", A2FutureProgression},
}

// All runs every experiment. quick shrinks the sweeps for CI-speed runs.
func All(quick bool) []Table {
	tables := make([]Table, 0, len(Catalog))
	for _, e := range Catalog {
		tables = append(tables, e.Run(quick))
	}
	return tables
}

// fmtDur renders a per-op duration in microseconds.
func fmtDur(total time.Duration, ops int) string {
	if ops == 0 {
		return "-"
	}
	us := float64(total.Microseconds()) / float64(ops)
	return fmt.Sprintf("%.2f", us)
}

func fmtMs(total time.Duration) string {
	return fmt.Sprintf("%.1f", float64(total.Microseconds())/1000)
}
