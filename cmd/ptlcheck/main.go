// Command ptlcheck parses a PTL condition and evaluates it over a system
// history supplied as JSON lines, printing per-state satisfaction. It is
// the quickest way to try a formula against a hand-written history.
//
// Usage:
//
//	ptlcheck -c '<condition>' [-history file.jsonl] [-naive] [-info]
//
// Each input line is one system state transition:
//
//	{"time": 2, "updates": {"ibm": 15}, "events": [["update_stocks","IBM"]]}
//
// A line with "updates" becomes a transaction commit at that time; a line
// without becomes an event-only state. Values may be numbers, strings or
// booleans. The initial state (time 0) is built from the -init JSON
// object.
//
// With -naive, every state is cross-checked against the direct
// whole-history semantics and any disagreement is reported (none is
// expected: Theorem 1).
//
// With -full the input is instead the lossless full-state format written
// by ptlactive.WriteHistory or adbsh's `export` command, and the condition
// is evaluated directly by the incremental evaluator.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ptlactive"
	"ptlactive/internal/core"
)

type stateLine struct {
	Time    int64                      `json:"time"`
	Updates map[string]json.RawMessage `json:"updates"`
	Events  [][]json.RawMessage        `json:"events"`
}

func main() {
	cond := flag.String("c", "", "PTL condition (required)")
	histPath := flag.String("history", "-", "history JSONL file, - for stdin")
	initJSON := flag.String("init", "{}", "initial database state as a JSON object")
	naiveCheck := flag.Bool("naive", false, "cross-check against the naive whole-history semantics")
	info := flag.Bool("info", false, "print condition analysis and exit; decomposable is the paper's [Deng 94] class, "+
		"and the fast evaluator also runs bounded operators, captured values and windowed aggregates on registers, "+
		"so the two differ for them")
	full := flag.Bool("full", false, "input is the lossless full-state format of WriteHistory/adbsh export")
	flag.Parse()

	if *cond == "" {
		fmt.Fprintln(os.Stderr, "ptlcheck: -c condition is required")
		os.Exit(2)
	}
	f, err := ptlactive.ParseCondition(*cond)
	if err != nil {
		fatal(err)
	}
	reg := ptlactive.NewRegistry()
	ci, err := ptlactive.CheckCondition(f, reg)
	if err != nil {
		fatal(err)
	}
	if *info {
		fmt.Printf("condition:    %s\n", ci.Source)
		fmt.Printf("normalized:   %s\n", ci.Normalized)
		fmt.Printf("parameters:   %v\n", ci.Free)
		fmt.Printf("events:       %v\n", ci.Events)
		fmt.Printf("temporal:     %t\n", ci.Temporal)
		fmt.Printf("decomposable: %t\n", ptlactive.Decomposable(f))
		ev, err := core.CompileAuto(ci, reg, nil)
		if err != nil {
			fatal(err)
		}
		kind := "general"
		if fast, ok := ev.(*core.FastEvaluator); ok {
			since, last, timestamp, frontier, window := fast.Shape()
			kind = fmt.Sprintf("fast (%d since, %d lasttime, %d timestamp, %d frontier, %d window)", since, last, timestamp, frontier, window)
		}
		fmt.Printf("evaluator:    %s\n", kind)
		return
	}

	initial, err := decodeInit(*initJSON)
	if err != nil {
		fatal(err)
	}

	in := os.Stdin
	if *histPath != "-" {
		fh, err := os.Open(*histPath)
		if err != nil {
			fatal(err)
		}
		defer fh.Close()
		in = fh
	}

	var h *ptlactive.History
	fired := map[int]bool{}
	var execLog ptlactive.ExecLog
	if *full {
		// Lossless full-state input: evaluate the condition directly with
		// the incremental evaluator, no engine needed.
		var err error
		h, err = ptlactive.ReadHistory(in)
		if err != nil {
			fatal(err)
		}
		ev, err := ptlactive.CompileCondition(f, reg, nil)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < h.Len(); i++ {
			res, err := ev.Step(h.At(i))
			if err != nil {
				fatal(err)
			}
			if res.Fired {
				fired[i] = true
				printFired(i, h.At(i).TS, res.Bindings)
			}
		}
	} else {
		eng := ptlactive.NewEngine(ptlactive.Config{Initial: initial})
		if err := eng.AddTrigger("cond", *cond, nil); err != nil {
			fatal(err)
		}
		if err := replayHistory(eng, in); err != nil {
			fatal(err)
		}
		for _, fr := range eng.Firings() {
			fired[fr.StateIndex] = true
			if len(fr.Binding) > 0 {
				fmt.Printf("state %3d (time %4d): SATISFIED %v\n", fr.StateIndex, fr.Time, fr.Binding)
			} else {
				fmt.Printf("state %3d (time %4d): SATISFIED\n", fr.StateIndex, fr.Time)
			}
		}
		h = eng.History()
		execLog = eng
	}
	fmt.Printf("%d states, satisfied at %d of them\n", h.Len(), len(fired))

	if *naiveCheck {
		if len(ci.Free) > 0 {
			fmt.Fprintln(os.Stderr, "ptlcheck: -naive supports closed conditions only")
			os.Exit(1)
		}
		nv := ptlactive.NewNaiveEvaluator(reg, h, execLog)
		mismatches := 0
		for i := 0; i < h.Len(); i++ {
			want, err := nv.Sat(i, f, nil)
			if err != nil {
				fatal(err)
			}
			if want != fired[i] {
				mismatches++
				fmt.Printf("MISMATCH at state %d: incremental=%t naive=%t\n", i, fired[i], want)
			}
		}
		if mismatches == 0 {
			fmt.Println("naive cross-check: all states agree (Theorem 1)")
		} else {
			os.Exit(1)
		}
	}
}

// printFired reports a satisfied state with its bindings.
func printFired(i int, ts int64, bindings []ptlactive.Binding) {
	for _, b := range bindings {
		if len(b) > 0 {
			fmt.Printf("state %3d (time %4d): SATISFIED %v\n", i, ts, b)
			continue
		}
		fmt.Printf("state %3d (time %4d): SATISFIED\n", i, ts)
	}
}

// decodeInit builds the initial state from the -init JSON object. It
// refuses the reserved item time, which every state answers with its
// timestamp.
func decodeInit(text string) (map[string]ptlactive.Value, error) {
	var items map[string]json.RawMessage
	if err := json.Unmarshal([]byte(text), &items); err != nil {
		return nil, fmt.Errorf("bad -init: %w", err)
	}
	initial := map[string]ptlactive.Value{}
	for k, raw := range items {
		if k == "time" {
			return nil, fmt.Errorf("bad -init: item %s: %w", k, ptlactive.ErrReservedItem)
		}
		v, err := decodeValue(raw)
		if err != nil {
			return nil, err
		}
		initial[k] = v
	}
	return initial, nil
}

// replayHistory feeds JSONL state lines into the engine.
func replayHistory(eng *ptlactive.Engine, in io.Reader) error {
	sc := bufio.NewScanner(in)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Text()
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		var line stateLine
		if err := json.Unmarshal([]byte(text), &line); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		var events []ptlactive.Event
		for _, e := range line.Events {
			if len(e) == 0 {
				return fmt.Errorf("line %d: empty event", lineNo)
			}
			var name string
			if err := json.Unmarshal(e[0], &name); err != nil {
				return fmt.Errorf("line %d: event name: %w", lineNo, err)
			}
			args := make([]ptlactive.Value, 0, len(e)-1)
			for _, raw := range e[1:] {
				v, err := decodeValue(raw)
				if err != nil {
					return fmt.Errorf("line %d: %w", lineNo, err)
				}
				args = append(args, v)
			}
			events = append(events, ptlactive.NewEvent(name, args...))
		}
		if len(line.Updates) > 0 {
			updates := map[string]ptlactive.Value{}
			for k, raw := range line.Updates {
				v, err := decodeValue(raw)
				if err != nil {
					return fmt.Errorf("line %d: %w", lineNo, err)
				}
				updates[k] = v
			}
			if err := eng.Exec(line.Time, updates, events...); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		} else {
			if len(events) == 0 {
				events = append(events, ptlactive.NewEvent("tick"))
			}
			if err := eng.Emit(line.Time, events...); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
		}
	}
	return sc.Err()
}

// decodeValue maps a JSON scalar to a Value.
func decodeValue(raw json.RawMessage) (ptlactive.Value, error) {
	if string(raw) == "null" {
		// json.Unmarshal treats null as a no-op into any scalar; reject it
		// explicitly rather than producing a surprising zero.
		return ptlactive.Value{}, fmt.Errorf("unsupported JSON value null")
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return ptlactive.Str(s), nil
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err == nil {
		return ptlactive.Bool(b), nil
	}
	var i int64
	if err := json.Unmarshal(raw, &i); err == nil {
		return ptlactive.Int(i), nil
	}
	var f float64
	if err := json.Unmarshal(raw, &f); err == nil {
		return ptlactive.Float(f), nil
	}
	return ptlactive.Value{}, fmt.Errorf("unsupported JSON value %s", string(raw))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ptlcheck:", err)
	os.Exit(1)
}
