// Command adbsh is a small scriptable shell for the active database: it
// reads commands from stdin (or a script file), maintains an engine, and
// prints firings and aborts as they happen. It is the interactive
// counterpart of the examples.
//
// Commands (one per line, # comments):
//
//	item <name> <value>                  set an initial item (before rules)
//	trigger <name> :: <condition>        register a trigger (prints firings)
//	constraint <name> :: <constraint>    register an integrity constraint
//	commit <time> [k=v ...] [@ev(args)]  run a transaction
//	emit <time> @ev(args) ...            event-only state
//	show db | firings | history | rules  inspect state
//	eval <time-ignored> :: <condition>   one-off check of a closed condition
//	                                     against the current history
//	save                                 checkpoint: snapshot + reset the WAL
//	recover                              close and reopen from disk (-data)
//	health [<rule>]                      per-rule fault and quarantine state
//	revive <rule>                        lift a rule's quarantine
//
// Values: integers, floats, or quoted strings. Example session:
//
//	item ibm 10
//	trigger doubled :: [t <- time] [x <- item("ibm")] previously (item("ibm") <= 0.5 * x and time >= t - 10)
//	commit 2 ibm=15
//	commit 8 ibm=25
//	show firings
//
// The -workers flag sizes the engine's worker pool for parallel rule
// evaluation (0 = all cores, 1 = sequential); firings are identical at
// every setting.
//
// The -data flag makes the engine durable: every committed operation is
// written to a write-ahead log in the given directory, `save` writes a
// snapshot, and `recover` (or simply restarting adbsh with the same
// -data) rebuilds the engine from disk. Replayed firings are printed
// again during recovery.
//
// Fault isolation: action faults (panics, errors, timeouts) are printed
// as FAULT lines and never stop the session. -max-failures sets the
// per-rule circuit breaker (a rule with that many consecutive action
// failures is quarantined until `revive`), -sweep-budget bounds evaluator
// steps per sweep, and -action-timeout bounds each action's runtime.
//
// Remote mode: -connect host:port runs the same commands against an
// adbserverd over the network instead of an in-process engine. The
// engine-local commands (item, save, recover, eval, export, show
// history) are unavailable there; `follow <n>` is added, subscribing to
// the server's firing stream and printing the next n firings, and `role`
// reports the server's replication role, leader hint, epoch and LSN.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/ptl"
	"ptlactive/internal/value"
)

func main() {
	workers := flag.Int("workers", 0, "worker pool size for rule evaluation (0 = all cores, 1 = sequential)")
	dataDir := flag.String("data", "", "durable engine directory (write-ahead log + snapshots); empty = memory-only")
	maxFailures := flag.Int("max-failures", 0, "quarantine a rule after this many consecutive action failures (0 = never)")
	sweepBudget := flag.Int64("sweep-budget", 0, "max evaluator steps per sweep (0 = unlimited)")
	actionTimeout := flag.Duration("action-timeout", 0, "per-action deadline (0 = none)")
	connect := flag.String("connect", "", "run against a remote adbserverd at host:port instead of an in-process engine")
	codec := flag.String("codec", "json", "wire codec to offer in remote mode: json (inspectable frames) or binary")
	segBytes := flag.Int64("wal-segment-bytes", 0, "rotate the WAL at this segment size; snapshot-covered segments are GCed (0 = single segment forever)")
	keepSnaps := flag.Int("keep-snapshots", 0, "snapshot chain length after each checkpoint (0/1 = newest only)")
	histWindow := flag.Int64("history-window", 0, "prune collapsed temporal history older than this many ticks (0 = retain everything)")
	spillHist := flag.Bool("spill-history", false, "spill pruned history to an on-disk cold tier instead of dropping it")
	flag.Parse()
	in := os.Stdin
	if flag.NArg() > 0 {
		fh, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer fh.Close()
		in = fh
	}
	var run func(line string) error
	if *connect != "" {
		r, err := newRemote(*connect, *codec)
		if err != nil {
			fatal(err)
		}
		defer r.close()
		run = r.exec
	} else {
		sh := &shell{
			initial:       map[string]value.Value{},
			workers:       *workers,
			dataDir:       *dataDir,
			maxFailures:   *maxFailures,
			sweepBudget:   *sweepBudget,
			actionTimeout: *actionTimeout,
			retention: adb.Retention{
				SegmentBytes:  *segBytes,
				KeepSnapshots: *keepSnaps,
				HistoryWindow: *histWindow,
				SpillHistory:  *spillHist,
			},
		}
		run = sh.exec
	}
	sc := bufio.NewScanner(in)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := run(line); err != nil {
			fmt.Fprintf(os.Stderr, "adbsh: line %d: %v\n", lineNo, err)
			os.Exit(1)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

type shell struct {
	initial       map[string]value.Value
	workers       int
	dataDir       string
	maxFailures   int
	sweepBudget   int64
	actionTimeout time.Duration
	retention     adb.Retention
	eng           *adb.Engine
}

// engine lazily creates the engine; items set before the first rule or
// transaction become the initial state. With -data the engine is opened
// with Restore, so an existing directory is recovered (its initial state
// and rules come from disk, not from this session's `item` lines).
func (s *shell) engine() *adb.Engine {
	if s.eng == nil {
		cfg := adb.Config{
			Initial:         s.initial,
			Workers:         s.workers,
			MaxRuleFailures: s.maxFailures,
			SweepBudget:     s.sweepBudget,
			ActionTimeout:   s.actionTimeout,
			Retention:       s.retention,
			OnFiring:        printFire,
			OnRuleFault: func(f adb.RuleFault) {
				fmt.Printf("FAULT %s at %d: %v\n", f.Rule, f.Time, f.Err)
			},
		}
		if s.dataDir == "" {
			s.eng = adb.NewEngine(cfg)
			return s.eng
		}
		cfg.Durability = adb.DurabilityWAL
		eng, err := adb.Restore(cfg, s.dataDir)
		if err != nil {
			fatal(err)
		}
		s.eng = eng
		printRecovery(eng.Recovery())
	}
	return s.eng
}

// printRecovery summarizes what Restore found on disk.
func printRecovery(info adb.RecoveryInfo) {
	if info.SnapshotLSN == 0 && info.ReplayedRecords <= 1 {
		return
	}
	fmt.Printf("recovered: snapshot LSN %d, %d wal records replayed\n", info.SnapshotLSN, info.ReplayedRecords)
	if info.TruncatedAt >= 0 {
		fmt.Printf("recovered: torn wal tail truncated at byte %d\n", info.TruncatedAt)
	}
	for _, err := range info.ReplayErrors {
		fmt.Printf("recovered: replay error: %v\n", err)
	}
}

func (s *shell) exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "item":
		if s.eng != nil {
			return errors.New("item must precede rules and transactions")
		}
		name, vs, ok := strings.Cut(rest, " ")
		if !ok {
			return errors.New("usage: item <name> <value>")
		}
		v, err := parseValue(strings.TrimSpace(vs))
		if err != nil {
			return err
		}
		s.initial[name] = v
		return nil
	case "trigger", "constraint":
		name, cond, err := parseRule(cmd, rest)
		if err != nil {
			return err
		}
		if cmd == "trigger" {
			return s.engine().AddTrigger(name, cond, nil)
		}
		return s.engine().AddConstraint(name, cond)
	case "commit":
		ts, updates, events, err := parseCommit(rest)
		if err != nil {
			return err
		}
		return reportAbort(ts, s.engine().Exec(ts, updates, events...))
	case "emit":
		ts, events, err := parseEmit(rest)
		if err != nil {
			return err
		}
		return s.engine().Emit(ts, events...)
	case "eval":
		_, cond, ok := strings.Cut(rest, "::")
		if !ok {
			cond = rest
		}
		f, err := ptl.Parse(strings.TrimSpace(cond))
		if err != nil {
			return err
		}
		// The answer at the newest state, by the incremental algorithm run
		// over the retained history from its first state.
		eng := s.engine()
		info, err := ptl.Check(f, eng.Registry())
		if err != nil {
			return err
		}
		ev, err := core.CompileAuto(info, eng.Registry(), eng)
		if err != nil {
			return err
		}
		var res core.Result
		for h, i := eng.History(), 0; i < h.Len(); i++ {
			if res, err = ev.StepResult(h.At(i)); err != nil {
				return err
			}
		}
		fmt.Printf("eval: %t\n", res.Fired)
		return nil
	case "save":
		if s.dataDir == "" {
			return errors.New("save requires -data")
		}
		if err := s.engine().Checkpoint(); err != nil {
			return err
		}
		fmt.Println("saved: snapshot written, wal reset")
		return nil
	case "recover":
		if s.dataDir == "" {
			return errors.New("recover requires -data")
		}
		if s.eng != nil {
			if err := s.eng.Close(); err != nil {
				return err
			}
			s.eng = nil
		}
		s.engine() // reopen from disk; prints the recovery summary
		return nil
	case "health":
		eng := s.engine()
		names := eng.RuleNames()
		if rest != "" {
			names = []string{rest}
		}
		for _, n := range names {
			h, ok := eng.RuleHealth(n)
			if !ok {
				return fmt.Errorf("unknown rule %q", n)
			}
			status := "ok"
			if h.Quarantined {
				status = "QUARANTINED"
			}
			line := fmt.Sprintf("  %s: %s, %d consecutive / %d total failures", h.Rule, status, h.ConsecutiveFailures, h.TotalFailures)
			if h.LastError != nil {
				line += fmt.Sprintf(", last at %d: %v", h.LastFailureAt, h.LastError)
			}
			fmt.Println(line)
		}
		if err := eng.Degraded(); err != nil {
			fmt.Printf("  engine: DEGRADED: %v\n", err)
		}
		return nil
	case "storage":
		st, err := s.engine().Storage()
		if err != nil {
			return err
		}
		printStorage(st)
		return nil
	case "revive":
		if rest == "" {
			return errors.New("usage: revive <rule>")
		}
		if err := s.engine().ReviveRule(rest); err != nil {
			return err
		}
		fmt.Printf("revived %s\n", rest)
		return nil
	case "export":
		return s.engine().ExportHistory(os.Stdout)
	case "show":
		eng := s.engine()
		switch rest {
		case "db":
			fmt.Println(eng.DB())
		case "firings":
			for _, f := range eng.Firings() {
				fmt.Printf("  %s at %d %v\n", f.Rule, f.Time, f.Binding)
			}
			fmt.Printf("  (%d total)\n", len(eng.Firings()))
		case "history":
			fmt.Print(eng.History())
		case "rules":
			for _, n := range eng.RuleNames() {
				info, _ := eng.Rule(n)
				kind := "trigger"
				if info.Constraint {
					kind = "constraint"
				}
				fmt.Printf("  %s (%s, params %v, pending %d)\n", n, kind, info.Parameters, info.PendingStates)
			}
		default:
			return fmt.Errorf("show what? db|firings|history|rules")
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseRule, parseCommit and parseEmit read the argument of the commands
// both modes execute, so a malformed line gets the same error from an
// in-process engine and from a server.

// parseRule parses `<name> :: <condition>`, the argument of trigger and
// constraint (cmd, for the usage message).
func parseRule(cmd, rest string) (name, cond string, err error) {
	name, cond, ok := strings.Cut(rest, "::")
	if !ok {
		return "", "", fmt.Errorf("usage: %s <name> :: <condition>", cmd)
	}
	return strings.TrimSpace(name), strings.TrimSpace(cond), nil
}

// parseCommit parses `<time> [k=v ...] [@ev(args) ...]`.
func parseCommit(rest string) (ts int64, updates map[string]value.Value, events []event.Event, err error) {
	fields := splitFields(rest)
	if len(fields) == 0 {
		return 0, nil, nil, errors.New("usage: commit <time> [k=v ...] [@ev(args) ...]")
	}
	if ts, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, nil, nil, fmt.Errorf("bad time %q", fields[0])
	}
	updates = map[string]value.Value{}
	for _, f := range fields[1:] {
		if strings.HasPrefix(f, "@") {
			ev, err := parseEvent(f)
			if err != nil {
				return 0, nil, nil, err
			}
			events = append(events, ev)
			continue
		}
		k, vs, ok := strings.Cut(f, "=")
		if !ok {
			return 0, nil, nil, fmt.Errorf("bad update %q", f)
		}
		v, err := parseValue(vs)
		if err != nil {
			return 0, nil, nil, err
		}
		updates[k] = v
	}
	return ts, updates, events, nil
}

// parseEmit parses `<time> @ev(args) ...`.
func parseEmit(rest string) (ts int64, events []event.Event, err error) {
	fields := splitFields(rest)
	if len(fields) < 2 {
		return 0, nil, errors.New("usage: emit <time> @ev(args) ...")
	}
	if ts, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
		return 0, nil, fmt.Errorf("bad time %q", fields[0])
	}
	for _, f := range fields[1:] {
		ev, err := parseEvent(f)
		if err != nil {
			return 0, nil, err
		}
		events = append(events, ev)
	}
	return ts, events, nil
}

// reportAbort prints a commit refused by an integrity constraint as an
// ABORT line — an outcome of the script, not a failure of it — and passes
// any other error through.
func reportAbort(ts int64, err error) error {
	var ce *adb.ConstraintError
	if errors.As(err, &ce) {
		fmt.Printf("ABORT at %d: %s\n", ts, ce.Constraint)
		return nil
	}
	return err
}

// printStorage renders the storage footprint; the engine's report and the
// server's are one type.
func printStorage(st adb.StorageStats) {
	fmt.Printf("segments=%d wal_bytes=%d snapshots=%d snapshot_bytes=%d head_lsn=%d last_lsn=%d\n",
		st.Segments, st.WALBytes, st.Snapshots, st.SnapshotBytes, st.HeadLSN, st.LastLSN)
	if st.HistoryWindow > 0 {
		policy := "drop"
		if st.SpillHistory {
			policy = "spill"
		}
		fmt.Printf("history: window=%d floor=%d policy=%s tier_rows=%d tier_bytes=%d\n",
			st.HistoryWindow, st.HistoryFloor, policy, st.TierRows, st.TierBytes)
	} else {
		fmt.Println("history: retained forever")
	}
}

// splitFields splits on spaces but keeps quoted strings and @ev(...) forms
// intact.
func splitFields(s string) []string {
	var out []string
	var cur strings.Builder
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case inStr:
			cur.WriteByte(c)
			if c == '"' {
				inStr = false
			}
		case c == '"':
			cur.WriteByte(c)
			inStr = true
		case c == '(':
			depth++
			cur.WriteByte(c)
		case c == ')':
			depth--
			cur.WriteByte(c)
		case c == ' ' && depth == 0:
			if cur.Len() > 0 {
				out = append(out, cur.String())
				cur.Reset()
			}
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// parseEvent parses @name or @name(arg, ...).
func parseEvent(s string) (event.Event, error) {
	if !strings.HasPrefix(s, "@") {
		return event.Event{}, fmt.Errorf("event must start with @: %q", s)
	}
	s = s[1:]
	name, argstr, hasArgs := strings.Cut(s, "(")
	if !hasArgs {
		return event.New(name), nil
	}
	if !strings.HasSuffix(argstr, ")") {
		return event.Event{}, fmt.Errorf("unterminated event args in %q", s)
	}
	argstr = strings.TrimSuffix(argstr, ")")
	var args []value.Value
	for _, a := range strings.Split(argstr, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		v, err := parseValue(a)
		if err != nil {
			return event.Event{}, err
		}
		args = append(args, v)
	}
	return event.New(name, args...), nil
}

// parseValue parses an integer, float, quoted string, bool, or bare word
// (treated as a string).
func parseValue(s string) (value.Value, error) {
	if s == "" {
		return value.Value{}, errors.New("empty value")
	}
	if s == "true" {
		return value.NewBool(true), nil
	}
	if s == "false" {
		return value.NewBool(false), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return value.NewFloat(f), nil
	}
	if strings.HasPrefix(s, `"`) && strings.HasSuffix(s, `"`) && len(s) >= 2 {
		return value.NewString(s[1 : len(s)-1]), nil
	}
	return value.NewString(s), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adbsh:", err)
	os.Exit(1)
}
