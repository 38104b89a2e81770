// Command adbsh is a small scriptable shell for the active database: it
// reads commands from stdin (or a script file) and prints firings and
// aborts as they happen. It is the interactive counterpart of the
// examples.
//
// Commands (one per line, # comments):
//
//	item <name> <value>                  set an initial item (before rules)
//	trigger <name> :: <condition>        register a trigger (prints firings)
//	constraint <name> :: <constraint>    register an integrity constraint
//	commit <time> [k=v ...] [@ev(args)]  run a transaction (time 0 = next tick)
//	emit <time> @ev(args) ...            event-only state
//	show db | firings | history | rules  inspect state
//	eval <time-ignored> :: <condition>   one-off check of a closed condition
//	                                     against the retained history
//	save                                 checkpoint: snapshot + reset the WAL
//	recover                              close and reopen from disk (-data)
//	health [<rule>]                      per-rule fault and quarantine state
//	revive <rule>                        lift a rule's quarantine
//	storage                              WAL and snapshot footprint
//
// Values: integers, floats, or quoted strings. Example session:
//
//	item ibm 10
//	trigger doubled :: [t <- time] [x <- item("ibm")] previously (item("ibm") <= 0.5 * x and time >= t - 10)
//	commit 2 ibm=15
//	commit 8 ibm=25
//	show firings
//
// One interpreter runs every command the two modes share, as a client of
// an active-database server. Without -connect, adbsh serves its own engine
// in the same process over an in-memory connection, so a script gets the
// answers a server would give it. The engine-local commands (item, save,
// recover, eval, export, show history) run only there, against the engine
// itself, and the engine prints a FIRE line for every firing and a FAULT
// line for every isolated action fault as it happens. eval, export and
// show history read the retained history: like a server's, the engine's
// commit pipeline compacts away the states every rule has consumed every
// 64 operations.
//
// The -data flag makes the engine durable: every committed operation is
// written to a write-ahead log in the given directory, `save` writes a
// snapshot, and `recover` (or simply restarting adbsh with the same
// -data) rebuilds the engine from disk. Replayed firings are printed
// again during recovery.
//
// Remote mode: -connect host:port runs the commands against an adbserverd
// (one engine or a cluster front) over the network. The engine-local commands are
// unavailable there; `follow <n>` is added, subscribing to the server's
// firing stream and printing the next n firings, and `role` reports the
// server's replication role, leader hint, epoch and LSN.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/event"
	"ptlactive/internal/ptl"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

func main() {
	dataDir := flag.String("data", "", "durable engine directory (write-ahead log + snapshots); empty = memory-only")
	connect := flag.String("connect", "", "run against a remote adbserverd at host:port instead of an in-process engine")
	codec := flag.String("codec", "json", "wire codec to offer in remote mode: json (inspectable frames) or binary")
	segBytes := flag.Int64("wal-segment-bytes", 0, "rotate the WAL at this segment size; snapshot-covered segments are GCed (0 = single segment forever)")
	keepSnaps := flag.Int("keep-snapshots", 0, "snapshot chain length after each checkpoint (0/1 = newest only)")
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
			cfg: adb.Config{
				Retention: adb.Retention{
					SegmentBytes:  *segBytes,
					KeepSnapshots: *keepSnaps,
				},
			},
			dataDir: *dataDir,
		}
		defer func() {
			if err := sh.close(); err != nil {
				fatal(err)
			}
		}()
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

// shell is the in-process mode: the shared commands go to a remote whose
// server runs in this process, the engine-local ones to the engine behind
// it.
type shell struct {
	cfg     adb.Config // from the flags; item lines fill Initial
	dataDir string

	// Set by open, on the first line that needs the engine.
	eng *adb.Engine
	be  *server.EngineBackend
	srv *server.Server
	r   *remote
}

// open starts the engine and the server in front of it, once: the server
// serves one end of a net.Pipe and the remote holds a client on the
// other. Items set before it become the initial state. With -data the
// engine is opened with Restore, so an existing directory is recovered
// (its initial state and rules come from disk, not from this session's
// item lines).
func (s *shell) open() error {
	if s.eng != nil {
		return nil
	}
	cfg := s.cfg
	cfg.OnFiring = printFire
	cfg.OnRuleFault = func(f adb.RuleFault) {
		fmt.Printf("FAULT %s at %d: %v\n", f.Rule, f.Time, f.Err)
	}
	var eng *adb.Engine
	if s.dataDir == "" {
		eng = adb.NewEngine(cfg)
	} else {
		var err error
		if eng, err = adb.Restore(cfg, s.dataDir); err != nil {
			return err
		}
		printRecovery(eng.Recovery())
	}
	be := server.NewEngineBackend(eng)
	srv, err := server.New(server.Config{Backend: be})
	if err != nil {
		be.Close()
		return err
	}
	conn, peer := net.Pipe()
	srv.ServeConn(peer)
	cli, err := client.New(conn)
	if err != nil {
		srv.Shutdown(context.Background())
		return err
	}
	s.eng, s.be, s.srv, s.r = eng, be, srv, &remote{cli: cli}
	return nil
}

// close stops the server, which closes the engine, and reports the
// engine's close error.
func (s *shell) close() error {
	if s.eng == nil {
		return nil
	}
	s.r.close()
	s.srv.Shutdown(context.Background())
	s.eng = nil
	return s.be.Close()
}

// do runs fn on the engine's commit pipeline, opening the engine first.
func (s *shell) do(fn func(*adb.Engine) error) error {
	if err := s.open(); err != nil {
		return err
	}
	var err error
	s.be.Do(func() { err = fn(s.eng) })
	return err
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
		if name == "time" {
			return fmt.Errorf("item %s: %w", name, adb.ErrReservedItem)
		}
		v, err := parseValue(strings.TrimSpace(vs))
		if err != nil {
			return err
		}
		if s.cfg.Initial == nil {
			s.cfg.Initial = map[string]value.Value{}
		}
		s.cfg.Initial[name] = v
		return nil
	case "show":
		if rest == "history" {
			return s.do(func(eng *adb.Engine) error {
				fmt.Print(eng.History())
				return nil
			})
		}
		fallthrough
	case "trigger", "constraint", "commit", "emit", "health", "storage", "revive":
		if err := checkArgs(cmd, rest); err != nil {
			return err
		}
		if err := s.open(); err != nil {
			return err
		}
		return s.r.exec(line)
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
		return s.do(func(eng *adb.Engine) error {
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
		})
	case "save":
		if s.dataDir == "" {
			return errors.New("save requires -data")
		}
		if err := s.do((*adb.Engine).Checkpoint); err != nil {
			return err
		}
		fmt.Println("saved: snapshot written, wal reset")
		return nil
	case "recover":
		if s.dataDir == "" {
			return errors.New("recover requires -data")
		}
		if err := s.close(); err != nil {
			return err
		}
		return s.open() // reopen from disk; prints the recovery summary
	case "export":
		return s.do(func(eng *adb.Engine) error { return eng.ExportHistory(os.Stdout) })
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// checkArgs runs the shared parsers over a line's arguments, so a
// malformed line is refused before the in-process engine opens.
func checkArgs(cmd, rest string) (err error) {
	switch cmd {
	case "trigger", "constraint":
		_, _, err = parseRule(cmd, rest)
	case "commit":
		_, _, _, err = parseCommit(rest)
	case "emit":
		_, _, err = parseEmit(rest)
	}
	return err
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
