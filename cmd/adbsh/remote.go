package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/event"
	"ptlactive/internal/server/wire"
)

// remote executes shell commands against an adbserverd instead of an
// in-process engine (-connect). The command grammar is the same; the
// engine-local commands that have no remote equivalent (item, save,
// recover, eval, export, show history) report so instead of guessing.
// `follow <n>` is remote-only: it subscribes to the server's firing
// stream and prints the next n firings as FIRE lines.
type remote struct {
	cli *client.Client
}

// newRemote dials the server offering the named codec. The shell
// defaults to "json" so a tcpdump of an adbsh session stays readable;
// "binary" offers the full codec list and lets negotiation pick the
// fast wire.
func newRemote(addr, codec string) (*remote, error) {
	c, ok := wire.ParseCodec(codec)
	if !ok {
		return nil, fmt.Errorf("unknown codec %q (want %s or %s)",
			codec, wire.CodecNameJSON, wire.CodecNameBinary)
	}
	codecs := []string{wire.CodecNameJSON}
	if c == wire.CodecBinary {
		codecs = wire.DefaultCodecs()
	}
	cli, err := client.DialOptions(addr, client.Options{Codecs: codecs, Retry: client.DefaultRetry()})
	if err != nil {
		return nil, err
	}
	return &remote{cli: cli}, nil
}

func (r *remote) close() { r.cli.Close() }

func (r *remote) exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	switch cmd {
	case "item", "save", "recover", "eval", "export":
		return fmt.Errorf("%s is not supported in remote mode (engine-local)", cmd)
	case "trigger", "constraint":
		name, cond, ok := strings.Cut(rest, "::")
		if !ok {
			return fmt.Errorf("usage: %s <name> :: <condition>", cmd)
		}
		name = strings.TrimSpace(name)
		cond = strings.TrimSpace(cond)
		if cmd == "trigger" {
			return r.cli.AddTrigger(name, cond)
		}
		return r.cli.AddConstraint(name, cond)
	case "commit":
		fields := splitFields(rest)
		if len(fields) == 0 {
			return errors.New("usage: commit <time> [k=v ...] [@ev(args) ...]")
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad time %q", fields[0])
		}
		tx := r.cli.Txn().At(ts)
		for _, f := range fields[1:] {
			if strings.HasPrefix(f, "@") {
				ev, err := parseEvent(f)
				if err != nil {
					return err
				}
				tx.Emit(ev)
				continue
			}
			k, vs, ok := strings.Cut(f, "=")
			if !ok {
				return fmt.Errorf("bad update %q", f)
			}
			v, err := parseValue(vs)
			if err != nil {
				return err
			}
			tx.Set(k, v)
		}
		applied, err := tx.Commit()
		var ce *adb.ConstraintError
		if errors.As(err, &ce) {
			fmt.Printf("ABORT at %d: %s\n", ts, ce.Constraint)
			return nil
		}
		if err == nil && ts == 0 {
			fmt.Printf("committed at %d\n", applied)
		}
		return err
	case "emit":
		fields := splitFields(rest)
		if len(fields) < 2 {
			return errors.New("usage: emit <time> @ev(args) ...")
		}
		ts, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("bad time %q", fields[0])
		}
		var events []event.Event
		for _, f := range fields[1:] {
			ev, err := parseEvent(f)
			if err != nil {
				return err
			}
			events = append(events, ev)
		}
		_, err = r.cli.Emit(ts, events...)
		return err
	case "follow":
		n, err := strconv.Atoi(rest)
		if err != nil || n <= 0 {
			return errors.New("usage: follow <n firings>")
		}
		sub, err := r.cli.Subscribe(0)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			select {
			case ev, ok := <-sub.C:
				if !ok {
					return errors.New("subscription ended early")
				}
				if ev.Gap != 0 {
					fmt.Printf("GAP %d firings dropped\n", ev.Gap)
					i--
					continue
				}
				printFire(ev.Firing)
			case <-time.After(30 * time.Second):
				return errors.New("follow: timed out waiting for firings")
			}
		}
		if st := r.cli.Stats(); st.DroppedPushes > 0 || st.GapFirings > 0 {
			fmt.Fprintf(os.Stderr, "warning: incomplete stream: %d firing(s) dropped with no live subscription, %d lost to gap markers\n",
				st.DroppedPushes, st.GapFirings)
		}
		return nil
	case "health":
		h, err := r.cli.Health()
		if err != nil {
			return err
		}
		for _, hr := range h.Rules {
			if rest != "" && hr.Rule != rest {
				continue
			}
			status := "ok"
			if hr.Quarantined {
				status = "QUARANTINED"
			}
			line := fmt.Sprintf("  %s: %s, %d consecutive / %d total failures", hr.Rule, status, hr.Consecutive, hr.Total)
			if hr.LastError != "" {
				line += fmt.Sprintf(", last at %d: %v", hr.LastAt, hr.LastError)
			}
			fmt.Println(line)
		}
		if h.Degraded != "" {
			fmt.Printf("  engine: DEGRADED: %v\n", h.Degraded)
		}
		return nil
	case "role":
		rs, err := r.cli.Role()
		if err != nil {
			return err
		}
		fmt.Printf("role=%s leader=%s epoch=%d lsn=%d\n", rs.Role, rs.Leader, rs.Epoch, rs.LSN)
		return nil
	case "storage":
		st, err := r.cli.Storage()
		if err != nil {
			return err
		}
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
		return nil
	case "revive":
		if rest == "" {
			return errors.New("usage: revive <rule>")
		}
		if err := r.cli.ReviveRule(rest); err != nil {
			return err
		}
		fmt.Printf("revived %s\n", rest)
		return nil
	case "show":
		switch rest {
		case "db":
			items, err := r.cli.DB()
			if err != nil {
				return err
			}
			names := make([]string, 0, len(items))
			for n := range items {
				names = append(names, n)
			}
			sort.Strings(names)
			parts := make([]string, len(names))
			for i, n := range names {
				parts[i] = fmt.Sprintf("%s=%v", n, items[n])
			}
			fmt.Printf("{%s}\n", strings.Join(parts, ", "))
			return nil
		case "firings":
			fs, err := r.cli.Firings(0)
			if err != nil {
				return err
			}
			for _, f := range fs {
				fmt.Printf("  %s at %d %v\n", f.Rule, f.Time, f.Binding)
			}
			fmt.Printf("  (%d total)\n", len(fs))
			return nil
		case "rules":
			rules, err := r.cli.Rules()
			if err != nil {
				return err
			}
			for _, info := range rules {
				kind := "trigger"
				if info.Constraint {
					kind = "constraint"
				}
				fmt.Printf("  %s (%s, params %v, pending %d)\n", info.Name, kind, info.Parameters, info.Pending)
			}
			return nil
		case "history":
			return errors.New("show history is not supported in remote mode")
		default:
			return fmt.Errorf("show what? db|firings|rules")
		}
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func printFire(f adb.Firing) {
	if len(f.Binding) > 0 {
		fmt.Printf("FIRE %s at %d %v\n", f.Rule, f.Time, f.Binding)
	} else {
		fmt.Printf("FIRE %s at %d\n", f.Rule, f.Time)
	}
}
