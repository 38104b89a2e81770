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
		name, cond, err := parseRule(cmd, rest)
		if err != nil {
			return err
		}
		if cmd == "trigger" {
			return r.cli.AddTrigger(name, cond)
		}
		return r.cli.AddConstraint(name, cond)
	case "commit":
		ts, updates, events, err := parseCommit(rest)
		if err != nil {
			return err
		}
		tx := r.cli.Txn().At(ts).Emit(events...)
		for k, v := range updates {
			tx.Set(k, v)
		}
		applied, err := tx.Commit()
		if err == nil && ts == 0 {
			fmt.Printf("committed at %d\n", applied)
		}
		return reportAbort(ts, err)
	case "emit":
		ts, events, err := parseEmit(rest)
		if err != nil {
			return err
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
		printStorage(st)
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
