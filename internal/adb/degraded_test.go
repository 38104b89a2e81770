package adb

import (
	"errors"
	"fmt"
	"testing"

	"ptlactive/internal/event"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

// registerTolerant registers the parameter set's rules in the exact order
// engineParams.register does, but tolerates a degraded seal mid-way: it
// returns how many registrations committed and the sealing error (nil if
// all succeeded). Any other failure is fatal.
func registerTolerant(t *testing.T, e *Engine, p engineParams) (int, error) {
	t.Helper()
	n := 0
	reg := func(add func() error) error {
		if err := add(); err != nil {
			if errors.Is(err, ErrDegraded) {
				return err
			}
			t.Fatalf("register: %v", err)
		}
		n++
		return nil
	}
	for i, cond := range p.conds {
		name, sched := fmt.Sprintf("r%03d", i), p.scheds[i]
		if _, ok := e.Rule(name); ok {
			n++
			continue
		}
		if err := reg(func() error { return e.AddTrigger(name, cond, nil, WithScheduling(sched)) }); err != nil {
			return n, err
		}
	}
	if p.withConstraints {
		for _, c := range []struct{ name, cond string }{
			{"c_a_low", `not (item("a") > 50)`},
			{"c_b_low", `not (item("b") > 50)`},
		} {
			if _, ok := e.Rule(c.name); ok {
				n++
				continue
			}
			c := c
			if err := reg(func() error { return e.AddConstraint(c.name, c.cond) }); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// applyOpTolerant runs one operation, returning (violated constraint,
// sealing error). A degraded seal is the expected fault; anything else
// non-constraint is fatal.
func applyOpTolerant(t *testing.T, e *Engine, op engineOp) (string, error) {
	t.Helper()
	var err error
	switch op.kind {
	case opEmit:
		err = e.Emit(op.ts, op.events...)
	case opExec:
		err = e.Exec(op.ts, op.upd, op.events...)
		var ce *ConstraintError
		if errors.As(err, &ce) {
			return ce.Constraint, nil
		}
	case opAbort:
		tx := e.Begin()
		tx.Set("a", value.NewInt(99))
		err = tx.Abort(op.ts)
	case opFlush:
		err = e.Flush()
	}
	if err != nil {
		if errors.Is(err, ErrDegraded) {
			return "", err
		}
		t.Fatalf("op %+v: %v", op, err)
	}
	return "", nil
}

// TestDegradedOnWALFaultEveryBoundary is graceful degradation under
// durability faults: a WAL append failure injected at every record
// boundary of a random history must (a) surface as an ErrDegraded-wrapped
// error from the operation in flight, (b) seal the engine — every further
// mutation is refused while read accessors keep serving the in-memory
// state — and (c) leave a log from which Restore recovers exactly the
// committed prefix: re-applying the remaining operations reproduces the
// fault-free run byte for byte (the injected half-frame is truncated as a
// torn tail, never replayed).
//
// LSN 1 (the init record of a fresh directory) is written inside Restore
// before a failpoint can be installed, so the swept boundaries start at
// the first rule-registration record; Restore's own error path for a
// failed init append returns the error directly.
func TestDegradedOnWALFaultEveryBoundary(t *testing.T) {
	const seed, rules, states = 7001, 5, 24
	p := randomEngineParams(seed, rules, true)
	ops := randomOps(seed*31, rules, states, 0)
	preamble := int64(1 + rules + 2) // init + triggers + constraints

	// Fault-free in-memory reference.
	ref := NewEngine(p.config())
	p.register(t, ref)
	var refAborts []string
	for _, op := range ops {
		if name := applyOp(t, ref, op); name != "" {
			refAborts = append(refAborts, name)
		}
	}

	for L := int64(2); L <= preamble+int64(len(ops)); L++ {
		L := L
		t.Run(fmt.Sprintf("faultLSN=%d", L), func(t *testing.T) {
			dir := t.TempDir()
			cfg := p.config()
			cfg.Durability = DurabilityWAL
			cfg.NoFsync = true
			e1, err := Restore(cfg, dir)
			if err != nil {
				t.Fatalf("fresh Restore: %v", err)
			}
			boom := errors.New("injected write fault")
			e1.store.SetFailpoint(func(op string, lsn int64) error {
				if op == "append" && lsn == L {
					return boom
				}
				return nil
			})

			// Drive until the fault seals the engine.
			var sealErr error
			_, sealErr = registerTolerant(t, e1, p)
			opsApplied := 0
			if sealErr == nil {
				for _, op := range ops {
					if _, err := applyOpTolerant(t, e1, op); err != nil {
						sealErr = err
						break
					}
					opsApplied++
				}
			}
			if sealErr == nil {
				t.Fatalf("fault at LSN %d never fired", L)
			}
			if !errors.Is(sealErr, ErrDegraded) || !errors.Is(sealErr, boom) {
				t.Fatalf("seal error = %v, want ErrDegraded wrapping the injected fault", sealErr)
			}
			if want := int(L - 2 - (preamble - 1)); opsApplied != max(0, want) {
				t.Fatalf("committed %d ops before fault at LSN %d, want %d", opsApplied, L, max(0, want))
			}
			// Sealed: mutations refused, read accessors still serve.
			if err := e1.Emit(e1.Now()+1000, event.New("late")); !errors.Is(err, ErrDegraded) {
				t.Fatalf("Emit after seal = %v, want ErrDegraded", err)
			}
			if e1.Degraded() == nil {
				t.Fatal("Degraded() nil after seal")
			}
			_ = e1.Firings() // read path must not panic or block
			_ = e1.DB()
			_ = e1.Close()

			// Recovery: the committed prefix, then the rest of the run.
			e2, err := Restore(cfg, dir)
			if err != nil {
				t.Fatalf("Restore after fault: %v", err)
			}
			defer e2.Close()
			if n, err := registerTolerant(t, e2, p); err != nil || n != rules+2 {
				t.Fatalf("re-register: n=%d err=%v", n, err)
			}
			var aborts []string
			for _, op := range ops[opsApplied:] {
				if name := applyOp(t, e2, op); name != "" {
					aborts = append(aborts, name)
				}
			}
			// The recovered engine replayed ops[:opsApplied]; its abort list
			// only covers the re-applied suffix, so compare against the
			// reference's suffix of the same length.
			if len(aborts) > len(refAborts) {
				t.Fatalf("more aborts after recovery (%d) than the reference run (%d)", len(aborts), len(refAborts))
			}
			for i, name := range aborts {
				if want := refAborts[len(refAborts)-len(aborts)+i]; name != want {
					t.Fatalf("abort %d after recovery = %s, want %s", i, name, want)
				}
			}
			if !firingsEqual(e2.Firings(), ref.Firings()) {
				t.Fatalf("firings diverge after recovery:\n got %v\nwant %v", e2.Firings(), ref.Firings())
			}
			if e2.Now() != ref.Now() {
				t.Fatalf("Now = %d, want %d", e2.Now(), ref.Now())
			}
			if !e2.DB().Equal(ref.DB()) {
				t.Fatalf("DB diverges after recovery:\n got %v\nwant %v", e2.DB(), ref.DB())
			}
			if e2.EvalSteps() != ref.EvalSteps() {
				t.Fatalf("EvalSteps = %d, want %d", e2.EvalSteps(), ref.EvalSteps())
			}
		})
	}
}

// TestDegradedOnFsyncFault is the fsync flavor: the frame reaches the
// file but the fsync fails. The engine seals exactly as for a write
// fault; on Restore the fully-framed record is legitimately recovered —
// it may have reached disk, and replaying a possibly-durable record is
// the safe direction — so recovery resumes one operation further along.
func TestDegradedOnFsyncFault(t *testing.T) {
	const seed, rules, states = 7002, 4, 12
	p := randomEngineParams(seed, rules, true)
	ops := randomOps(seed*31, rules, states, 0)
	preamble := int64(1 + rules + 2)

	ref := NewEngine(p.config())
	p.register(t, ref)
	for _, op := range ops {
		applyOp(t, ref, op)
	}

	// Fault the fsync of the middle operation's record.
	faultOp := len(ops) / 2
	L := preamble + int64(faultOp) + 1

	dir := t.TempDir()
	cfg := p.config()
	cfg.Durability = DurabilityWAL // NoFsync stays false: the sync path must run
	e1, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected fsync fault")
	e1.store.SetFailpoint(func(op string, lsn int64) error {
		if op == "sync" && lsn == L {
			return boom
		}
		return nil
	})
	if _, err := registerTolerant(t, e1, p); err != nil {
		t.Fatal(err)
	}
	opsApplied := 0
	var sealErr error
	for _, op := range ops {
		if _, err := applyOpTolerant(t, e1, op); err != nil {
			sealErr = err
			break
		}
		opsApplied++
	}
	if !errors.Is(sealErr, ErrDegraded) || !errors.Is(sealErr, boom) {
		t.Fatalf("seal error = %v, want ErrDegraded wrapping the fsync fault", sealErr)
	}
	if opsApplied != faultOp {
		t.Fatalf("committed %d ops, want %d", opsApplied, faultOp)
	}
	_ = e1.Close()

	e2, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if e2.Recovery().TruncatedAt >= 0 {
		t.Fatalf("fsync fault left a torn tail at %d; the frame was fully written", e2.Recovery().TruncatedAt)
	}
	// The faulted record was fully framed: recovery replays it too.
	for _, op := range ops[faultOp+1:] {
		applyOp(t, e2, op)
	}
	if !firingsEqual(e2.Firings(), ref.Firings()) {
		t.Fatalf("firings diverge:\n got %v\nwant %v", e2.Firings(), ref.Firings())
	}
	if !e2.DB().Equal(ref.DB()) || e2.Now() != ref.Now() {
		t.Fatalf("state diverges: DB %v vs %v, Now %d vs %d", e2.DB(), ref.DB(), e2.Now(), ref.Now())
	}
}

// TestReviveRefusedWhenDegraded pins that ReviveRule is a mutator under
// the degraded seal: once a durability fault seals the engine, a revive
// is refused and the quarantine stays in place — a sealed engine cannot
// diverge from its log by re-enabling suppressed actions it can no
// longer record.
func TestReviveRefusedWhenDegraded(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Initial:         map[string]value.Value{"a": value.NewInt(1)},
		Durability:      DurabilityWAL,
		NoFsync:         true,
		MaxRuleFailures: 1,
	}
	e, err := Restore(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("broken action")
	if err := e.AddTrigger("flaky", `@hit`, func(ctx *ActionContext) error { return boom }); err != nil {
		t.Fatal(err)
	}
	if err := e.Emit(1, event.New("hit")); err != nil { // one failure: quarantined
		t.Fatal(err)
	}
	if got := e.QuarantinedRules(); len(got) != 1 {
		t.Fatalf("QuarantinedRules = %v, want [flaky]", got)
	}
	fault := errors.New("injected write fault")
	e.store.SetFailpoint(func(op string, lsn int64) error {
		if op == "append" {
			return fault
		}
		return nil
	})
	if err := e.Emit(2, event.New("hit")); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Emit under fault = %v, want ErrDegraded", err)
	}
	if err := e.ReviveRule("flaky"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("ReviveRule on sealed engine = %v, want ErrDegraded", err)
	}
	if got := e.QuarantinedRules(); len(got) != 1 || got[0] != "flaky" {
		t.Fatalf("quarantine changed on a sealed engine: %v", got)
	}
	_ = e.Close()
}

// Compile-time check that the failpoint type is reachable from this
// package the way operators would use it (engine tests reach the store
// directly; external callers go through persist.Store.SetFailpoint).
var _ persist.Failpoint = func(op string, lsn int64) error { return nil }
