package main

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"ptlactive/internal/adb"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// startTestServer runs an adbserverd-equivalent in-process and returns
// its address.
func startTestServer(t *testing.T) string {
	t.Helper()
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"ibm": value.NewInt(10)},
	})
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func runRemote(t *testing.T, r *remote, lines ...string) {
	t.Helper()
	for i, line := range lines {
		if err := r.exec(line); err != nil {
			t.Fatalf("line %d (%q): %v", i+1, line, err)
		}
	}
}

func TestRemoteShellSession(t *testing.T) {
	addr := startTestServer(t)
	r, err := newRemote(addr, "json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	runRemote(t, r,
		`trigger doubled :: [t <- time] [x <- item("ibm")] previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
		`commit 2 ibm=15`,
		`commit 5 ibm=18`,
		`commit 8 ibm=25`,
		`show db`,
		`show firings`,
		`show rules`,
		`health`,
		`follow 1`,
	)
	fs, err := r.cli.Firings(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Time != 8 {
		t.Fatalf("firings = %v", fs)
	}
}

func TestRemoteShellConstraintAbort(t *testing.T) {
	addr := startTestServer(t)
	r, err := newRemote(addr, "json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	runRemote(t, r,
		`constraint nonneg :: item("ibm") >= 0`,
		`commit 1 ibm=5`,
		`commit 2 ibm=-1`, // abort is reported, not an error
	)
	db, err := r.cli.DB()
	if err != nil {
		t.Fatal(err)
	}
	if db["ibm"].AsInt() != 5 {
		t.Fatalf("ibm = %v, want 5 (abort must not apply)", db["ibm"])
	}
}

func TestRemoteShellUnsupported(t *testing.T) {
	addr := startTestServer(t)
	r, err := newRemote(addr, "json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for _, line := range []string{"item x 1", "save", "recover", "eval :: true", "export", "show history"} {
		err := r.exec(line)
		if err == nil || !strings.Contains(err.Error(), "not supported in remote mode") {
			t.Fatalf("%q: err = %v, want a remote-mode refusal", line, err)
		}
	}
}

func TestRemoteCodecFlag(t *testing.T) {
	addr := startTestServer(t)
	r, err := newRemote(addr, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	runRemote(t, r, `commit 1 ibm=10`, `show db`)

	if _, err := newRemote(addr, "zstd"); err == nil {
		t.Fatal("newRemote accepted an unknown codec")
	}
}

// TestMalformedLinesSameErrorBothModes feeds the lines the shared parsers
// refuse to an in-process shell and to a remote one: neither may reach an
// engine, and both must report the same text.
func TestMalformedLinesSameErrorBothModes(t *testing.T) {
	r, err := newRemote(startTestServer(t), "json")
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	sh := &shell{initial: map[string]value.Value{}}
	for _, tc := range []struct{ line, want string }{
		{`trigger x`, `usage: trigger <name> :: <condition>`},
		{`constraint solvent not (item("a") < 0)`, `usage: constraint <name> :: <condition>`},
		{`commit`, `usage: commit <time> [k=v ...] [@ev(args) ...]`},
		{`commit x`, `bad time "x"`},
		{`commit 1 noequals`, `bad update "noequals"`},
		{`commit 1 a=`, `empty value`},
		{`commit 1 a=2 @e(1`, `unterminated event args in "e(1"`},
		{`emit 1`, `usage: emit <time> @ev(args) ...`},
		{`emit x @a`, `bad time "x"`},
		{`emit 1 a`, `event must start with @: "a"`},
	} {
		for mode, exec := range map[string]func(string) error{"local": sh.exec, "remote": r.exec} {
			if err := exec(tc.line); err == nil || err.Error() != tc.want {
				t.Errorf("%s %q: error %v, want %q", mode, tc.line, err, tc.want)
			}
		}
	}
	if sh.eng != nil {
		t.Error("a malformed line created the local engine")
	}
}
