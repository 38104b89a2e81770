package server

import (
	"fmt"
	"sync"
	"testing"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// TestClientSharedConcurrent is the regression test for the
// concurrent-client frame-corruption bug: N goroutines commit through
// ONE shared Client. Before the client serialized its frame writes
// behind a mutex, two goroutines could interleave length-prefixed
// frames mid-write and corrupt the stream (the server would see a torn
// frame and kill the session). With the write lock, every commit must
// land and the server clock must equal the total commit count. Run
// under -race — the unsynchronized wire.WriteFrame path is also a data
// race on the shared connection buffer.
func TestClientSharedConcurrent(t *testing.T) {
	for _, codec := range equivCodecs {
		t.Run("codec="+codec.name, func(t *testing.T) {
			eng := adb.NewEngine(adb.Config{
				Initial: map[string]value.Value{"a": value.NewInt(0), "b": value.NewInt(0)},
			})
			_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
			c := dialCodec(t, addr, codec.codecs, codec.want)

			const goroutines, commits = 8, 50
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < commits; i++ {
						key := "a"
						if g%2 == 1 {
							key = "b"
						}
						_, err := c.Exec(0, map[string]value.Value{
							key: value.NewInt(int64(g*1000 + i)),
						})
						if err != nil {
							errs <- fmt.Errorf("goroutine %d commit %d: %w", g, i, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			now, err := c.Now()
			if err != nil {
				t.Fatal(err)
			}
			if now != int64(goroutines*commits) {
				t.Fatalf("server clock = %d, want %d (lost commits on a shared client)", now, goroutines*commits)
			}
		})
	}
}

// TestClientPipelined drives the pipelined commit API: a window of
// transactions in flight on one connection, responses matched by frame
// id. Every commit must be acknowledged with a distinct timestamp, and
// the final clock must count them all — ordering within the window is
// the server's (arrival order), but nothing may be lost or cross-wired.
func TestClientPipelined(t *testing.T) {
	for _, codec := range equivCodecs {
		t.Run("codec="+codec.name, func(t *testing.T) {
			eng := adb.NewEngine(adb.Config{
				Initial: map[string]value.Value{"a": value.NewInt(0)},
			})
			_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
			c := dialCodec(t, addr, codec.codecs, codec.want)

			const total, window = 200, 64
			seen := make(map[int64]bool, total)
			pending := make([]*client.Pending, 0, window)
			flush := func() {
				for _, p := range pending {
					ts, err := p.Wait()
					if err != nil {
						t.Fatal(err)
					}
					if seen[ts] {
						t.Fatalf("timestamp %d acknowledged twice", ts)
					}
					seen[ts] = true
				}
				pending = pending[:0]
			}
			for i := 0; i < total; i++ {
				p := c.Txn().Set("a", value.NewInt(int64(i))).Go()
				pending = append(pending, p)
				if len(pending) == window {
					flush()
				}
			}
			flush()
			if len(seen) != total {
				t.Fatalf("%d distinct timestamps, want %d", len(seen), total)
			}
			now, err := c.Now()
			if err != nil {
				t.Fatal(err)
			}
			if now != int64(total) {
				t.Fatalf("server clock = %d, want %d", now, total)
			}
		})
	}
}

// TestClientPipelinedConcurrent mixes both: several goroutines each
// pipelining through the same shared client, under -race. This is the
// worst case for the write path (interleaved pipelined frames) and for
// the response router (many outstanding ids).
func TestClientPipelinedConcurrent(t *testing.T) {
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"a": value.NewInt(0)},
	})
	_, addr := startServer(t, Config{Backend: NewEngineBackend(eng)})
	c := dial(t, addr)

	const goroutines, commits = 4, 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pending := make([]*client.Pending, 0, commits)
			for i := 0; i < commits; i++ {
				pending = append(pending, c.Txn().Set("a", value.NewInt(int64(g*commits+i))).Go())
			}
			for i, p := range pending {
				if _, err := p.Wait(); err != nil {
					errs <- fmt.Errorf("goroutine %d commit %d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	now, err := c.Now()
	if err != nil {
		t.Fatal(err)
	}
	if now != int64(goroutines*commits) {
		t.Fatalf("server clock = %d, want %d", now, goroutines*commits)
	}
}
