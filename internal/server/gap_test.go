package server

import (
	"testing"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/value"
)

// gapEngine is an engine whose one trigger fires at every state: at its
// registration and at each of the commits commits.
func gapEngine(t *testing.T, commits int) *adb.Engine {
	t.Helper()
	eng := adb.NewEngine(adb.Config{Initial: map[string]value.Value{"a": value.NewInt(0)}})
	if err := eng.AddTrigger("always", `item("a") >= 0`, nil); err != nil {
		t.Fatal(err)
	}
	commitN(t, eng, 1, commits)
	return eng
}

// commitN commits a = i at ts i for i in [first, first+n).
func commitN(t *testing.T, eng *adb.Engine, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		if err := eng.ExecTxn(int64(i), map[string]value.Value{"a": value.NewInt(int64(i))}, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// drainStream reads sub until its firings and gaps account for want
// sequence numbers, each firing at its own, and returns the firings
// delivered and the gap frames' sizes. A stream that stalls for 2 s fails
// the test: no further firing is pushed, so a gap held back for one never
// arrives.
func drainStream(t *testing.T, sub *client.Subscription, want int) (fires int, gaps []int) {
	t.Helper()
	next := 0
	for next < want {
		select {
		case ev := <-sub.C:
			switch {
			case ev.Gap > 0:
				gaps = append(gaps, ev.Gap)
				next += ev.Gap
			case ev.Seq != next:
				t.Fatalf("firing %+v, want seq %d", ev, next)
			default:
				fires++
				next++
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("stream stalled after %d of %d sequence numbers: %d firings, gaps %v", next, want, fires, gaps)
		}
	}
	return fires, gaps
}

// TestSubscribeBacklogOverflowGap subscribes to a backlog longer than the
// subscriber queue on a quiescent server: the queue takes the first 256
// firings and one gap marker accounts for the other 45 at once.
func TestSubscribeBacklogOverflowGap(t *testing.T) {
	eng := gapEngine(t, 300)
	if n := eng.FiringCount(); n != 301 {
		t.Fatalf("%d firings, want 301", n)
	}
	_, conn := pipeServer(t, Config{Backend: NewEngineBackend(eng)})
	c, err := client.New(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	fires, gaps := drainStream(t, sub, 301)
	if fires != 256 || len(gaps) != 1 || gaps[0] != 45 {
		t.Fatalf("%d firings, gaps %v; want 256 firings and one gap of 45", fires, gaps)
	}
}

// TestLiveOverflowGap is its live twin: a subscriber that stops reading
// while commits run overflows its queue, and once the commits stop it
// still learns of every firing it missed, without a later firing to carry
// the marker.
func TestLiveOverflowGap(t *testing.T) {
	eng := gapEngine(t, 0)
	_, conn := pipeServer(t, Config{Backend: NewEngineBackend(eng), WriteTimeout: 30 * time.Second})
	c, err := client.New(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sub, err := c.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	// Nobody reads sub.C while the commits run: its 16 slots fill, the
	// client's reader blocks, the unbuffered pipe blocks the server's
	// writer, and past the writer's and the reader's buffers (no frame is
	// shorter than 16 bytes) and the 256-firing queue the firings drop.
	const commits = 4*sessionBufSize/16 + 256
	commitN(t, eng, 1, commits)
	fires, gaps := drainStream(t, sub, commits+1)
	if len(gaps) == 0 {
		t.Fatalf("%d firings and no gap; the queue bound did not engage", fires)
	}
	t.Logf("%d firings, gaps %v", fires, gaps)
}
