package experiments

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

// FanoutRun is the E13 kernel: an in-process server on a loopback
// listener, one session committing commits server-timestamped
// transactions (every commit fires one trigger) with up to 64 in flight,
// and subs subscribers over the negotiated binary codec with batched
// delivery, each of which must receive the full firing stream before the
// clock stops. The subscriber queue is raised to 2 x commits, so no
// firing can overflow into a gap marker and every subscriber sees exactly
// commits firings, in sequence (anything else aborts the run). Connections are dialed and subscriptions registered
// before the clock starts. It returns the wall time and the total firing
// deliveries.
func FanoutRun(commits, subs int) (time.Duration, int) {
	const window = 64
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"a": value.NewInt(0)},
	})
	if err := eng.AddTrigger("every", `item("a") > 0`, nil); err != nil {
		panic(err)
	}
	srv, err := server.New(server.Config{
		Engine:          eng,
		MaxConns:        subs + 9,
		SubscriberQueue: 2 * commits,
	})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go srv.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	addr := ln.Addr().String()

	streams := make([]*client.Subscription, subs)
	for s := range streams {
		c, err := client.Dial(addr)
		if err != nil {
			panic(err)
		}
		defer c.Close()
		if streams[s], err = c.Subscribe(0); err != nil {
			panic(err)
		}
	}
	committer, err := client.Dial(addr)
	if err != nil {
		panic(err)
	}
	defer committer.Close()

	start := time.Now()
	var subWG sync.WaitGroup
	var delivered atomic.Int64
	for _, sub := range streams {
		sub := sub
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for got := 0; got < commits; got++ {
				if ev, ok := <-sub.C; !ok || ev.Gap > 0 || ev.Seq != got {
					panic(fmt.Sprintf("E13: stream broke after %d firings: %+v (open %v)", got, ev, ok))
				}
			}
			delivered.Add(int64(commits))
		}()
	}

	pending := make([]*client.Pending, 0, window)
	flush := func() {
		for _, p := range pending {
			if _, err := p.Wait(); err != nil {
				panic(err)
			}
		}
		pending = pending[:0]
	}
	for i := 0; i < commits; i++ {
		pending = append(pending, committer.Txn().Set("a", value.NewInt(int64(i+1))).Go())
		if len(pending) >= window {
			flush()
		}
	}
	flush()
	subWG.Wait()
	return time.Since(start), int(delivered.Load())
}

// E13Server reports firing fan-out to a large subscriber set — the one
// served scenario no bench/ workload has (firing-stream has a single
// subscriber). The deliveries column is exact: commits x subs. The time
// is printed for ROADMAP item 2(b) and baselined nowhere; synchronous,
// pipelined and per-codec commit costs are bench/'s server.sync_commit_us,
// server.pipelined_commits_per_s and client.encode_us vs
// client.encode_json_us, and the per-firing push is
// server.fanout_us_per_firing.
func E13Server(quick bool) Table {
	commits, subs := 300, 1000
	if quick {
		commits, subs = 40, 100
	}
	dur, delivered := FanoutRun(commits, subs)
	return Table{
		ID:     "E13",
		Title:  "firing fan-out to many subscribers",
		Header: []string{"scenario", "commits", "subs", "deliveries", "total ms", "us/commit"},
		Rows: [][]string{{
			fmt.Sprintf("fan-out %d subs batched", subs), fmt.Sprint(commits), fmt.Sprint(subs),
			fmt.Sprint(delivered), fmtMs(dur), fmtDur(dur, commits),
		}},
		Notes: "loopback TCP, one trigger firing per commit, server-assigned timestamps, binary " +
			"codec, 64 commits in flight, batched multi-firing delivery. The clock stops only " +
			"when every subscriber has received the full firing stream; a dropped firing (a gap " +
			"marker) aborts the run, so deliveries = commits x subs exactly.",
	}
}
