// Remote: the network service layer end to end, all in one process — an
// engine wrapped by the TCP server on a loopback port, a subscriber client
// following the firing stream, and two committer goroutines pushing
// server-timestamped transactions over the wire. The subscriber sees every
// firing exactly once and in engine order, then the server drains cleanly.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"ptlactive/client"
	"ptlactive/internal/adb"
	"ptlactive/internal/server"
	"ptlactive/internal/value"
)

func main() {
	// Engine plus server on a random loopback port.
	eng := adb.NewEngine(adb.Config{
		Initial: map[string]value.Value{"temp": value.NewInt(20)},
	})
	srv, err := server.New(server.Config{Backend: server.NewEngineBackend(eng)})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("server listening on %s\n", addr)

	// A subscriber session: register the rule, then follow firings from
	// the beginning of the stream.
	watcher, err := client.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer watcher.Close()
	err = watcher.AddTrigger("overheat", `item("temp") > 30`)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := watcher.Subscribe(0)
	if err != nil {
		log.Fatal(err)
	}

	// Two committer sessions racing server-assigned timestamps. Writes
	// serialize through the commit pipeline, so the firing order every
	// subscriber observes is the engine's order.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				log.Fatal(err)
			}
			defer c.Close()
			for i := 0; i < 3; i++ {
				temp := int64(25 + 10*w + i) // worker 1 crosses the threshold
				ts, err := c.Exec(0, map[string]value.Value{"temp": value.NewInt(temp)})
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("  committer %d: temp=%d applied at time %d\n", w, temp, ts)
			}
		}(w)
	}
	wg.Wait()

	// Drain the subscription: three commits from worker 1 exceed 30.
	for i := 0; i < 3; i++ {
		select {
		case ev := <-sub.C:
			fmt.Printf("  FIRE %s at time %d (seq %d)\n", ev.Firing.Rule, ev.Firing.Time, ev.Seq)
		case <-time.After(5 * time.Second):
			log.Fatal("subscription stalled")
		}
	}

	// Graceful drain: pending frames flush, sessions get a bye, engine closes.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("server drained cleanly")
}
