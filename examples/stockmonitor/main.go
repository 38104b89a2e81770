// Stockmonitor: the paper's stock-market scenarios on a synthetic feed —
//
//  1. a Dow-Jones crash trigger ("fell more than 250 points in the last
//     120 minutes", Section 1's motivating aggregate-free condition);
//  2. the moving hourly average of the IBM price sampled at update
//     events (Section 6.1's windowed-average formula);
//  3. the Section-7 temporal action: when the IBM price drops below a
//     threshold, buy stock every 10 minutes for the next hour, driven by
//     the executed predicate.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ptlactive"
)

func main() {
	rng := rand.New(rand.NewSource(42))
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{
			"px_IBM": ptlactive.Float(100),
			"px_DJ":  ptlactive.Float(4000),
			"shares": ptlactive.Int(0),
		},
	})

	// 1. Crash detection: there was an instant within the last 120 minutes
	// at which the DJ exceeded its current value by more than 250 points.
	err := eng.AddTrigger("dj_crash",
		`[d <- item("px_DJ")] previously <= 120 (item("px_DJ") > d + 250)`,
		func(ctx *ptlactive.ActionContext) error {
			fmt.Printf("%6d  CRASH: Dow fell more than 250 points within 2 hours\n", ctx.FiredAt)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Moving hourly average of IBM above 110, sampled at update events.
	err = eng.AddTrigger("ibm_hot",
		`avg(item("px_IBM"); window 60; @update_stocks("IBM")) > 110
		     and not lasttime avg(item("px_IBM"); window 60; @update_stocks("IBM")) > 110`,
		func(ctx *ptlactive.ActionContext) error {
			fmt.Printf("%6d  HOT: IBM hourly average crossed 110\n", ctx.FiredAt)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Temporal action: on the downward crossing of 80, buy 50 shares,
	// then every 10 minutes for an hour while the price stays below 80.
	buy := func(ctx *ptlactive.ActionContext) error {
		sh, _ := ctx.DB().Get("shares")
		n := sh.AsInt() + 50
		fmt.Printf("%6d  BUY: 50 shares (total %d)\n", ctx.FiredAt, n)
		return ctx.Exec(map[string]ptlactive.Value{"shares": ptlactive.Int(n)})
	}
	err = eng.AddTrigger("buy_start",
		`item("px_IBM") < 80 and lasttime (item("px_IBM") >= 80)`, buy)
	if err != nil {
		log.Fatal(err)
	}
	err = eng.AddTrigger("buy_repeat",
		`executed(buy_start, T) and time - T <= 60 and (time - T) mod 10 = 0
		     and item("px_IBM") < 80`, buy)
	if err != nil {
		log.Fatal(err)
	}

	// Drive a random-walk feed: IBM and DJ tick alternately each minute.
	ibm, dj := 100.0, 4000.0
	for eng.Now() < 600 {
		ts := eng.Now() + 1
		ibm += (rng.Float64()*2 - 1) * 6
		dj += (rng.Float64()*2 - 1) * 60
		updates := map[string]ptlactive.Value{
			"px_IBM": ptlactive.Float(ibm),
			"px_DJ":  ptlactive.Float(dj),
		}
		err := eng.Exec(ts, updates,
			ptlactive.NewEvent("update_stocks", ptlactive.Str("IBM")),
			ptlactive.NewEvent("update_stocks", ptlactive.Str("DJ")))
		if err != nil {
			log.Fatal(err)
		}
	}

	shares, _ := eng.DB().Get("shares")
	fmt.Printf("\nrun finished at time %d: %d firings, holding %s shares\n",
		eng.Now(), eng.FiringCount(), shares)
}
