// Quickstart: the paper's running example from Section 5 — fire a trigger
// when the price of IBM stock doubles within 10 units of time. The history
// below is the paper's worked example: (10,1) (15,2) (18,5) (25,8); the
// trigger fires at the fourth state.
package main

import (
	"fmt"
	"log"

	"ptlactive"
)

func main() {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"ibm": ptlactive.Float(10)},
		Start:   1,
	})

	// [t <- time] [x <- price-now] previously (price <= 0.5x within 10).
	err := eng.AddTrigger("ibm_doubled",
		`[t <- time] [x <- item("ibm")]
		     previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
		func(ctx *ptlactive.ActionContext) error {
			fmt.Printf("  >> TRIGGER: IBM doubled (fired at time %d)\n", ctx.FiredAt)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	// Replay the paper's history: each pair is (price, time).
	for _, p := range [][2]int64{{15, 2}, {18, 5}, {25, 8}} {
		fmt.Printf("commit: ibm = %d at time %d\n", p[0], p[1])
		err := eng.Exec(p[1], map[string]ptlactive.Value{"ibm": ptlactive.Float(float64(p[0]))})
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("total firings: %d\n", eng.FiringCount())
	for _, f := range eng.Firings() {
		fmt.Printf("  rule %s fired at time %d\n", f.Rule, f.Time)
	}
}
