// Sessions: the introduction's motivating condition — "the value of
// attribute A remains positive while user X is logged in" — which needs
// both events and database-state evolution in one condition, the exact
// dichotomy the CA model removes. The program watches the *violation*:
// A dropped to zero or below during some user's open session, with the
// user as a rule parameter.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ptlactive"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"A": ptlactive.Int(3)},
	})

	// Violation: since some @login(U) with no @logout(U) after it, A is
	// now <= 0. The edge condition (A was positive last instant) keeps the
	// rule from refiring every state of a violated session.
	err := eng.AddTrigger("session_violation",
		`item("A") <= 0 and lasttime (item("A") > 0)
		     and ((not @logout(U)) since @login(U))`,
		func(ctx *ptlactive.ActionContext) error {
			u, _ := ctx.Param("U")
			fmt.Printf("%4d  VIOLATION: A dropped non-positive during %s's session\n",
				ctx.FiredAt, u)
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	users := []string{"alice", "bob", "carol"}
	logged := map[string]bool{}
	a := int64(3)
	for step := 0; step < 120; step++ {
		ts := eng.Now() + 1
		var evs []ptlactive.Event
		for _, u := range users {
			switch {
			case !logged[u] && rng.Float64() < 0.15:
				logged[u] = true
				evs = append(evs, ptlactive.NewEvent("login", ptlactive.Str(u)))
				fmt.Printf("%4d  login  %s\n", ts, u)
			case logged[u] && rng.Float64() < 0.10:
				logged[u] = false
				evs = append(evs, ptlactive.NewEvent("logout", ptlactive.Str(u)))
				fmt.Printf("%4d  logout %s\n", ts, u)
			}
		}
		if rng.Float64() < 0.5 {
			a += int64(rng.Intn(5)) - 2
			if err := eng.Exec(ts, map[string]ptlactive.Value{"A": ptlactive.Int(a)}, evs...); err != nil {
				log.Fatal(err)
			}
			continue
		}
		if len(evs) == 0 {
			evs = append(evs, ptlactive.NewEvent("tick"))
		}
		if err := eng.Emit(ts, evs...); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("\ndone: %d violations detected\n", eng.FiringCount())
}
