package ptlactive_test

import (
	"errors"
	"fmt"

	"ptlactive"
)

// The paper's Section-5 running example: fire when the IBM price doubles
// within 10 time units.
func ExampleEngine_AddTrigger() {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"ibm": ptlactive.Float(10)},
		Start:   1,
	})
	_ = eng.AddTrigger("doubled",
		`[t <- time] [x <- item("ibm")]
		     previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
		func(ctx *ptlactive.ActionContext) error {
			fmt.Println("IBM doubled at time", ctx.FiredAt)
			return nil
		})
	_ = eng.Exec(2, map[string]ptlactive.Value{"ibm": ptlactive.Float(15)})
	_ = eng.Exec(5, map[string]ptlactive.Value{"ibm": ptlactive.Float(18)})
	_ = eng.Exec(8, map[string]ptlactive.Value{"ibm": ptlactive.Float(25)})
	// Output: IBM doubled at time 8
}

// A temporal integrity constraint (Section 3): the balance never
// decreases by more than 100 within 5 time units.
func ExampleEngine_AddConstraint() {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"balance": ptlactive.Int(200)},
	})
	_ = eng.AddConstraint("no_crash",
		`[b <- item("balance")] not previously <= 5 (item("balance") > b + 100)`)
	err := eng.Exec(1, map[string]ptlactive.Value{"balance": ptlactive.Int(50)})
	fmt.Println("aborted:", errors.Is(err, ptlactive.ErrConstraintViolation))
	bal, _ := eng.DB().Get("balance")
	fmt.Println("balance:", bal)
	// Output:
	// aborted: true
	// balance: 200
}

// A parameterized rule: the condition's free variable U binds per firing
// and flows to the action.
func ExampleActionContext_Param() {
	eng := ptlactive.NewEngine(ptlactive.Config{})
	_ = eng.AddTrigger("watch", `@login(U)`, func(ctx *ptlactive.ActionContext) error {
		u, _ := ctx.Param("U")
		fmt.Println("login:", u)
		return nil
	})
	_ = eng.Emit(1, ptlactive.NewEvent("login", ptlactive.Str("alice")))
	// Output: login: "alice"
}

// Valid time (Section 9): a retroactive update fires a tentative trigger
// for a past instant.
func ExampleValidStore() {
	base := ptlactive.NewDB(map[string]ptlactive.Value{"a": ptlactive.Int(0)})
	store := ptlactive.NewValidStore(base, 0, 100)
	reg := ptlactive.NewRegistry()
	cond, _ := ptlactive.ParseCondition(`item("a") > 5`)
	mon, _ := ptlactive.NewValidMonitor(store, reg, cond, ptlactive.Tentative)

	_ = store.Begin(1)
	_ = store.Post(1, "a", ptlactive.Int(9), 3, 10) // valid at 3, posted at 10
	_ = store.Commit(1, 11)
	fs, _ := mon.Poll()
	for _, f := range fs {
		fmt.Println("fired for valid instant", f.Time)
	}
	// Output:
	// fired for valid instant 3
	// fired for valid instant 11
}
