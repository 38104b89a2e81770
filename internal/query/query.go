// Package query is the query layer between the logic and the database: PTL
// function symbols that denote database queries (Section 4.1, e.g.
// OVERPRICED or price(IBM)) resolve against a Registry of named Go
// functions evaluated on a system state. The logic stays independent of the
// data model, exactly as the paper requires: any query language can be
// plugged in by registering functions.
package query

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"ptlactive/internal/history"
	"ptlactive/internal/relation"
	"ptlactive/internal/value"
)

// Func is a registered query: given the current system state and actual
// parameters, it returns a scalar or relation value.
type Func func(st history.SystemState, args []value.Value) (value.Value, error)

// Registry maps function symbols to query implementations. The reserved
// symbol "item" (arity 1) reads a database item by name and is always
// present; "time" (arity 0) reads the state timestamp.
//
// A Registry is safe for concurrent use: lookups (Has, Arity, Names,
// Eval) may run from any number of goroutines while Register runs
// concurrently with them. One engine evaluates its rules on one goroutine,
// but one registry may be passed to several engines, each driven from its
// own goroutine, and a program may register a function while an engine is
// evaluating. So the
// registered functions themselves must be safe for concurrent calls; pure
// functions over the passed-in state (the normal shape) are.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]entry
}

type entry struct {
	fn    Func
	arity int // -1 means variadic
	// pure marks a function whose result depends only on database items
	// (never on the timestamp, events, or external state). The evaluator
	// may cache pure calls across states while the database is unchanged.
	// readsKnown additionally certifies that reads lists every item the
	// function can touch, letting the engine's read-set scheduler skip
	// rules whose declared footprint an update leaves alone.
	pure       bool
	readsKnown bool
	reads      []string
}

// NewRegistry returns a registry with the built-in symbols installed.
func NewRegistry() *Registry {
	r := &Registry{funcs: make(map[string]entry)}
	// "item" is pure but its read set depends on its argument; callers
	// with a constant argument can resolve the item name themselves. An
	// absent item, or a name that is not a string, reads as Null, the
	// undefined value, so an atom over it is false.
	r.mustRegisterPure("item", 1, nil, func(st history.SystemState, args []value.Value) (value.Value, error) {
		if args[0].Kind() != value.String {
			return value.Value{}, nil
		}
		v, _ := st.GetItem(args[0].AsString())
		return v, nil
	})
	r.mustRegister("time", 0, func(st history.SystemState, args []value.Value) (value.Value, error) {
		return st.Time(), nil
	})
	return r
}

// RegisterPure installs a query function that is pure over the named
// database items: its result depends only on the current values of reads
// (which must list every item the function can touch, and not the clock,
// time). Purity enables the evaluator's per-DB-state query cache and the
// engine's read-set scheduling.
func (r *Registry) RegisterPure(name string, arity int, reads []string, fn Func) error {
	if slices.Contains(reads, history.TimeItem) {
		return fmt.Errorf("query: pure function %s reads %q, the clock", name, history.TimeItem)
	}
	if err := r.Register(name, arity, fn); err != nil {
		return err
	}
	r.mu.Lock()
	e := r.funcs[name]
	e.pure = true
	e.readsKnown = true
	e.reads = append([]string(nil), reads...)
	sort.Strings(e.reads)
	r.funcs[name] = e
	r.mu.Unlock()
	return nil
}

// Pure reports whether the named function's result depends only on
// database items (so its value is stable while the database is
// unchanged). The built-in "item" is pure; "time" is not.
func (r *Registry) Pure(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.funcs[name].pure
}

// ReadSet returns the declared database-item footprint of a pure
// function. ok is false when the footprint is unknown — either the
// function was registered without one, or (like the built-in "item") the
// items it touches depend on its arguments.
func (r *Registry) ReadSet(name string) (reads []string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.funcs[name]
	if !e.readsKnown {
		return nil, false
	}
	return e.reads, true
}

// Register installs a query function with a fixed arity (use -1 for
// variadic). Re-registering a name is an error; the built-ins cannot be
// replaced.
func (r *Registry) Register(name string, arity int, fn Func) error {
	if name == "" {
		return fmt.Errorf("query: empty function name")
	}
	if fn == nil {
		return fmt.Errorf("query: nil function for %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[name]; dup {
		return fmt.Errorf("query: function %q already registered", name)
	}
	r.funcs[name] = entry{fn: fn, arity: arity}
	return nil
}

func (r *Registry) mustRegister(name string, arity int, fn Func) {
	if err := r.Register(name, arity, fn); err != nil {
		panic(err)
	}
}

// mustRegisterPure installs a built-in that is pure but has an
// argument-dependent footprint (readsKnown stays false).
func (r *Registry) mustRegisterPure(name string, arity int, reads []string, fn Func) {
	r.mustRegister(name, arity, fn)
	r.mu.Lock()
	e := r.funcs[name]
	e.pure = true
	e.reads = reads
	r.funcs[name] = e
	r.mu.Unlock()
}

// Has reports whether a symbol is registered.
func (r *Registry) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.funcs[name]
	return ok
}

// Arity returns the declared arity of a symbol (-1 for variadic); the
// second result is false for unknown symbols.
func (r *Registry) Arity(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.funcs[name]
	return e.arity, ok
}

// Names returns the sorted registered symbols.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.funcs))
	for k := range r.funcs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Eval evaluates a registered query on a system state.
func (r *Registry) Eval(name string, st history.SystemState, args []value.Value) (value.Value, error) {
	r.mu.RLock()
	e, ok := r.funcs[name]
	r.mu.RUnlock()
	if !ok {
		return value.Value{}, fmt.Errorf("query: unknown function %q", name)
	}
	if e.arity >= 0 && len(args) != e.arity {
		return value.Value{}, fmt.Errorf("query: %s expects %d arguments, got %d", name, e.arity, len(args))
	}
	return e.fn(st, args)
}

// RegisterItemField installs a convenience query name(key) that treats
// database item `itemName` as a relation, looks up the row whose column
// `keyCol` equals the argument, and returns that row's `valCol`. This is
// the shape of the paper's price(IBM) over a STOCK-FOR-SALE-style
// relation. The item is read as relation.Admit reads it (an absent item or
// a non-relation holds no rows, an ill-shaped row is skipped), and a key
// no row holds is Null.
func (r *Registry) RegisterItemField(name, itemName string, schema *relation.Schema, keyCol, valCol string) error {
	ki := schema.ColumnIndex(keyCol)
	vi := schema.ColumnIndex(valCol)
	if ki < 0 || vi < 0 {
		return fmt.Errorf("query: item field columns %q/%q not in schema %s", keyCol, valCol, schema)
	}
	return r.RegisterPure(name, 1, []string{itemName}, func(st history.SystemState, args []value.Value) (value.Value, error) {
		iv, _ := st.GetItem(itemName)
		for _, row := range relation.Admit(schema, iv).Value().Rows() {
			if row[ki].Equal(args[0]) {
				return row[vi], nil
			}
		}
		return value.Value{}, nil
	})
}

// RegisterSelect installs a relational query name() over the database item
// `itemName` that returns the rows satisfying pred, projected onto the
// named columns. This mirrors the paper's RETRIEVE ... WHERE ... example
// (OVERPRICED). pred sees only the rows the schema admits (relation.Admit).
func (r *Registry) RegisterSelect(name, itemName string, schema *relation.Schema, pred func(row []value.Value) bool, projectCols ...string) error {
	// Projecting the empty relation checks that the columns exist and are
	// distinct, so no evaluation fails on them.
	if _, err := relation.New(schema).Project(projectCols...); err != nil {
		return fmt.Errorf("query: select projection: %v", err)
	}
	return r.RegisterPure(name, 0, []string{itemName}, func(st history.SystemState, args []value.Value) (value.Value, error) {
		iv, _ := st.GetItem(itemName)
		sel := relation.Admit(schema, iv).Select(pred)
		if len(projectCols) > 0 {
			var err error
			if sel, err = sel.Project(projectCols...); err != nil {
				return value.Value{}, fmt.Errorf("query: %s: %v", name, err)
			}
		}
		return sel.Value(), nil
	})
}
