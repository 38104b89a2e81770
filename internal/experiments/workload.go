package experiments

import (
	"fmt"
	"math/rand"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// The experiments' synthetic inputs. The paper's motivating domain is a
// stock market feed (IBM price, Dow Jones Industrial Average); since the
// original traces are not available, these generators produce
// deterministic-seed equivalents that exercise the same code paths (see
// DESIGN.md's substitution table).

// StockConfig parameterizes a random-walk stock feed.
type StockConfig struct {
	// Symbols are the stock names; item "px_<symbol>" holds each price.
	Symbols []string
	// Start is the initial price for every symbol.
	Start float64
	// Step is the maximum absolute per-tick change.
	Step float64
	// Floor clamps prices from below (prices never drop under it).
	Floor float64
	// TickGap is the maximum gap between consecutive tick timestamps
	// (uniform in 1..TickGap).
	TickGap int64
	// UpdateEvent, when set, attaches @<UpdateEvent>(symbol) to each
	// commit (the paper's update_stocks).
	UpdateEvent string
}

// DefaultStockConfig mirrors the paper's examples: one IBM-like symbol and
// the DJ index.
func DefaultStockConfig() StockConfig {
	return StockConfig{
		Symbols:     []string{"IBM", "DJ"},
		Start:       100,
		Step:        4,
		Floor:       1,
		TickGap:     3,
		UpdateEvent: "update_stocks",
	}
}

// ItemName returns the database item holding a symbol's price.
func ItemName(symbol string) string { return "px_" + symbol }

// Stocks generates a transaction-time history of n price-update commits.
// Each commit updates one symbol (round-robin) by a bounded random step.
func Stocks(rng *rand.Rand, cfg StockConfig, n int) *history.History {
	if len(cfg.Symbols) == 0 {
		panic("experiments: no symbols")
	}
	db := history.EmptyDB()
	prices := map[string]float64{}
	for _, s := range cfg.Symbols {
		prices[s] = cfg.Start
		db = db.With(ItemName(s), value.NewFloat(cfg.Start))
	}
	b := history.NewBuilder(db, 0)
	for i := 0; i < n; i++ {
		sym := cfg.Symbols[i%len(cfg.Symbols)]
		delta := (rng.Float64()*2 - 1) * cfg.Step
		prices[sym] += delta
		if prices[sym] < cfg.Floor {
			prices[sym] = cfg.Floor
		}
		ts := b.Now() + 1 + rng.Int63n(cfg.TickGap)
		var evs []event.Event
		if cfg.UpdateEvent != "" {
			evs = append(evs, event.New(cfg.UpdateEvent, value.NewString(sym)))
		}
		if err := b.Commit(ts, int64(i+1), map[string]value.Value{
			ItemName(sym): value.NewFloat(prices[sym]),
		}, evs...); err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
	}
	return b.History()
}

// RetroStream is one operation of a valid-time workload.
type RetroStream struct {
	// Op is "begin", "post", "commit" or "abort".
	Op string
	// Txn is the transaction id.
	Txn int64
	// Item/V/Valid/At parameterize posts; At is also the commit/abort
	// time.
	Item  string
	V     value.Value
	Valid int64
	At    int64
}

// Retro generates a valid-time operation stream: txns transactions, each
// posting 1..3 retroactive updates and committing (a fraction aborts).
// Every update's valid time is within maxDelay of both its posting time
// and its transaction's commit time, so the stream satisfies the
// maximum-delay invariant the definiteness machinery relies on
// (Section 9.2).
func Retro(rng *rand.Rand, txns int, maxDelay int64, abortFrac float64) []RetroStream {
	var out []RetroStream
	now := int64(1)
	for id := int64(1); id <= int64(txns); id++ {
		out = append(out, RetroStream{Op: "begin", Txn: id, At: now})
		nu := 1 + rng.Intn(3)
		// All posts and the commit happen at one instant pt, so
		// commit - valid <= maxDelay reduces to the per-post bound.
		pt := now
		for u := 0; u < nu; u++ {
			lo := pt - maxDelay
			if lo < 1 {
				lo = 1
			}
			valid := pt
			if lo < pt {
				valid = lo + rng.Int63n(pt-lo+1)
			}
			out = append(out, RetroStream{
				Op: "post", Txn: id, Item: "a",
				V:     value.NewInt(int64(rng.Intn(100))),
				Valid: valid, At: pt,
			})
		}
		if rng.Float64() < abortFrac {
			out = append(out, RetroStream{Op: "abort", Txn: id, At: pt})
		} else {
			out = append(out, RetroStream{Op: "commit", Txn: id, At: pt})
		}
		now = pt + 1 + rng.Int63n(3)
	}
	return out
}
