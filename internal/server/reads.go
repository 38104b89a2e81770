package server

import (
	"ptlactive/internal/adb"
	"ptlactive/internal/server/wire"
	"ptlactive/internal/value"
)

// Reads is the read side of a Backend over one engine: Now, Items, Firings,
// Rules and Health, answered from whatever engine is current. EngineBackend
// and the replication node (in both roles) embed it, so a wire query is
// written once. A fresh follower has no engine before the primary's init
// frame arrives; every answer is then empty. It only calls the engine's
// reader accessors: safe for concurrent use, never behind the pipeline.
type Reads struct {
	current func() *adb.Engine
}

// ReadsOf builds a read side over the engine current returns (nil: none yet).
func ReadsOf(current func() *adb.Engine) Reads { return Reads{current: current} }

// Backlog returns at most limit firings of eng's log from sequence number
// from, and from itself clamped to [0, len]: the one place a [from:] request
// becomes a slice. A firing's sequence number is its index in the log. It
// copies only the firings it returns. A nil engine has an empty log.
func Backlog(eng *adb.Engine, from, limit int) (int, []FiringEvent) {
	if eng == nil {
		return 0, []FiringEvent{}
	}
	from, fs := eng.FiringsFrom(from, limit)
	out := make([]FiringEvent, len(fs))
	for i, f := range fs {
		out[i] = FiringEvent{F: f, Seq: from + i}
	}
	return from, out
}

func (r Reads) Now() int64 {
	if eng := r.current(); eng != nil {
		return eng.Now()
	}
	return 0
}

func (r Reads) Items() (map[string]value.Value, error) {
	eng := r.current()
	if eng == nil {
		return map[string]value.Value{}, nil
	}
	db := eng.DB()
	items := make(map[string]value.Value, db.Len())
	db.Range(func(name string, v value.Value) bool {
		items[name] = v
		return true
	})
	return items, nil
}

func (r Reads) Firings(from, limit int) (int, []FiringEvent, error) {
	from, out := Backlog(r.current(), from, limit)
	return from, out, nil
}

func (r Reads) Rules() ([]wire.RuleJSON, error) {
	eng := r.current()
	if eng == nil {
		return nil, nil
	}
	var out []wire.RuleJSON
	for _, name := range eng.RuleNames() {
		info, ok := eng.Rule(name)
		if !ok {
			continue
		}
		out = append(out, wire.RuleJSON{
			Name:       info.Name,
			Condition:  info.Condition,
			Constraint: info.Constraint,
			Scheduling: info.Scheduling,
			Parameters: info.Parameters,
			Pending:    info.PendingStates,
		})
	}
	return out, nil
}

// Health lists per-rule health and the degraded cause ("" if healthy).
func (r Reads) Health() ([]wire.HealthJSON, string, error) {
	eng := r.current()
	if eng == nil {
		return nil, "", nil
	}
	var out []wire.HealthJSON
	for _, name := range eng.RuleNames() {
		h, ok := eng.RuleHealth(name)
		if !ok {
			continue
		}
		hj := wire.HealthJSON{
			Rule:        h.Rule,
			Quarantined: h.Quarantined,
			Consecutive: h.ConsecutiveFailures,
			Total:       h.TotalFailures,
			LastAt:      h.LastFailureAt,
		}
		if h.LastError != nil {
			hj.LastError = h.LastError.Error()
		}
		out = append(out, hj)
	}
	degraded := ""
	if err := eng.Degraded(); err != nil {
		degraded = err.Error()
	}
	return out, degraded, nil
}
