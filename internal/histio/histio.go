// Package histio serializes system histories as JSON lines, losslessly:
// one state per line with its timestamp, full database state and event
// set. It supports exporting an engine's history for offline analysis
// (ptlcheck, the naive evaluator) and rebuilding a history — or replaying
// it through a fresh engine — elsewhere. The durability subsystem
// (internal/persist) reuses the same encoding for snapshots and WAL
// records, so one kind-tagged value grammar covers every on-disk artifact.
//
// Values are kind-tagged so integers, floats, strings, booleans, tuples
// and relations round-trip exactly:
//
//	{"int": 3} {"float": 2.5} {"str": "x"} {"bool": true}
//	{"tuple": [...]} {"rel": [[...], ...]}
//
// Non-finite floats are not representable in JSON numbers; they are
// encoded as the strings "NaN", "+Inf" and "-Inf" under the float tag.
package histio

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ptlactive/internal/event"
	"ptlactive/internal/history"
	"ptlactive/internal/value"
)

// EncodeValue renders a value as its kind-tagged JSON form. The codec
// itself lives in the value package (value.EncodeJSON) so packages that do
// not import histio — the evaluator state encoding in internal/core — can
// share it.
func EncodeValue(v value.Value) (json.RawMessage, error) {
	return value.EncodeJSON(v)
}

// DecodeValue parses a kind-tagged JSON value.
func DecodeValue(raw json.RawMessage) (value.Value, error) {
	return value.DecodeJSON(raw)
}

// EncodeItems encodes an item map value by value.
func EncodeItems(items map[string]value.Value) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(items))
	for name, v := range items {
		raw, err := EncodeValue(v)
		if err != nil {
			return nil, fmt.Errorf("histio: item %s: %w", name, err)
		}
		out[name] = raw
	}
	return out, nil
}

// EncodeDB encodes a database state item by item: the same map EncodeItems
// makes of the state's items.
func EncodeDB(db history.DBState) (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, db.Len())
	var encErr error
	db.Range(func(name string, v value.Value) bool {
		raw, err := EncodeValue(v)
		if err != nil {
			encErr = fmt.Errorf("histio: item %s: %w", name, err)
			return false
		}
		out[name] = raw
		return true
	})
	if encErr != nil {
		return nil, encErr
	}
	return out, nil
}

// DecodeItems inverts EncodeItems.
func DecodeItems(raw map[string]json.RawMessage) (map[string]value.Value, error) {
	out := make(map[string]value.Value, len(raw))
	for name, r := range raw {
		v, err := DecodeValue(r)
		if err != nil {
			return nil, fmt.Errorf("histio: item %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// EncodeEvents encodes an event list as [name, arg...] records.
func EncodeEvents(events []event.Event) ([][]json.RawMessage, error) {
	var out [][]json.RawMessage
	for _, ev := range events {
		rec := make([]json.RawMessage, 0, len(ev.Args)+1)
		nameRaw, err := json.Marshal(ev.Name)
		if err != nil {
			return nil, err
		}
		rec = append(rec, nameRaw)
		for _, a := range ev.Args {
			raw, err := EncodeValue(a)
			if err != nil {
				return nil, err
			}
			rec = append(rec, raw)
		}
		out = append(out, rec)
	}
	return out, nil
}

// DecodeEvents inverts EncodeEvents.
func DecodeEvents(raw [][]json.RawMessage) ([]event.Event, error) {
	var events []event.Event
	for _, rec := range raw {
		if len(rec) == 0 {
			return nil, fmt.Errorf("histio: empty event")
		}
		var name string
		if err := json.Unmarshal(rec[0], &name); err != nil {
			return nil, fmt.Errorf("histio: event name: %w", err)
		}
		args := make([]value.Value, 0, len(rec)-1)
		for _, r := range rec[1:] {
			v, err := DecodeValue(r)
			if err != nil {
				return nil, err
			}
			args = append(args, v)
		}
		events = append(events, event.New(name, args...))
	}
	return events, nil
}

// StateJSON is the wire form of one system state; one line of a history
// export, and the per-state element of engine snapshots.
type StateJSON struct {
	Time   int64                      `json:"time"`
	DB     map[string]json.RawMessage `json:"db"`
	Events [][]json.RawMessage        `json:"events,omitempty"`
}

// EncodeState renders one system state in wire form.
func EncodeState(st history.SystemState) (StateJSON, error) {
	db, err := EncodeDB(st.DB)
	if err != nil {
		return StateJSON{}, err
	}
	evs, err := EncodeEvents(st.Events.Events())
	if err != nil {
		return StateJSON{}, err
	}
	return StateJSON{Time: st.TS, DB: db, Events: evs}, nil
}

// DecodeState inverts EncodeState.
func DecodeState(line StateJSON) (history.SystemState, error) {
	items, err := DecodeItems(line.DB)
	if err != nil {
		return history.SystemState{}, err
	}
	events, err := DecodeEvents(line.Events)
	if err != nil {
		return history.SystemState{}, err
	}
	return history.SystemState{
		DB:     history.NewDB(items),
		Events: event.NewSet(events...),
		TS:     line.Time,
	}, nil
}

// Write serializes the history, one state per line.
func Write(w io.Writer, h *history.History) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := 0; i < h.Len(); i++ {
		line, err := EncodeState(h.At(i))
		if err != nil {
			return err
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read rebuilds a history from Write's output. The transaction-time
// invariants are not re-checked (AppendUnchecked), so valid-time and
// committed histories round-trip too.
func Read(r io.Reader) (*history.History, error) {
	h := history.New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var line StateJSON
		if err := json.Unmarshal(text, &line); err != nil {
			return nil, fmt.Errorf("histio: line %d: %w", lineNo, err)
		}
		st, err := DecodeState(line)
		if err != nil {
			return nil, fmt.Errorf("histio: line %d: %w", lineNo, err)
		}
		if last, ok := h.Last(); ok && st.TS <= last.TS {
			return nil, fmt.Errorf("histio: line %d: timestamp %d not increasing", lineNo, st.TS)
		}
		h.AppendUnchecked(st)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return h, nil
}
