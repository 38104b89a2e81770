package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share Trace; Parent
// is the Span id of the call that caused this one (0 for the root).
type span struct {
	Trace  int    `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`
}

// recorder keeps spans in a preallocated slice; a nil recorder records
// nothing, which is how the untraced pass of the ladder runs the same code.
type recorder struct {
	epoch time.Time
	spans []span
	next  int
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index for end.
func (r *recorder) begin(trace, parent int, name string) int {
	if r == nil {
		return -1
	}
	r.next++
	r.spans = append(r.spans, span{Trace: trace, Span: r.next, Parent: parent, Name: name, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(i, n, bytes int) {
	if r == nil {
		return
	}
	s := &r.spans[i]
	s.End, s.N, s.Bytes = int64(time.Since(r.epoch)), n, bytes
}

// id returns the span id of the span at index i (0 for a nil recorder).
func (r *recorder) id(i int) int {
	if r == nil {
		return 0
	}
	return r.spans[i].Span
}

// add records a span whose bounds were stamped elsewhere (the WAL hooks).
func (r *recorder) add(trace, parent int, name string, start, end time.Time, bytes int) {
	if r == nil {
		return
	}
	r.next++
	r.spans = append(r.spans, span{Trace: trace, Span: r.next, Parent: parent, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Bytes: bytes})
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover (overlapping children are not counted
// twice), indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[s.Span]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			from, to := spans[k].Start, spans[k].End
			if from < covered {
				from = covered
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// selfByName groups self times by span name, in microseconds, one sample
// per span.
func selfByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for i, ns := range selfTimes(spans) {
		out[spans[i].Name] = append(out[spans[i].Name], float64(ns)/1e3)
	}
	return out
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
