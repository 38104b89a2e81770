package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Name: "op", Start: 0, End: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{Trace: 1, Span: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 20..30 counted once
		{Trace: 1, Span: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent: clipped
		{Trace: 1, Span: 5, Parent: 3, Name: "d", Start: 25, End: 35},
		{Trace: 2, Span: 6, Name: "op", Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self time %d, want %d", spans[i].Span, spans[i].Name, got[i], want[i])
		}
	}
	by := selfByName(spans)
	if len(by["op"]) != 2 || by["op"][0] != 0.05 || by["op"][1] != 0.06 {
		t.Errorf("self times of the roots in us: %v", by["op"])
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if i := off.begin(1, 0, "x"); i != -1 || off.id(i) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	off.end(-1, 1, 1) // must not panic

	rec := newRecorder(4)
	root := rec.begin(1, 0, "op")
	child := rec.begin(1, rec.id(root), "adb.commit")
	rec.end(child, 1, 64)
	rec.end(root, 1, 0)
	if len(rec.spans) != 2 || rec.spans[1].Parent != rec.spans[0].Span || rec.spans[1].Bytes != 64 {
		t.Fatalf("spans: %+v", rec.spans)
	}
	if rec.spans[0].End < rec.spans[1].End || rec.spans[1].Start < rec.spans[0].Start {
		t.Errorf("the child does not nest in its parent: %+v", rec.spans)
	}
	path := filepath.Join(t.TempDir(), "t.trace.jsonl")
	if err := writeSpans(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); n++ {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil || sp != rec.spans[n] {
			t.Fatalf("line %d reads back as %+v (%v)", n, sp, err)
		}
	}
	if n != 2 {
		t.Errorf("%d lines written", n)
	}
}
