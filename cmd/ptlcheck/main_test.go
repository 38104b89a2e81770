package main

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"ptlactive"
)

func TestDecodeValue(t *testing.T) {
	cases := map[string]string{
		`"s"`:   `"s"`,
		`3`:     "3",
		`2.5`:   "2.5",
		`true`:  "true",
		`false`: "false",
	}
	for in, want := range cases {
		v, err := decodeValue(json.RawMessage(in))
		if err != nil {
			t.Fatalf("decodeValue(%s): %v", in, err)
		}
		if v.String() != want {
			t.Errorf("decodeValue(%s) = %s, want %s", in, v, want)
		}
	}
	for _, bad := range []string{`[1,2]`, `{"a":1}`, `null`} {
		if _, err := decodeValue(json.RawMessage(bad)); err == nil {
			t.Errorf("decodeValue(%s) should fail", bad)
		}
	}
}

func TestReplayHistory(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{
		Initial: map[string]ptlactive.Value{"ibm": ptlactive.Float(10)},
	})
	if err := eng.AddTrigger("cond",
		`[t <- time] [x <- item("ibm")] previously (item("ibm") <= 0.5 * x and time >= t - 10)`,
		nil); err != nil {
		t.Fatal(err)
	}
	src := strings.Join([]string{
		`# comment`,
		``,
		`{"time": 2, "updates": {"ibm": 15}}`,
		`{"time": 5, "updates": {"ibm": 18}, "events": [["update_stocks", "IBM"]]}`,
		`{"time": 7, "events": [["tick"]]}`,
		`{"time": 8, "updates": {"ibm": 25}}`,
	}, "\n")
	if err := replayHistory(eng, strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if eng.History().Len() != 5 {
		t.Fatalf("history len = %d", eng.History().Len())
	}
	fs := eng.Firings()
	if len(fs) != 1 || fs[0].Time != 8 {
		t.Fatalf("firings = %v", fs)
	}
}

func TestReplayHistoryErrors(t *testing.T) {
	eng := ptlactive.NewEngine(ptlactive.Config{})
	bad := []string{
		`not json`,
		`{"time": 1, "events": [[]]}`,
		`{"time": 1, "events": [[3]]}`,
		`{"time": 1, "updates": {"a": [1]}}`,
		`{"time": 1, "events": [["e", [1]]]}`,
	}
	for _, line := range bad {
		e2 := ptlactive.NewEngine(ptlactive.Config{})
		if err := replayHistory(e2, strings.NewReader(line)); err == nil {
			t.Errorf("replayHistory(%q) should fail", line)
		}
	}
	// Out-of-order times surface engine errors.
	src := "{\"time\": 5}\n{\"time\": 3}"
	if err := replayHistory(eng, strings.NewReader(src)); err == nil {
		t.Error("non-increasing times should fail")
	}
}

// TestReservedItemRefused: -init may not set the item time, which every
// state answers with its timestamp; it is refused before an engine is
// built.
func TestReservedItemRefused(t *testing.T) {
	if _, err := decodeInit(`{"a": 1, "time": 99}`); !errors.Is(err, ptlactive.ErrReservedItem) {
		t.Fatalf("decodeInit: %v, want ErrReservedItem", err)
	}
	initial, err := decodeInit(`{"a": 1}`)
	if err != nil || len(initial) != 1 || initial["a"].String() != "1" {
		t.Fatalf("decodeInit: %v, %v", initial, err)
	}
}
