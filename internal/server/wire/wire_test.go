package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"ptlactive/internal/adb"
	"ptlactive/internal/core"
	"ptlactive/internal/persist"
	"ptlactive/internal/value"
)

func frameBytes(t *testing.T, m *Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	in := &Msg{
		T: TypeTxn, ID: 7, TS: 42,
		Deletes: []string{"a", "b"},
		Name:    "r1",
	}
	got, err := ReadFrame(bytes.NewReader(frameBytes(t, in)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip: got %+v, want %+v", got, in)
	}
}

func TestFiringRoundTrip(t *testing.T) {
	f := adb.Firing{
		Rule: "doubled", Time: 8, StateIndex: 3,
		Binding: core.Binding{
			"x": value.NewFloat(10),
			"s": value.NewString("ibm"),
			"r": value.NewRelation([][]value.Value{{value.NewInt(1)}}),
		},
	}
	j, err := EncodeFiring(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	if j.Seq != 5 {
		t.Fatalf("seq = %d", j.Seq)
	}
	back, err := DecodeFiring(j)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, f) {
		t.Fatalf("firing round trip: got %+v, want %+v", back, f)
	}
}

// TestTornFrames truncates a valid frame at every byte boundary: each
// prefix must fail with a torn-frame error (or io.EOF for the empty
// prefix), never succeed and never panic.
func TestTornFrames(t *testing.T) {
	full := frameBytes(t, &Msg{T: TypeOK, ID: 3, TS: 99})
	for cut := 0; cut < len(full); cut++ {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d of %d: decoded successfully", cut, len(full))
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: err = %v, want io.EOF", err)
		}
		if cut > 0 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(full)); err != nil {
		t.Fatalf("full frame: %v", err)
	}
}

// TestGarbageBytes feeds hostile prefixes: oversized lengths, zero
// lengths, and non-JSON payloads must all error out cleanly.
func TestGarbageBytes(t *testing.T) {
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, MaxFrame+1)
	zero := make([]byte, 4)
	notJSON := []byte{0, 0, 0, 3, 'x', 'y', 'z'}
	noType := frameRaw([]byte(`{}`))
	for name, in := range map[string][]byte{
		"oversized length": huge,
		"zero length":      zero,
		"non-json payload": notJSON,
		"missing type":     noType,
	} {
		if _, err := ReadFrame(bytes.NewReader(in)); err == nil {
			t.Fatalf("%s: decoded successfully", name)
		}
	}
}

func frameRaw(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

func TestCheckHello(t *testing.T) {
	if err := CheckHello(Hello()); err != nil {
		t.Fatalf("own hello rejected: %v", err)
	}
	for _, bad := range []*Msg{
		{T: TypeTxn},
		{T: TypeHello, Proto: "other", Version: Version},
		{T: TypeHello, Proto: ProtoName, Version: Version + 1},
	} {
		err := CheckHello(bad)
		if !errors.Is(err, ErrVersionMismatch) {
			t.Fatalf("CheckHello(%+v) = %v, want ErrVersionMismatch", bad, err)
		}
	}
}

// TestErrorTaxonomyRoundTrip checks CodeFor and RemoteError.Unwrap are
// inverse: an engine error crosses the wire and still matches its
// sentinel with errors.Is.
func TestErrorTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{&adb.ConstraintError{Constraint: "c", Txn: 1}, CodeConstraint},
		{&adb.DegradedError{Cause: errors.New("disk")}, CodeDegraded},
		{&adb.InternalError{Op: "x", Err: errors.New("y")}, CodeInternal},
		{ErrVersionMismatch, CodeVersion},
		{ErrSubscriberLagged, CodeLagged},
		{ErrSessionClosed, CodeClosed},
		{ErrCrossShard, CodeCrossShard},
		{&NotPrimaryError{Leader: "a:1"}, CodeNotPrimary},
		{ErrWalTruncated, CodeWalTruncated},
	}
	for _, c := range cases {
		if got := CodeFor(c.err); got != c.code {
			t.Fatalf("CodeFor(%v) = %q, want %q", c.err, got, c.code)
		}
		remote := &RemoteError{Code: c.code, Msg: c.err.Error()}
		if sentinel := remote.Unwrap(); sentinel == nil || !errors.Is(c.err, sentinel) {
			t.Fatalf("code %q: Unwrap = %v, does not match %v", c.code, sentinel, c.err)
		}
	}
	if got := CodeFor(fmt.Errorf("replicate: %w", persist.ErrTruncatedHead)); got != CodeWalTruncated {
		t.Fatalf("persist.ErrTruncatedHead mapped to %q", got)
	}
	if got := CodeFor(errors.New("whatever")); got != CodeError {
		t.Fatalf("generic error mapped to %q", got)
	}
	generic := &RemoteError{Code: CodeError, Msg: "x"}
	if generic.Unwrap() != nil {
		t.Fatalf("generic code unwrapped to %v", generic.Unwrap())
	}
	if !strings.Contains(generic.Error(), "x") {
		t.Fatalf("message lost: %v", generic)
	}
}
