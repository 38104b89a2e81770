package adb

import (
	"errors"
	"strings"
	"testing"
)

// TestErrorTaxonomy pins the errors.Is/As contract of every typed error
// in the fault-isolation layer: each unwraps to its sentinel, and the
// wrappers that carry a cause expose it too.
func TestErrorTaxonomy(t *testing.T) {
	cause := errors.New("root cause")

	panicErr := &ActionPanicError{Rule: "r1", Value: "boom", Stack: []byte("stack")}
	if !errors.Is(panicErr, ErrActionPanic) {
		t.Error("ActionPanicError does not match ErrActionPanic")
	}
	var ap *ActionPanicError
	if !errors.As(error(panicErr), &ap) || ap.Rule != "r1" || ap.Value != "boom" {
		t.Errorf("errors.As lost ActionPanicError fields: %+v", ap)
	}

	q := &QuarantineError{Rule: "r2", Failures: 3, Cause: cause}
	if !errors.Is(q, ErrRuleQuarantined) {
		t.Error("QuarantineError does not match ErrRuleQuarantined")
	}
	if !errors.Is(q, cause) {
		t.Error("QuarantineError does not expose its cause")
	}
	if qNil := (&QuarantineError{Rule: "r2", Failures: 3}); !errors.Is(qNil, ErrRuleQuarantined) {
		t.Error("QuarantineError with nil cause does not match ErrRuleQuarantined")
	}

	d := &DegradedError{Cause: cause}
	if !errors.Is(d, ErrDegraded) {
		t.Error("DegradedError does not match ErrDegraded")
	}
	if !errors.Is(d, cause) {
		t.Error("DegradedError does not expose its cause")
	}
	var de *DegradedError
	if !errors.As(error(d), &de) || de.Cause != cause {
		t.Errorf("errors.As lost DegradedError cause: %+v", de)
	}

	in := &InternalError{Op: "aux capture a", Err: cause}
	if !errors.Is(in, ErrInternal) {
		t.Error("InternalError does not match ErrInternal")
	}
	if !errors.Is(in, cause) {
		t.Error("InternalError does not expose its cause")
	}

	// A degraded seal around an internal fault matches every layer.
	sealed := &DegradedError{Cause: in}
	for _, want := range []error{ErrDegraded, ErrInternal, cause} {
		if !errors.Is(sealed, want) {
			t.Errorf("sealed internal fault does not match %v", want)
		}
	}

	// The sentinels stay distinct from each other.
	sentinels := []error{ErrRuleQuarantined, ErrActionPanic, ErrDegraded, ErrInternal}
	for i, a := range sentinels {
		for j, bb := range sentinels {
			if i != j && errors.Is(a, bb) {
				t.Errorf("sentinel %v matches unrelated sentinel %v", a, bb)
			}
		}
	}
}

// TestErrorMessagesCarryAttribution pins that rendered errors name the
// offending rule — operators read these from logs.
func TestErrorMessagesCarryAttribution(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{&ActionPanicError{Rule: "alpha", Value: 1}, "alpha"},
		{&QuarantineError{Rule: "beta", Failures: 2, Cause: errors.New("x")}, "beta"},
		{&InternalError{Op: "encode initial db", Err: errors.New("x")}, "encode initial db"},
		{&DegradedError{Cause: errors.New("disk gone")}, "disk gone"},
	}
	for _, c := range cases {
		if msg := c.err.Error(); !strings.Contains(msg, c.want) {
			t.Errorf("%T message %q does not mention %q", c.err, msg, c.want)
		}
	}
}
