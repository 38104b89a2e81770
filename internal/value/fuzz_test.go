package value

import (
	"math"
	"testing"
)

// FuzzCmpArith holds Cmp and Arith to the laws the evaluators rely on, over
// Null, int, float (NaN included), string and bool operands:
//   - Cmp(op, a, b) == Cmp(op.Flip(), b, a);
//   - Cmp(op, a, b) and Cmp(op.Negate(), a, b) are never both true, and both
//     are false exactly when the comparison is undefined: a side is Null, or
//     an ordering operator meets kinds Compare refuses;
//   - Arith never panics, and returns Null exactly when the arithmetic is
//     undefined: an operand is not a number, or it divides by zero.
func FuzzCmpArith(f *testing.F) {
	f.Add(uint8(1), uint8(2), int64(3), int64(0), 2.5, math.NaN(), "a", "b")
	f.Add(uint8(0), uint8(1), int64(0), int64(0), 0.0, 0.0, "", "")
	f.Add(uint8(3), uint8(1), int64(-1<<63), int64(-1), math.Inf(1), math.Copysign(0, -1), "x", "x")
	f.Add(uint8(2), uint8(2), int64(1<<53+1), int64(7), math.NaN(), 1.0, "", "y")
	f.Add(uint8(4), uint8(4), int64(1), int64(0), 0.0, 0.0, "", "")
	f.Fuzz(func(t *testing.T, ka, kb uint8, ia, ib int64, fa, fb float64, sa, sb string) {
		mk := func(k uint8, i int64, fl float64, s string) Value {
			switch k % 5 {
			case 1:
				return NewInt(i)
			case 2:
				return NewFloat(fl)
			case 3:
				return NewString(s)
			case 4:
				return NewBool(i&1 == 1)
			}
			return Value{}
		}
		a, b := mk(ka, ia, fa, sa), mk(kb, ib, fb, sb)
		for op := EQ; op <= GE; op++ {
			got := Cmp(op, a, b)
			if flipped := Cmp(op.Flip(), b, a); got != flipped {
				t.Fatalf("Cmp(%s, %v, %v) = %t but Cmp(%s, %v, %v) = %t", op, a, b, got, op.Flip(), b, a, flipped)
			}
			neg := Cmp(op.Negate(), a, b)
			if got && neg {
				t.Fatalf("Cmp(%s) and Cmp(%s) both hold on %v, %v", op, op.Negate(), a, b)
			}
			_, err := a.Compare(b)
			undefined := a.IsNull() || b.IsNull() || op != EQ && op != NE && err != nil
			if !got && !neg != undefined {
				t.Fatalf("Cmp(%s) and Cmp(%s) on %v, %v: %t and %t, undefined %t", op, op.Negate(), a, b, got, neg, undefined)
			}
		}
		for op := Add; op <= Mod; op++ {
			got := Arith(op, a, b)
			undefined := !a.IsNumeric() || !b.IsNumeric() || (op == Div || op == Mod) && b.Equal(NewInt(0))
			if got.IsNull() != undefined {
				t.Fatalf("Arith(%s, %v, %v) = %v, undefined %t", op, a, b, got, undefined)
			}
		}
	})
}
