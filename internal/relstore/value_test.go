package relstore

import (
	"math"
	"testing"
)

// TestCompareIntegralExact pins exact ordering of Int and Date values
// beyond 2^53, where float64 can no longer tell neighbours apart, while
// a pairing with a Float keeps the float rule.
func TestCompareIntegralExact(t *testing.T) {
	const big = int64(1) << 53
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(big), Int(big + 1), -1},
		{Int(big + 1), Int(big), 1},
		{Int(big + 1), Int(big + 1), 0},
		{Int(math.MaxInt64), Int(math.MaxInt64 - 1), 1},
		{Value{Kind: TypeDate, I: big}, Int(big + 1), -1},
		{Int(big + 1), Value{Kind: TypeDate, I: big}, 1},
		{Int(-big - 1), Int(-big), -1},
		// Int against Float compares as float64: 2^53+1 rounds to 2^53.
		{Int(big + 1), Float(float64(big)), 0},
		{Int(3), Float(3.5), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v/%d, %v/%d) = %d, want %d", c.a.Kind, c.a.I, c.b.Kind, c.b.I, got, c.want)
		}
	}
}
