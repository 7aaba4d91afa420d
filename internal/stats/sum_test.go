package stats

import (
	"math"
	"math/big"
	"testing"
)

// sumTerms draws n terms of mixed sign over several binary orders of
// magnitude, with a nonzero mean so that partial sums wander away from zero.
func sumTerms(rng *RNG, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		x := math.Ldexp(rng.Float64(), rng.Intn(40)-30) // [2^-30, 2^10)
		if rng.Float64() < 0.4 {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// TestSumExactInAnyOrder: a Sum is a function of its terms — every
// permutation, and every split into partial sums merged in any order, gives
// the identical bits.
func TestSumExactInAnyOrder(t *testing.T) {
	rng := NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		xs := sumTerms(rng, 1+rng.Intn(300))
		var want Sum
		for _, x := range xs {
			want = want.Add(x)
		}
		var perm Sum
		for _, k := range rng.Perm(len(xs)) {
			perm = perm.Add(xs[k])
		}
		if perm != want {
			t.Fatalf("trial %d: permuted sum %+v, in order %+v", trial, perm, want)
		}
		// Split the permuted terms into random blocks, then merge the partial
		// sums in a random order.
		order := rng.Perm(len(xs))
		var parts []Sum
		for lo := 0; lo < len(order); {
			hi := min(len(order), lo+1+rng.Intn(40))
			var p Sum
			for _, k := range order[lo:hi] {
				p = p.Add(xs[k])
			}
			parts = append(parts, p)
			lo = hi
		}
		var merged Sum
		for _, k := range rng.Perm(len(parts)) {
			merged = merged.AddSum(parts[k])
		}
		if merged != want {
			t.Fatalf("trial %d: merged partial sums %+v, in order %+v", trial, merged, want)
		}
	}
}

// TestSumAddSubRoundTrip: subtracting every term, in another order, returns
// exactly zero, and subtract-and-add through Diff lands where a fresh sum of
// the new terms does.
func TestSumAddSubRoundTrip(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		xs := sumTerms(rng, 1+rng.Intn(300))
		var s Sum
		for _, x := range xs {
			s = s.Add(x)
		}
		full := s
		for _, k := range rng.Perm(len(xs)) {
			s = s.Sub(xs[k])
		}
		if s != (Sum{}) {
			t.Fatalf("trial %d: add then subtract left %+v", trial, s)
		}

		// Replace every term by a new one, one update at a time.
		ys := sumTerms(rng, len(xs))
		moved := full
		for _, k := range rng.Perm(len(xs)) {
			moved = moved.AddSum(Term(ys[k]).Sub(xs[k]))
		}
		var fresh Sum
		for _, y := range ys {
			fresh = fresh.Add(y)
		}
		if moved != fresh {
			t.Fatalf("trial %d: updated sum %+v, fresh %+v", trial, moved, fresh)
		}
	}
}

// TestSumNegativeTerms: rounding is odd in the sign, so a term and its
// negation cancel exactly, and an all-negative sum is the negation of the
// matching all-positive one.
func TestSumNegativeTerms(t *testing.T) {
	rng := NewRNG(13)
	xs := sumTerms(rng, 200)
	var pos, neg, both Sum
	for _, x := range xs {
		x = math.Abs(x)
		pos = pos.Add(x)
		neg = neg.Add(-x)
		both = both.Add(x)
		both = both.Add(-x)
	}
	if both != (Sum{}) {
		t.Fatalf("x and -x left %+v", both)
	}
	if neg.Float() != -pos.Float() {
		t.Fatalf("negative sum %v, positive %v", neg.Float(), pos.Float())
	}
	var small Sum
	small = small.Add(-0x1p-40)
	if got := small.Float(); got != -0x1p-40 {
		t.Fatalf("a small negative sum reads %v, want %v", got, -0x1p-40)
	}
}

// gridValue is x rounded toward zero onto the 2^-62 grid, exactly.
func gridValue(x float64) *big.Float {
	v := new(big.Float).SetPrec(0).SetFloat64(x)
	v.SetMantExp(v, 62)
	n, _ := v.Int(nil) // truncates toward zero
	return new(big.Float).SetPrec(200).SetMantExp(new(big.Float).SetInt(n), -62)
}

// TestSumFloatWithinOneULP: each term moves by less than one grid step, and
// Float() reads the exact sum of the rounded terms to within one ulp —
// including sums that cancel to a small magnitude.
func TestSumFloatWithinOneULP(t *testing.T) {
	rng := NewRNG(17)
	for trial := 0; trial < 200; trial++ {
		xs := sumTerms(rng, 1+rng.Intn(100))
		if trial%4 == 0 {
			// Cancel most of the mass: the sum ends near a small residue.
			var tot float64
			for _, x := range xs {
				tot += x
			}
			xs = append(xs, -tot)
		}
		var s Sum
		exact := new(big.Float).SetPrec(200)
		for _, x := range xs {
			s = s.Add(x)
			g := gridValue(x)
			step, _ := new(big.Float).Sub(new(big.Float).SetFloat64(x), g).Float64()
			if math.Abs(step) >= 0x1p-62 {
				t.Fatalf("term %v rounds by %v, a full grid step or more", x, step)
			}
			exact.Add(exact, g)
		}
		want, _ := exact.Float64()
		got := s.Float()
		ulp := math.Nextafter(math.Abs(want), math.Inf(1)) - math.Abs(want)
		if math.Abs(got-want) > ulp {
			t.Fatalf("trial %d: Float() = %v, exact %v (ulp %v)", trial, got, want, ulp)
		}
	}
}
