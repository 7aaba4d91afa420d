package stats

// Sum is an exact fixed-point accumulator for the model's sufficient
// statistics. Each term is rounded once, toward zero, onto a 2^-62 grid — a
// pure function of the term, odd in its sign — and the sum of the rounded
// terms is kept exactly as an integer part i and a fraction f in [0, 2^62),
// worth i + f·2^-62. Integer addition associates, so a Sum is a function of
// its multiset of terms: any arrival order, block split or subtract-and-add
// history gives the same bits, and subtracting a term undoes adding it
// exactly. Terms must satisfy |x| < 2^62; a term below 2^-62 in magnitude
// rounds to zero. The zero value is an empty sum.
type Sum struct {
	i, f int64
}

const (
	sumScale = 0x1p62 // grid points per unit
	sumMask  = 1<<62 - 1
)

// Add returns s plus x rounded onto the grid. x - trunc(x) is exact in
// floating point, and so is its scaling by a power of two, so the only
// rounding is the final truncation of the scaled fraction. Sum is a value:
// an accumulator held in a local variable stays in registers.
func (s Sum) Add(x float64) Sum {
	i := int64(x)
	return s.add(i, int64((x-float64(i))*sumScale))
}

// Sub returns s minus the rounded x: rounding is odd, so this is exactly
// what Add(x) added.
func (s Sum) Sub(x float64) Sum { return s.Add(-x) }

// AddSum returns s plus t, exactly.
func (s Sum) AddSum(t Sum) Sum { return s.add(t.i, t.f) }

// add adds i + f·2^-62 for |f| < 2^62; the arithmetic shift of the fraction
// is the carry (or borrow).
func (s Sum) add(i, f int64) Sum {
	s.f += f
	s.i += i + s.f>>62
	s.f &= sumMask
	return s
}

// Term returns the rounded x as a one-term Sum, for adding the same term (or,
// as Term(cur).Sub(old), the same update) to several sums at the cost of one
// rounding.
func Term(x float64) Sum { return Sum{}.Add(x) }

// Float returns the sum as the float64 nearest its value, to within one ulp:
// it converts the magnitude, so a small negative sum does not cancel against
// its integer part.
func (s Sum) Float() float64 {
	if s.i < 0 && s.f != 0 {
		// i + f·2^-62 = -((-i-1) + (2^62-f)·2^-62).
		return -(float64(-s.i-1) + float64(sumScale-s.f)/sumScale)
	}
	return float64(s.i) + float64(s.f)/sumScale
}
