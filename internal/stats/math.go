package stats

import (
	"errors"
	"math"
	"sort"
)

// Eps is the default clamp distance from 0 and 1 for probabilities that feed
// logarithms. The multi-layer model takes log(A/(1-A)), log(R/Q), etc.;
// clamping keeps those finite without visibly distorting estimates.
const Eps = 1e-6

// Sigmoid returns 1/(1+exp(-x)). It is the inverse of Logit and turns a
// log-likelihood ratio plus a prior's log odds into a posterior (the copy
// layer's p(dependent)). The multi-layer core evaluates the same form, Eq 15,
// in odds space instead — core.posteriorOdds — and its tests pin that to this.
func Sigmoid(x float64) float64 {
	// Guard the exp to avoid overflow for very negative x.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Logit returns log(p/(1-p)) for p in (0,1). Inputs are clamped to
// [Eps, 1-Eps] first so callers may pass hard 0/1 probabilities.
func Logit(p float64) float64 {
	p = ClampProb(p)
	return math.Log(p) - math.Log1p(-p)
}

// ClampProb restricts p to [Eps, 1-Eps].
func ClampProb(p float64) float64 {
	return Clamp(p, Eps, 1-Eps)
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// SoftmaxWithRest exponentiates and normalises the given log-scores together
// with `rest` additional implicit scores of value restScore each. It returns
// the normalised probabilities for the explicit scores and the total mass
// assigned to the implicit rest.
//
// This implements the normalisation of Eq 21 / Example 3.2: observed values
// carry their vote counts, while the n+1-|observed| unobserved domain values
// each carry a vote count of zero.
func SoftmaxWithRest(scores []float64, rest int, restScore float64) (probs []float64, restMass float64) {
	if len(scores) == 0 && rest <= 0 {
		return nil, 0
	}
	probs = make([]float64, len(scores))
	copy(probs, scores)
	return probs, SoftmaxWithRestInPlace(probs, rest, restScore)
}

// SoftmaxWithRestInPlace is SoftmaxWithRest overwriting the score buffer
// with the probabilities, for hot loops that reuse one row per data item and
// must not allocate. A score equal to the maximum is exponentiated as the 1
// that math.Exp(0) returns, without the call: a row has at least one, so the
// normaliser is at least 1 (and a row of nothing but -Inf comes out uniform).
func SoftmaxWithRestInPlace(buf []float64, rest int, restScore float64) (restMass float64) {
	if len(buf) == 0 && rest <= 0 {
		return 0
	}
	max := math.Inf(-1)
	for _, s := range buf {
		if s > max {
			max = s
		}
	}
	if rest > 0 && restScore > max {
		max = restScore
	}
	expBelowMax := func(s float64) float64 {
		if s == max {
			return 1
		}
		return math.Exp(s - max)
	}
	var z float64
	for i, s := range buf {
		buf[i] = expBelowMax(s)
		z += buf[i]
	}
	restExp := 0.0
	if rest > 0 {
		restExp = float64(rest) * expBelowMax(restScore)
		z += restExp
	}
	for i := range buf {
		buf[i] /= z
	}
	return restExp / z
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0<=q<=1) of xs using linear interpolation
// between closest ranks. It copies and sorts its input.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: quantile of empty slice")
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// SquareLoss returns the mean squared difference between predictions and
// truths. The two slices must have equal length.
func SquareLoss(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) {
		return 0, errors.New("stats: square loss length mismatch")
	}
	if len(pred) == 0 {
		return 0, nil
	}
	var sum float64
	for i := range pred {
		d := pred[i] - truth[i]
		sum += d * d
	}
	return sum / float64(len(pred)), nil
}

// Correlation returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when either series has zero variance.
func Correlation(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation length mismatch")
	}
	if len(xs) < 2 {
		return 0, nil
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
