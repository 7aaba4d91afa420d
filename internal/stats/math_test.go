package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSigmoid(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{math.Inf(1), 1},
		{math.Inf(-1), 0},
		{11.7, 0.99999},  // Example 3.1: vote count for (W1, USA)
		{-9.4, 0.000083}, // Example 3.1: vote count for (W6, USA)
	}
	for _, c := range cases {
		got := Sigmoid(c.x)
		if !almostEqual(got, c.want, 1e-4) {
			t.Errorf("Sigmoid(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSigmoidLogitInverse(t *testing.T) {
	if err := quick.Check(func(x float64) bool {
		p := math.Mod(math.Abs(x), 1)
		if p < Eps || p > 1-Eps {
			return true
		}
		return almostEqual(Sigmoid(Logit(p)), p, 1e-9)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoidMonotonic(t *testing.T) {
	if err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Sigmoid(a) <= Sigmoid(b)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestLogitClampsExtremes(t *testing.T) {
	if math.IsInf(Logit(0), 0) || math.IsInf(Logit(1), 0) {
		t.Fatal("Logit must clamp 0/1 to finite values")
	}
	if Logit(0) >= 0 {
		t.Error("Logit(0) should be very negative")
	}
	if Logit(1) <= 0 {
		t.Error("Logit(1) should be very positive")
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 1); got != 1 {
		t.Errorf("Clamp(5,0,1)=%v", got)
	}
	if got := Clamp(-5, 0, 1); got != 0 {
		t.Errorf("Clamp(-5,0,1)=%v", got)
	}
	if got := Clamp(0.3, 0, 1); got != 0.3 {
		t.Errorf("Clamp(0.3,0,1)=%v", got)
	}
}

func TestSoftmaxWithRestExample32(t *testing.T) {
	// Example 3.2 of the paper: vote counts 10.8 (USA), 5.4 (Kenya), 9
	// unobserved values with vote count 0. Expect p(USA)=.995, p(Kenya)=.004.
	probs, rest := SoftmaxWithRest([]float64{10.8, 5.4}, 9, 0)
	if !almostEqual(probs[0], 0.995, 5e-4) {
		t.Errorf("p(USA) = %v, want ~0.995", probs[0])
	}
	if !almostEqual(probs[1], 0.00448, 5e-4) {
		t.Errorf("p(Kenya) = %v, want ~0.004", probs[1])
	}
	total := probs[0] + probs[1] + rest
	if !almostEqual(total, 1, 1e-12) {
		t.Errorf("softmax mass = %v, want 1", total)
	}
}

func TestSoftmaxWithRestProperties(t *testing.T) {
	if err := quick.Check(func(a, b, c float64, rest uint8) bool {
		scores := []float64{
			math.Mod(a, 30), math.Mod(b, 30), math.Mod(c, 30),
		}
		for _, s := range scores {
			if math.IsNaN(s) {
				return true
			}
		}
		r := int(rest % 20)
		probs, rm := SoftmaxWithRest(scores, r, 0)
		var total float64
		for _, p := range probs {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			total += p
		}
		total += rm
		return almostEqual(total, 1, 1e-9) && rm >= 0
	}, nil); err != nil {
		t.Error(err)
	}
}

// softmaxEveryExp is SoftmaxWithRestInPlace calling math.Exp on every entry,
// the maximal ones included — the reference its shortcut is pinned against.
func softmaxEveryExp(buf []float64, rest int, restScore float64) (restMass float64) {
	max := math.Inf(-1)
	for _, s := range buf {
		max = math.Max(max, s)
	}
	if rest > 0 {
		max = math.Max(max, restScore)
	}
	var z float64
	for i, s := range buf {
		buf[i] = math.Exp(s - max)
		z += buf[i]
	}
	restExp := 0.0
	if rest > 0 {
		restExp = float64(rest) * math.Exp(restScore-max)
		z += restExp
	}
	for i := range buf {
		buf[i] /= z
	}
	return restExp / z
}

// TestSoftmaxMaxShortcutBitExact: storing 1 for a maximal score is exactly
// what math.Exp(0) returns, so every probability and the rest mass keep their
// bits — with ties at the maximum, and with the rest score the maximum.
func TestSoftmaxMaxShortcutBitExact(t *testing.T) {
	if math.Exp(0) != 1 {
		t.Fatalf("math.Exp(0) = %v", math.Exp(0))
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20000; trial++ {
		row := make([]float64, rng.Intn(6))
		for i := range row {
			row[i] = (rng.Float64()*2 - 1) * 40
		}
		if len(row) > 1 && trial%3 == 0 { // tie at the maximum
			hi := 0
			for i, s := range row {
				if s > row[hi] {
					hi = i
				}
			}
			row[(hi+1)%len(row)] = row[hi]
		}
		rest, restScore := rng.Intn(4), 0.0
		if len(row) == 0 {
			rest++
		}
		if trial%5 == 0 { // the rest score is the maximum, or ties with it
			restScore = 45
			if len(row) > 0 && trial%10 == 0 {
				row[0] = restScore
			}
		}
		want := append([]float64(nil), row...)
		wantRest := softmaxEveryExp(want, rest, restScore)
		gotRest := SoftmaxWithRestInPlace(row, rest, restScore)
		if math.Float64bits(gotRest) != math.Float64bits(wantRest) {
			t.Fatalf("trial %d: rest mass %v, reference %v", trial, gotRest, wantRest)
		}
		for i := range row {
			if math.Float64bits(row[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: p[%d] = %v, reference %v", trial, i, row[i], want[i])
			}
		}
	}
}

// TestSoftmaxAllMinusInfIsUniform: a row of nothing but -Inf ties at its
// maximum everywhere, so the mass spreads uniformly over the row and the rest.
func TestSoftmaxAllMinusInfIsUniform(t *testing.T) {
	probs, rest := SoftmaxWithRest([]float64{math.Inf(-1), math.Inf(-1)}, 2, math.Inf(-1))
	if probs[0] != 0.25 || probs[1] != 0.25 || rest != 0.5 {
		t.Errorf("all -Inf softmax = %v, rest %v, want uniform", probs, rest)
	}
}

func TestSoftmaxWithRestEmpty(t *testing.T) {
	probs, rest := SoftmaxWithRest(nil, 0, 0)
	if len(probs) != 0 || rest != 0 {
		t.Errorf("empty softmax = %v, %v", probs, rest)
	}
	probs, rest = SoftmaxWithRest(nil, 4, 0)
	if !almostEqual(rest, 1, 1e-12) {
		t.Errorf("rest-only softmax mass = %v, want 1", rest)
	}
	if len(probs) != 0 {
		t.Errorf("rest-only softmax probs = %v", probs)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) should error")
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(q>1) should error")
	}
	got, err := Quantile([]float64{42}, 0.7)
	if err != nil || got != 42 {
		t.Errorf("Quantile singleton = %v, %v", got, err)
	}
}

func TestSquareLoss(t *testing.T) {
	got, err := SquareLoss([]float64{1, 0}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("SquareLoss = %v, want 0.5", got)
	}
	if _, err := SquareLoss([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	got, err = SquareLoss(nil, nil)
	if err != nil || got != 0 {
		t.Errorf("empty SquareLoss = %v, %v", got, err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got, err := Correlation(xs, []float64{2, 4, 6, 8})
	if err != nil || !almostEqual(got, 1, 1e-12) {
		t.Errorf("perfect correlation = %v, %v", got, err)
	}
	got, err = Correlation(xs, []float64{8, 6, 4, 2})
	if err != nil || !almostEqual(got, -1, 1e-12) {
		t.Errorf("perfect anticorrelation = %v, %v", got, err)
	}
	got, err = Correlation(xs, []float64{5, 5, 5, 5})
	if err != nil || got != 0 {
		t.Errorf("zero-variance correlation = %v, %v", got, err)
	}
	if _, err := Correlation(xs, xs[:2]); err == nil {
		t.Error("length mismatch should error")
	}
}
