package stats

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand.Rand with the samplers the synthetic workloads need
// (Beta, Zipf, categorical, Bernoulli) and deterministic fan-out so that
// parallel generators stay reproducible regardless of goroutine scheduling.
type RNG struct {
	r            *rand.Rand
	creationSeed int64
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed)), creationSeed: seed}
}

// Fork derives an independent child RNG from the parent's stream combined
// with the given stream id. Two forks with distinct ids are uncorrelated, and
// forking does not advance the parent, so the layout of parallel work cannot
// perturb sibling streams.
func (g *RNG) Fork(id int64) *RNG {
	// SplitMix64-style mixing of the parent seed and the stream id.
	z := uint64(g.seed()) + uint64(id)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// seed recovers a stable per-RNG value for forking. We cannot read the
// internal state of rand.Rand, so each RNG remembers its own creation seed.
func (g *RNG) seed() int64 { return g.creationSeed }

// creationSeed is stored at construction; see NewRNG / Fork.
//
// The zero RNG is not usable; always construct via NewRNG or Fork.

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomises the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// Gamma samples from a Gamma(shape, 1) distribution using the
// Marsaglia-Tsang squeeze method, with Johnk-style boosting for shape < 1.
func (g *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^{1/a}.
		u := g.r.Float64()
		for u == 0 {
			u = g.r.Float64()
		}
		return g.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta samples from a Beta(a, b) distribution. The synthetic corpus uses it
// for per-source accuracies (e.g. a distribution peaked near 0.8, matching
// the paper's Figure 7).
func (g *RNG) Beta(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0.5
	}
	x := g.Gamma(a)
	y := g.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Zipf returns a sampler over [0, n) with frequency proportional to
// 1/(rank+1)^s. It is used for long-tail website/page/pattern sizes
// (Figure 5). s must be > 1 for the stdlib sampler; values <= 1 are nudged.
func (g *RNG) Zipf(s float64, n int) *ZipfSampler {
	if s <= 1 {
		s = 1.0001
	}
	if n < 1 {
		n = 1
	}
	return &ZipfSampler{z: rand.NewZipf(g.r, s, 1, uint64(n-1))}
}

// ZipfSampler draws Zipf-distributed ranks.
type ZipfSampler struct {
	z *rand.Zipf
}

// Next returns the next rank in [0, n).
func (z *ZipfSampler) Next() int { return int(z.z.Uint64()) }

// Categorical samples an index with probability proportional to weights[i].
// All-zero or empty weights fall back to uniform.
func (g *RNG) Categorical(weights []float64) int {
	if len(weights) == 0 {
		return 0
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return g.r.Intn(len(weights))
	}
	u := g.r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TruncatedBeta samples Beta(a,b) conditioned on [lo, hi] by rejection with a
// clamp fallback, keeping per-site accuracies inside a legal range.
func (g *RNG) TruncatedBeta(a, b, lo, hi float64) float64 {
	for i := 0; i < 64; i++ {
		x := g.Beta(a, b)
		if x >= lo && x <= hi {
			return x
		}
	}
	return Clamp(g.Beta(a, b), lo, hi)
}
