package storage

import (
	"math"
	"math/rand"
)

// Generator produces deterministic synthetic data with controllable skew and
// correlation. It stands in for the TPC-DS dsdgen tool and for the IBM
// client's production data.
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// UniformInt returns an integer uniformly distributed in [lo, hi].
func (g *Generator) UniformInt(lo, hi int64) int64 {
	if hi <= lo {
		return lo
	}
	return lo + g.rng.Int63n(hi-lo+1)
}

// SkewedInt returns an integer in [1, n] drawn from a Zipf-like distribution
// with the given skew exponent (>0). Larger skew concentrates mass on small
// values; this is how fact-table foreign keys concentrate on a few dimension
// rows, which is what defeats the optimizer's uniformity assumption.
func (g *Generator) SkewedInt(n int64, skew float64) int64 {
	if n <= 1 {
		return 1
	}
	if skew <= 0 {
		return g.UniformInt(1, n)
	}
	// Inverse-CDF sampling of a truncated power law.
	u := g.rng.Float64()
	x := math.Pow(u, skew) // biases toward 0
	v := int64(x*float64(n)) + 1
	if v > n {
		v = n
	}
	return v
}

// Choice returns one of the options, uniformly.
func (g *Generator) Choice(options []string) string {
	if len(options) == 0 {
		return ""
	}
	return options[g.rng.Intn(len(options))]
}

// WeightedChoice returns options[i] with probability weights[i]/sum(weights).
func (g *Generator) WeightedChoice(options []string, weights []float64) string {
	if len(options) == 0 {
		return ""
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		return g.Choice(options)
	}
	x := g.rng.Float64() * total
	for i, w := range weights {
		x -= w
		if x <= 0 {
			return options[i]
		}
	}
	return options[len(options)-1]
}

// Float returns a float uniformly in [lo, hi).
func (g *Generator) Float(lo, hi float64) float64 {
	return lo + g.rng.Float64()*(hi-lo)
}

// Bool returns true with probability p.
func (g *Generator) Bool(p float64) bool { return g.rng.Float64() < p }

// Intn exposes the underlying uniform integer draw in [0,n).
func (g *Generator) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return g.rng.Intn(n)
}
