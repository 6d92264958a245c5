// Package synth provides the deterministic synthetic inputs the benchmark
// workflows consume: seeded random sources, the beta(2,5) delay distribution
// the paper uses for "heavy" workloads, galaxy catalogs, seismic waveforms,
// news articles, and sentiment lexicons.
//
// All generators are deterministic under a caller-supplied seed so that
// experiment runs are reproducible and tests can assert on exact outputs.
package synth

import (
	"math"
	"math/rand"
)

// NewRand returns a seeded *rand.Rand. Use distinct seeds per logical stream
// so that concurrent components do not share (unsynchronized) state.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Beta samples the Beta(alpha, beta) distribution using the ratio of gamma
// variates: X/(X+Y) with X~Gamma(alpha), Y~Gamma(beta).
func Beta(rng *rand.Rand, alpha, beta float64) float64 {
	x := Gamma(rng, alpha)
	y := Gamma(rng, beta)
	if x+y == 0 {
		return 0
	}
	return x / (x + y)
}

// Gamma samples Gamma(shape, 1) using the Marsaglia–Tsang method, with the
// standard boost for shape < 1.
func Gamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return Gamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9.0*d)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1.0 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1.0-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1.0-v+math.Log(v)) {
			return d * v
		}
	}
}
