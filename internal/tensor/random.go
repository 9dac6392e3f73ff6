package tensor

import (
	"math"
	"math/rand"
)

// RandUniform fills a new tensor with samples from U[lo, hi).
func RandUniform(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + rng.Float64()*(hi-lo)
	}
	return t
}

// RandNormal fills a new tensor with samples from N(mean, std²).
func RandNormal(rng *rand.Rand, mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + rng.NormFloat64()*std
	}
	return t
}

// GlorotUniform fills a new tensor with Glorot/Xavier-uniform samples for a
// weight of the given fan-in and fan-out.
func GlorotUniform(rng *rand.Rand, fanIn, fanOut int, shape ...int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(rng, -limit, limit, shape...)
}
