package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs, which it sorts in
// place; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(q*float64(len(xs))))-1, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, median and third quartile of xs with
// the same interpolation as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is what the regression driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// blocks is how many equal stretches a timed region is cut into. Every
// end-to-end number is the median over the blocks of the block's own value,
// so a disturbed second or a start-up transient moves one block, not the
// result.
const blocks = 10

// blockQuantiles is the median over the blocks of each block's median and
// 0.9 quantile; empty blocks are left out.
func blockQuantiles(per [][]float64) (p50, p90 float64) {
	var p50s, p90s []float64
	for _, vs := range per {
		if len(vs) == 0 {
			continue
		}
		p50s, p90s = append(p50s, quantile(vs, 0.5)), append(p90s, quantile(vs, 0.9))
	}
	return median(p50s), median(p90s)
}

// blockOf is the block that time t of a region of length span falls in.
func blockOf(t, span int64) int {
	return int(min(t*blocks/span, blocks-1))
}

// blockedSeries takes the end times of back-to-back operations (stamps[0]
// is the start of the first) and returns the median over the blocks of each
// block's operations per second, median duration and 0.9-quantile duration
// in milliseconds. A block lasts from the end of the previous block's last
// operation to the end of its own last operation, so its rate is exact.
func blockedSeries(stamps []int64) (rate, p50, p90 float64) {
	span := stamps[len(stamps)-1] - stamps[0]
	per := make([][]float64, blocks)
	ends := make([]int64, blocks)
	for i := 1; i < len(stamps); i++ {
		b := blockOf(stamps[i]-stamps[0], span)
		per[b] = append(per[b], float64(stamps[i]-stamps[i-1])/1e6)
		ends[b] = stamps[i]
	}
	var rates []float64
	prev := stamps[0]
	for b, vs := range per {
		if len(vs) == 0 {
			continue
		}
		rates = append(rates, float64(len(vs))/(float64(ends[b]-prev)/1e9))
		prev = ends[b]
	}
	p50, p90 = blockQuantiles(per)
	return median(rates), p50, p90
}

// blockedSamples takes independent samples, each a value observed at a time
// in [0, span), and returns the median over the blocks of each block's
// median and 0.9 quantile.
func blockedSamples(timesNs []int64, values []float64, span int64) (p50, p90 float64) {
	per := make([][]float64, blocks)
	for i, t := range timesNs {
		b := blockOf(t, span)
		per[b] = append(per[b], values[i])
	}
	return blockQuantiles(per)
}
