package tensor

import (
	"fmt"
	"math"
)

// reduceAxis applies a fold along the given axis. keepDims keeps the reduced
// dimension at size 1.
func reduceAxis(t *Tensor, axis int, keepDims bool, init float64,
	fold func(acc, v float64) float64) *Tensor {
	r := t.Rank()
	if axis < 0 {
		axis += r
	}
	if axis < 0 || axis >= r {
		panic(fmt.Sprintf("tensor: reduce axis %d out of range for %v", axis, t.shape))
	}
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= t.shape[d]
	}
	for d := axis + 1; d < r; d++ {
		inner *= t.shape[d]
	}
	n := t.shape[axis]
	var shape []int
	for d := 0; d < r; d++ {
		if d == axis {
			if keepDims {
				shape = append(shape, 1)
			}
			continue
		}
		shape = append(shape, t.shape[d])
	}
	out := Full(init, shape...)
	for o := 0; o < outer; o++ {
		base := o * n * inner
		for k := 0; k < n; k++ {
			row := t.data[base+k*inner : base+(k+1)*inner]
			orow := out.data[o*inner : (o+1)*inner]
			for j := range row {
				orow[j] = fold(orow[j], row[j])
			}
		}
	}
	return out
}

// SumAxis sums along axis.
func SumAxis(t *Tensor, axis int, keepDims bool) *Tensor {
	return reduceAxis(t, axis, keepDims, 0, func(a, v float64) float64 { return a + v })
}

// MeanAxis averages along axis.
func MeanAxis(t *Tensor, axis int, keepDims bool) *Tensor {
	if axis < 0 {
		axis += t.Rank()
	}
	s := SumAxis(t, axis, keepDims)
	ScaleInPlace(s, 1/float64(t.shape[axis]))
	return s
}

// MaxAxis takes the max along axis.
func MaxAxis(t *Tensor, axis int, keepDims bool) *Tensor {
	return reduceAxis(t, axis, keepDims, math.Inf(-1), math.Max)
}

// ArgMaxAxis returns, along axis, the index of the maximum element. Ties go
// to the lowest index. The result drops the reduced axis.
func ArgMaxAxis(t *Tensor, axis int) *Tensor {
	r := t.Rank()
	if axis < 0 {
		axis += r
	}
	outer, inner := 1, 1
	for d := 0; d < axis; d++ {
		outer *= t.shape[d]
	}
	for d := axis + 1; d < r; d++ {
		inner *= t.shape[d]
	}
	n := t.shape[axis]
	var shape []int
	for d := 0; d < r; d++ {
		if d != axis {
			shape = append(shape, t.shape[d])
		}
	}
	out := New(shape...)
	best := make([]float64, inner)
	for o := 0; o < outer; o++ {
		base := o * n * inner
		for j := 0; j < inner; j++ {
			best[j] = math.Inf(-1)
		}
		for k := 0; k < n; k++ {
			row := t.data[base+k*inner : base+(k+1)*inner]
			for j := range row {
				if row[j] > best[j] {
					best[j] = row[j]
					out.data[o*inner+j] = float64(k)
				}
			}
		}
	}
	return out
}

// Softmax computes softmax along the last axis, numerically stabilized.
func Softmax(t *Tensor) *Tensor {
	if t.Rank() == 0 {
		return Scalar(1)
	}
	last := t.Rank() - 1
	n := t.shape[last]
	rows := t.Size() / n
	out := New(t.shape...)
	for r := 0; r < rows; r++ {
		row := t.data[r*n : (r+1)*n]
		orow := out.data[r*n : (r+1)*n]
		m := math.Inf(-1)
		for _, v := range row {
			m = math.Max(m, v)
		}
		sum := 0.0
		for i, v := range row {
			e := math.Exp(v - m)
			orow[i] = e
			sum += e
		}
		for i := range orow {
			orow[i] /= sum
		}
	}
	return out
}

// LogSoftmax computes log-softmax along the last axis.
func LogSoftmax(t *Tensor) *Tensor {
	if t.Rank() == 0 {
		return Scalar(0)
	}
	last := t.Rank() - 1
	n := t.shape[last]
	rows := t.Size() / n
	out := New(t.shape...)
	for r := 0; r < rows; r++ {
		row := t.data[r*n : (r+1)*n]
		orow := out.data[r*n : (r+1)*n]
		m := math.Inf(-1)
		for _, v := range row {
			m = math.Max(m, v)
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(v - m)
		}
		lse := m + math.Log(sum)
		for i, v := range row {
			orow[i] = v - lse
		}
	}
	return out
}
