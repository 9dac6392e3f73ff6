package tensor

import "fmt"

// TakeAlongLastAxis picks, for each leading position, the element of the last
// axis selected by indices. For t:[b,n] and indices:[b], returns [b] with
// out[i] = t[i, indices[i]].
func TakeAlongLastAxis(t *Tensor, indices *Tensor) *Tensor {
	if t.Rank() < 1 {
		panic("tensor: TakeAlongLastAxis on scalar")
	}
	n := t.shape[t.Rank()-1]
	rows := t.Size() / n
	if indices.Size() != rows {
		panic(fmt.Sprintf("tensor: TakeAlongLastAxis indices size %d != rows %d", indices.Size(), rows))
	}
	out := New(t.shape[:t.Rank()-1]...)
	for r := 0; r < rows; r++ {
		k := int(indices.data[r])
		if k < 0 || k >= n {
			panic(fmt.Sprintf("tensor: TakeAlongLastAxis index %d out of range %d", k, n))
		}
		out.data[r] = t.data[r*n+k]
	}
	return out
}

// PutAlongLastAxis writes values[r] into out[r, indices[r]] of a zero tensor
// shaped like t. This is the adjoint of TakeAlongLastAxis.
func PutAlongLastAxis(shape []int, indices, values *Tensor) *Tensor {
	out := New(shape...)
	n := shape[len(shape)-1]
	rows := out.Size() / n
	for r := 0; r < rows; r++ {
		k := int(indices.data[r])
		out.data[r*n+k] = values.data[r]
	}
	return out
}
