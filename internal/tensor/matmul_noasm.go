//go:build !amd64

package tensor

// Without an assembly kernel matMulRows runs the Go tile alone.
const useAVX2 = false

func matMulAVX2(a, b, o *float64, rows, kc, cols, rs, n, ks int) {
	panic("tensor: matMulAVX2 called without AVX2")
}
