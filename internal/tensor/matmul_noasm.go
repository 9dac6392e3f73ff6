//go:build !amd64

package tensor

// Without assembly kernels the Go loops run alone.
const useAVX2 = false

const noAsm = "tensor: assembly kernel called without AVX2"

func matMulAVX2(a, b, o *float64, rows, kc, cols, rs, n, ks int) { panic(noAsm) }
func transposeAVX2(dst, src *float64, rows, cols, ds, ss int)    { panic(noAsm) }
func reluAVX2(dst, a *float64, n int)                            { panic(noAsm) }
func reluBackwardAVX2(dst, gy, x *float64, n int)                { panic(noAsm) }
func addAVX2(dst, a, b *float64, n int)                          { panic(noAsm) }
func adamAVX2(w, grad, m, v *float64, n int, s adamStep)         { panic(noAsm) }
