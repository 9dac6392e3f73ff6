package tensor

// useAVX2 reports whether the assembly kernels may run. It is read once, at
// package initialisation, from CPUID and XGETBV: the CPU must implement AVX2
// and the operating system must save YMM state.
var useAVX2 = hasAVX2()

func hasAVX2() bool

// matMulAVX2 accumulates a([rows,kc]) x b([kc,cols]) into o([rows,cols]) in
// matmul_amd64.s. a's element (i, kk) is at a[i·rs + kk·ks], so A may be read
// row-major (rs = k, ks = 1) or through a transpose (rs = 1, ks = m); b's and
// o's rows are n elements apart. cols must be a multiple of 4, and rows and
// kc at least 1. Each output element is loaded once, takes its kc products in
// ascending order with one rounded multiply and one rounded add each, and is
// stored once, so the result is bit-for-bit what matMulTile produces.
//
//go:noescape
func matMulAVX2(a, b, o *float64, rows, kc, cols, rs, n, ks int)

// The elementwise kernels in elementwise_amd64.s each run the Go loop of the
// function that calls them on n elements, n a multiple of 4, bit for bit:
// ReluFlat's, ReluBackwardInto's, AddFlat's and adamStep.update's.

//go:noescape
func reluAVX2(dst, a *float64, n int)

//go:noescape
func reluBackwardAVX2(dst, gy, x *float64, n int)

//go:noescape
func addAVX2(dst, a, b *float64, n int)

//go:noescape
func adamAVX2(w, grad, m, v *float64, n int, s adamStep)
