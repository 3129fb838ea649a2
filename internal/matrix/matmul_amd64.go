//go:build amd64

package matrix

// hasAVX reports whether the assembly kernels can run: the CPU has AVX, FMA3
// and AVX2 (the strip kernels' integer lanes) and the OS saves YMM state —
// checked once at init via CPUID/XGETBV. It is the only dispatch flag, so an
// AVX + FMA3 CPU without AVX2 (AMD Piledriver) runs the portable form of the
// product kernels too, which need none. A var (not const) so tests can force
// the portable forms and compare the two forms of each kernel.
var hasAVX = cpuidAVX()

// cpuidAVX reports AVX + FMA3 + AVX2 + OSXSAVE support with YMM state enabled
// by the OS. Implemented in matmul_amd64.s.
func cpuidAVX() bool

// microAVX4x8 accumulates the 4x8 output block at out over kn steps:
// out[r][c] += sum_k a[r][k]*b[k][c], as acc = fma(a, b, acc) with k
// ascending and one accumulator lane per element — the arithmetic of micro4x4
// and edgeTile, so mixing the paths cannot change results. Strides are in
// bytes. Implemented in matmul_amd64.s.
//
//go:noescape
func microAVX4x8(a, b, out *float64, kn, ldaB, ldbB, ldoB uintptr)

// sddmmAVX is sddmmRows on raw storage: for the nnz-long pattern rowPtr/col
// and mask rows [rLo, rHi), acc[q] += dot(a[i*k:][:k], bt[col[q]*k:][:k]) with
// dot's arithmetic. k must be positive. Implemented in matmul_amd64.s.
//
//go:noescape
func sddmmAVX(rowPtr, col *int, rLo, rHi, nnz int, a, bt, acc *float64, k int)

// axpyAVX computes dst[j] += s * x[j] for j < n with axpy's arithmetic.
// Implemented in matmul_amd64.s.
//
//go:noescape
func axpyAVX(dst, x *float64, n int, s float64)
