//go:build amd64

package matrix

// simdLevel is the widest assembly form this machine runs, checked once at
// init via CPUID/XGETBV: levelAVX2 needs AVX, FMA3 and AVX2 (the strip
// kernels' integer lanes) with the OS saving YMM state, so an AVX + FMA3 CPU
// without AVX2 (AMD Piledriver) runs the portable form of the product kernels
// too, which need none; levelAVX512 needs AVX-512F and the OS saving opmask
// and ZMM state besides. It is the only dispatch switch. A var (not const) so
// tests can force a lower level and compare the forms of each kernel.
var simdLevel = cpuidLevel()

// cpuidLevel returns the level the CPU and the OS support. Implemented in
// matmul_amd64.s.
func cpuidLevel() int

// microAVX4x8 accumulates the 4x8 output block at out over kn steps:
// out[r][c] += sum_k a[r][k]*b[k][c], as acc = fma(a, b, acc) with k
// ascending and one accumulator lane per element — the arithmetic of micro4x4
// and edgeTile, so mixing the paths cannot change results. a[r][k] lies
// r*ldaB + k*ldkB bytes past a, so the left operand is read as stored or
// transposed; the other strides are row strides, in bytes too. Implemented in
// matmul_amd64.s.
//
//go:noescape
func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr)

// microAVX512x8x16 is microAVX4x8 on an 8x16 output block, at levelAVX512.
// Implemented in matmul_amd64.s.
//
//go:noescape
func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr)

// sddmmAVX is sddmmRows on raw storage: for the nnz-long pattern rowPtr/col
// and mask rows [rLo, rHi), acc[q] += dot(a[i*k:][:k], bt[col[q]*k:][:k]) with
// dot's arithmetic. k must be positive. Implemented in matmul_amd64.s.
//
//go:noescape
func sddmmAVX(rowPtr, col *int, rLo, rHi, nnz int, a, bt, acc *float64, k int)

// spmmRowsAVX is spmmRows on raw storage: for the CSR pattern rowPtr/col with
// values val and rows [rLo, rHi), acc[i][:n] += the product of row i with
// b (n columns), each element summed from +0 in the row's stored order and
// added once, with spmmRows's arithmetic. n must be positive. Implemented in
// matmul_amd64.s.
//
//go:noescape
func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int)

// spmmTRowAVX is one row of spmmTCols on raw storage: accT[col[q]][:m] +=
// val[q] * a[:m] for the nnz stored positions of a CSR row, accT's rows ldT
// elements apart, with spmmTCols's arithmetic. nnz and m must be positive.
// Implemented in matmul_amd64.s.
//
//go:noescape
func spmmTRowAVX(a *float64, col *int, val *float64, nnz int, accT *float64, ldT, m int)

// fmaPeakAVX2 and fmaPeakAVX512 run n rounds of twelve (YMM) and sixteen (ZMM)
// independent fused multiply-adds on registers alone — the ceiling
// BenchmarkFMAPeak states beside the GEMM's rate. Only that benchmark calls
// them, so the linker leaves them out of every binary. n must be positive.
// Implemented in matmul_amd64.s.

//go:noescape
func fmaPeakAVX2(n int)

//go:noescape
func fmaPeakAVX512(n int)
