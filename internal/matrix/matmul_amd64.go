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
// transposed; the other strides are row strides, in bytes too. store (0 or
// 1) set stores acc + 0 instead, out's old values unused — the bits of adding
// onto +0. Implemented in matmul_amd64.s.
//
//go:noescape
func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr)

// microAVX512x8x16 is microAVX4x8 on an 8x16 output block, at levelAVX512.
// Implemented in matmul_amd64.s.
//
//go:noescape
func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr)

// sddmmGroupAVX512 is sddmmGroup on raw storage, at levelAVX512: for mask
// rows [rLo, rHi), row by row, the row's stored positions q of each of the n
// terms in turn get acc[q] += dot(a[i*k:][:k], bt[col[q]*k:][:k]), run four
// dots at a time. n is at most sddmmMaxTerms, every term has a stored
// position, and k is positive. Implemented in matmul_amd64.s.
//
//go:noescape
func sddmmGroupAVX512(terms *sddmmTerm, n, rLo, rHi int, a *float64, k int)

// spmmRowsAVX is spmmRows on raw storage: for the CSR pattern rowPtr/col with
// values val and rows [rLo, rHi), acc[i][:n] += the product of row i with
// b (n columns), each element summed from +0 in the row's stored order and
// added once — stored, with store set — with spmmRows's arithmetic. n must be
// positive. Implemented in matmul_amd64.s.
//
//go:noescape
func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool)

// spmmRowsAVX512 is spmmRowsAVX at levelAVX512: each row's stored positions
// are walked once per 64 output columns instead of once per 16. Implemented
// in matmul_amd64.s.
//
//go:noescape
func spmmRowsAVX512(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool)

// spmmTAVX is spmmTCols on raw storage: for the K rows of the CSR operand
// rowPtr/col/val, k ascending, accT[col[q]][:m] += val[q] * a[k][:m] for
// every stored position q of row k, with spmmTCols's arithmetic — one call
// per CSR block. a and accT point at the columns' first element, and both
// have rows ld elements apart. K and m must be positive. Implemented in
// matmul_amd64.s.
//
//go:noescape
func spmmTAVX(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int)

// spmmTAVX512 is spmmTAVX at levelAVX512, a's row held 64 columns at a time.
// Implemented in matmul_amd64.s.
//
//go:noescape
func spmmTAVX512(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int)

// transposeAVX512 writes the transpose of the rows x cols block at src
// (rows lds elements apart) to dst (rows ldd elements apart), 8x8 tiles in
// registers, at levelAVX512. rows and cols must be positive multiples of 8.
// Implemented in matmul_amd64.s.
//
//go:noescape
func transposeAVX512(src *float64, lds int, dst *float64, ldd int, rows, cols int)

// nnzAVX512 is nnzPortable over the n values at x, n a multiple of 8, at
// levelAVX512: eight compares against zero per instruction and a popcount of
// the mask. Implemented in matmul_amd64.s.
//
//go:noescape
func nnzAVX512(x *float64, n int) int

// fmaPeakAVX2 and fmaPeakAVX512 run n rounds of twelve (YMM) and sixteen (ZMM)
// independent fused multiply-adds on registers alone — the ceiling
// BenchmarkFMAPeak states beside the GEMM's rate. Only that benchmark calls
// them, so the linker leaves them out of every binary. n must be positive.
// Implemented in matmul_amd64.s.

//go:noescape
func fmaPeakAVX2(n int)

//go:noescape
func fmaPeakAVX512(n int)
