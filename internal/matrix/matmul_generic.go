//go:build !amd64

package matrix

// simdLevel is levelPortable off amd64: every kernel runs its portable twin.
const simdLevel = levelPortable

// The assembly kernels are never reached at levelPortable; the stubs exist so
// their callers compile on every architecture.

func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr) {
	panic("matrix: AVX kernel called on non-amd64")
}

func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB uintptr) {
	panic("matrix: AVX kernel called on non-amd64")
}

func sddmmAVX(rowPtr, col *int, rLo, rHi, nnz int, a, bt, acc *float64, k int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmTRowAVX(a *float64, col *int, val *float64, nnz int, accT *float64, ldT, m int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func logAVX(dst, src *float64, n int) int {
	panic("matrix: AVX kernel called on non-amd64")
}

func expAVX(dst, src *float64, n int) int {
	panic("matrix: AVX kernel called on non-amd64")
}

func sigmoidAVX(dst, src *float64, n int) int {
	panic("matrix: AVX kernel called on non-amd64")
}

func nnzAVX512(x *float64, n int) int {
	panic("matrix: AVX kernel called on non-amd64")
}
