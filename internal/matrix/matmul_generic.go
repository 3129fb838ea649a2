//go:build !amd64

package matrix

// simdLevel is levelPortable off amd64: every kernel runs its portable twin.
const simdLevel = levelPortable

// The assembly kernels are never reached at levelPortable; the stubs exist so
// their callers compile on every architecture.

func microAVX4x8(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr) {
	panic("matrix: AVX kernel called on non-amd64")
}

func microAVX512x8x16(a, b, out *float64, kn, ldaB, ldkB, ldbB, ldoB, store uintptr) {
	panic("matrix: AVX kernel called on non-amd64")
}

func sddmmGroupAVX512(terms *sddmmTerm, n, rLo, rHi int, a *float64, k int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmRowsAVX(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmRowsAVX512(rowPtr, col *int, val *float64, rLo, rHi int, b, acc *float64, n int, store bool) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmTAVX(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func spmmTAVX512(rowPtr, col *int, val *float64, K int, a, accT *float64, ld, m int) {
	panic("matrix: AVX kernel called on non-amd64")
}

func transposeAVX512(src *float64, lds int, dst *float64, ldd int, rows, cols int) {
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

func stripAVX512(form int, dst, x, y *float64, n int, s float64, keep uint64) {
	panic("matrix: AVX kernel called on non-amd64")
}

func nnzAVX512(x *float64, n int) int {
	panic("matrix: AVX kernel called on non-amd64")
}
