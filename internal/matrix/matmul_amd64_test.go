//go:build amd64

package matrix

import "testing"

// TestAVXMatchesScalar forces the scalar register-tiled path and checks it is
// bit-identical to the AVX micro-kernel path, including on edge-heavy shapes.
func TestAVXMatchesScalar(t *testing.T) {
	if !hasAVX {
		t.Skip("CPU lacks AVX")
	}
	shapes := []struct{ m, k, n int }{
		{4, 64, 8}, {64, 64, 64}, {65, 67, 66}, {130, 100, 121}, {3, 5, 7},
	}
	for _, sh := range shapes {
		a := RandomDense(sh.m, sh.k, -1, 1, int64(sh.m+sh.k))
		b := RandomDense(sh.k, sh.n, -1, 1, int64(sh.k+sh.n))
		avx := MatMul(a, b)
		hasAVX = false
		scalar := MatMul(a, b)
		hasAVX = true
		if !bitEqual(avx, scalar) {
			t.Errorf("%dx%dx%d: AVX and scalar kernels disagree", sh.m, sh.k, sh.n)
		}
	}
}
