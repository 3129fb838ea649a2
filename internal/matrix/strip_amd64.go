//go:build amd64

package matrix

// stripAVX512 is the strip kernel at levelAVX512 (strip_amd64.s): for j < n,
// dst[j] = r where r is, by form, x[j] op y[j], x[j] op s, s op x[j], x[j] or
// s, stored as +0 where r's bits AND keep are zero. n must be positive; dst
// may be x or y, and the operands form does not read may be nil.
//
//go:noescape
func stripAVX512(form int, dst, x, y *float64, n int, s float64, keep uint64)
