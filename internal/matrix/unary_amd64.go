//go:build amd64

package matrix

// logAVX, expAVX and sigmoidAVX are the assembly forms of the strip kernels
// (unary_amd64.s): dst[j] = f(src[j]) over the leading groups of four values
// of n (a multiple of 4) that lie in the kernel's fast range, with the bits
// of math.Log, math.Exp and 1 / (1 + math.Exp(-x)) on this machine. They
// return the number of values done. dst may be src.

//go:noescape
func logAVX(dst, src *float64, n int) int

//go:noescape
func expAVX(dst, src *float64, n int) int

//go:noescape
func sigmoidAVX(dst, src *float64, n int) int
