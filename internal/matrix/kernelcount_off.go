//go:build !kernelcount

package matrix

// countKernel is a no-op the compiler removes; see kernelcount.go.
func countKernel(int) {}
