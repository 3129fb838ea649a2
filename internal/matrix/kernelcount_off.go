//go:build !kernelcount

package matrix

// countKernel and countScan are no-ops the compiler removes; see
// kernelcount.go.
func countKernel(int) {}

func countScan(*Dense) {}
