//go:build kernelcount

package matrix

import "sync/atomic"

// kernelCalls counts entries into the assembly arm of each kernel. It exists
// only under the kernelcount build tag, which TestFastPathIsThePath needs
// (make check runs it); the default build compiles countKernel to nothing.
var kernelCalls [numKernels]atomic.Int64

func countKernel(k int) { kernelCalls[k].Add(1) }
