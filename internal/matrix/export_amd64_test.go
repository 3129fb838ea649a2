//go:build amd64

package matrix

import "testing"

// BitEqual is bitEqual, for the executor test in fused_amd64_test.go.
var BitEqual = bitEqual

// HasAssembly reports whether the assembly kernels are in use.
func HasAssembly() bool { return hasAVX }

// ForcePortable switches the assembly kernels off until test t ends, for
// tests outside the package (the executor's, in fused_amd64_test.go).
func ForcePortable(t testing.TB) {
	was := hasAVX
	hasAVX = false
	t.Cleanup(func() { hasAVX = was })
}
