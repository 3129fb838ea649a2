//go:build amd64

package matrix

import "testing"

// BitEqual is bitEqual, for the executor test in fused_amd64_test.go.
var BitEqual = bitEqual

// The dispatch levels, for tests outside the package.
const (
	LevelPortable = levelPortable
	LevelAVX2     = levelAVX2
	LevelAVX512   = levelAVX512
)

// Level reports the widest assembly form this machine runs.
func Level() int { return simdLevel }

// ForceLevel keeps the kernels at level n or below until test t ends, for
// tests outside the package (the executor's, in fused_amd64_test.go).
func ForceLevel(t testing.TB, n int) {
	was := simdLevel
	simdLevel = min(was, n)
	t.Cleanup(func() { simdLevel = was })
}
