// Package paralleltest holds the one way tests choose a kernel thread count.
// Kernel threads follow the process that runs the kernels
// (parallel.Resolve: GOMAXPROCS/slots, capped at parallel.DefaultMaxThreads),
// so a test forces a count by setting GOMAXPROCS. A test that calls
// ForceThreads must not call t.Parallel: GOMAXPROCS is the whole process's.
package paralleltest

import (
	"runtime"
	"testing"
)

// ForceThreads sets GOMAXPROCS to threads × slots until t ends, so a
// simulated cluster or a worker running slots concurrent tasks resolves
// threads kernel threads per task (for threads up to
// parallel.DefaultMaxThreads). A cluster clamps its local slots to
// GOMAXPROCS, so slots is its TotalSlots.
func ForceThreads(t testing.TB, threads, slots int) {
	t.Helper()
	was := runtime.GOMAXPROCS(max(threads, 1) * max(slots, 1))
	t.Cleanup(func() { runtime.GOMAXPROCS(was) })
}
