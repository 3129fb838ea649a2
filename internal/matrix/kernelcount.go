//go:build kernelcount

package matrix

import (
	"sync"
	"sync/atomic"
)

// kernelCalls counts entries into the assembly arm of each kernel. It exists
// only under the kernelcount build tag, which TestFastPathIsThePath needs
// (make check runs it); the default build compiles countKernel to nothing.
var kernelCalls [numKernels]atomic.Int64

func countKernel(k int) { kernelCalls[k].Add(1) }

// scans records the dense blocks (*Dense).NNZ scans while a test watches
// (WatchScans), so the test can tell a count taken where a block was made
// from the same block counted again.
var scans struct {
	sync.Mutex
	seen           map[*Dense]bool // nil while nobody watches
	calls, rescans int
}

func countScan(d *Dense) {
	scans.Lock()
	if scans.seen != nil {
		scans.calls++
		if scans.seen[d] {
			scans.rescans++
		}
		scans.seen[d] = true
	}
	scans.Unlock()
}

// WatchScans records every (*Dense).NNZ call until stop is called. While it
// watches, scanned reports how many calls there were and how many of them
// scanned a block a call had scanned before. It exists only under the
// kernelcount build tag, for TestNoCountScanOnRebind.
func WatchScans() (scanned func() (calls, rescans int), stop func()) {
	scans.Lock()
	scans.seen, scans.calls, scans.rescans = map[*Dense]bool{}, 0, 0
	scans.Unlock()
	scanned = func() (int, int) {
		scans.Lock()
		defer scans.Unlock()
		return scans.calls, scans.rescans
	}
	stop = func() {
		scans.Lock()
		scans.seen = nil
		scans.Unlock()
	}
	return scanned, stop
}
