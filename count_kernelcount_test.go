//go:build kernelcount

package fuseme

import (
	"testing"

	"fuseme/internal/matrix"
)

// TestNoCountScanOnRebind: once warm, GNMF iterations that rebind their
// outputs count every dense block they make once, where it is made — the
// result sink — and no block again: neither the session declaring a rebound
// output's density (decls) nor the meter charging a member transpose
// (transposedChild) scans one. matrix.WatchScans, compiled in by the
// kernelcount tag, records which blocks (*Dense).NNZ scanned.
func TestNoCountScanOnRebind(t *testing.T) {
	cfg := LocalClusterConfig()
	cfg.BlockSize = 16
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reboundCases[0].bind(s)
	iterate := func() {
		out, err := s.Query(gnmfScript)
		if err != nil {
			t.Fatal(err)
		}
		s.Bind("U", out["U2"])
		s.Bind("V", out["V2"])
	}
	iterate() // warm-up: the first bind's inputs are counted here
	scanned, stop := matrix.WatchScans()
	defer stop()
	for i := 0; i < 2; i++ {
		iterate()
		before, _ := scanned()
		s.decls()
		if after, _ := scanned(); after != before {
			t.Errorf("iteration %d: declaring the rebound outputs scanned %d dense blocks", i, after-before)
		}
	}
	calls, rescans := scanned()
	if calls == 0 {
		t.Fatal("two iterations scanned no dense block: the result sink counted nothing")
	}
	if rescans != 0 {
		t.Errorf("of two iterations' %d dense block scans, %d scanned a block scanned before", calls, rescans)
	}
}
