package parallel

import (
	"sync"
	"sync/atomic"
	"testing"

	"fuseme/internal/parallel/paralleltest"
)

// TestForCoversRange checks every index is visited exactly once, for a
// spread of sizes, grains and pool shapes.
func TestForCoversRange(t *testing.T) {
	pools := []*Pool{nil, New(1, 1), New(2, 1), New(4, 2), New(4, 12)}
	for _, p := range pools {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			for _, grain := range []int{0, 1, 8, 100} {
				var visits sync.Map
				p.For(n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						if _, dup := visits.LoadOrStore(i, true); dup {
							t.Errorf("threads=%d n=%d grain=%d: index %d visited twice", p.Threads(), n, grain, i)
						}
					}
				})
				count := 0
				visits.Range(func(_, _ any) bool { count++; return true })
				if count != n {
					t.Errorf("threads=%d n=%d grain=%d: %d indices visited", p.Threads(), n, grain, count)
				}
			}
		}
	}
}

// TestForDeterministicSum runs a float reduction whose per-element result
// must not depend on the thread count: every element is computed by exactly
// one goroutine with the same arithmetic.
func TestForDeterministicSum(t *testing.T) {
	const n = 4096
	ref := make([]float64, n)
	(*Pool)(nil).For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = float64(i) * 1.000001
		}
	})
	for _, threads := range []int{2, 3, 4} {
		p := New(threads, 2)
		got := make([]float64, n)
		p.For(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				got[i] = float64(i) * 1.000001
			}
		})
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("threads=%d: element %d differs", threads, i)
			}
		}
	}
}

// TestHelperBudget checks the pool never runs more helper goroutines than
// slots*(threads-1) at once, even under heavy concurrent For pressure.
func TestHelperBudget(t *testing.T) {
	const threads, slots = 3, 2
	p := New(threads, slots)
	limit := int64(slots * (threads - 1))
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 50; iter++ {
				p.For(300, 1, func(lo, hi int) {
					// Range 0 runs on the caller; only ranges beyond it
					// occupy helper tokens.
					if lo == 0 {
						return
					}
					cur := active.Add(1)
					for {
						old := peak.Load()
						if cur <= old || peak.CompareAndSwap(old, cur) {
							break
						}
					}
					active.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > limit {
		t.Fatalf("observed %d concurrent helpers, budget %d", got, limit)
	}
}

// TestGrainForcesInline checks sub-grain work never fans out.
func TestGrainForcesInline(t *testing.T) {
	p := New(4, 1)
	calls := 0
	p.For(10, 8, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single full range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected one inline call, got %d", calls)
	}
	st := p.Stats()
	if st.SerialCalls != 1 || st.ParallelCalls != 0 {
		t.Fatalf("stats = %+v, want one serial call", st)
	}
}

// TestStatsCounters checks parallel calls and helper runs are counted.
func TestStatsCounters(t *testing.T) {
	p := New(4, 1)
	p.For(1000, 1, func(lo, hi int) {})
	st := p.Stats()
	if st.ParallelCalls != 1 {
		t.Fatalf("ParallelCalls = %d, want 1", st.ParallelCalls)
	}
	if st.HelperRuns < 1 || st.HelperRuns > 3 {
		t.Fatalf("HelperRuns = %d, want 1..3", st.HelperRuns)
	}
}

// TestNilPoolSafe checks the nil pool runs inline and reports zero stats.
func TestNilPoolSafe(t *testing.T) {
	var p *Pool
	sum := 0
	p.For(100, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
	if p.Threads() != 1 {
		t.Fatalf("nil pool Threads = %d", p.Threads())
	}
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
}

// TestPanicPropagates checks a panic in a helper range reaches the caller
// after all ranges complete (no leaked goroutines holding tokens).
func TestPanicPropagates(t *testing.T) {
	p := New(2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
		// The helper token must have been released.
		p.For(100, 1, func(lo, hi int) {})
		if st := p.Stats(); st.ParallelCalls < 1 {
			t.Fatalf("pool unusable after panic: %+v", st)
		}
	}()
	p.For(100, 1, func(lo, hi int) {
		if lo > 0 {
			panic("boom")
		}
	})
}

// TestResolve checks the auto rule against GOMAXPROCS: GOMAXPROCS/slots,
// at least one and at most DefaultMaxThreads.
func TestResolve(t *testing.T) {
	paralleltest.ForceThreads(t, 2, 4) // GOMAXPROCS 8
	for _, c := range []struct{ slots, want int }{
		{0, DefaultMaxThreads}, {1, DefaultMaxThreads}, {2, 4}, {3, 2}, {4, 2}, {8, 1}, {1 << 20, 1},
	} {
		if got := Resolve(c.slots); got != c.want {
			t.Errorf("Resolve(%d) at GOMAXPROCS 8 = %d, want %d", c.slots, got, c.want)
		}
	}
}

func TestChunkCover(t *testing.T) {
	for n := 0; n < 50; n++ {
		for parts := 1; parts < 9; parts++ {
			prev := 0
			for w := 0; w < parts; w++ {
				lo, hi := chunk(n, parts, w)
				if lo != prev || hi < lo {
					t.Fatalf("chunk(%d,%d,%d) = [%d,%d), prev end %d", n, parts, w, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("chunk(%d,%d,·) covers to %d", n, parts, prev)
			}
		}
	}
}
