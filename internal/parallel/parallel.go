// Package parallel provides the bounded goroutine pool behind intra-task
// kernel parallelism: splitting matmul row-panels and element-wise chains
// across cores inside one CFO task.
//
// A Pool is owned by the process that runs tasks — the simulated cluster or a
// TCP worker — and shared by every task it executes concurrently. Two limits
// bound the goroutines a pool will ever lend out:
//
//   - per call: a single For invocation fans out to at most `threads`
//     goroutines (the caller plus threads-1 helpers), and
//   - globally: at most slots*(threads-1) helper goroutines run at once
//     across all concurrent For calls,
//
// so a worker running `slots` concurrent tasks with `threads` kernel threads
// each never exceeds slots*threads kernel goroutines. Configure threads so
// that product stays at or below GOMAXPROCS (Resolve does); oversubscribing
// cores only adds scheduler churn.
//
// Helper acquisition never blocks: when the budget is exhausted (all other
// tasks are fanning out too) the caller simply runs its loop inline. Results
// are bit-identical at any thread count because For splits the index space
// into disjoint contiguous chunks and every chunk runs the exact serial code
// path — parallelism changes who computes a range, never how.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMaxThreads caps auto-resolved kernel threads per task. Beyond four
// threads a single blocked matmul task is usually memory-bound, and worker
// slots are the primary parallelism axis.
const DefaultMaxThreads = 4

// Resolve returns the kernel thread count for a process running slots
// concurrent tasks: GOMAXPROCS/slots, at least one and at most
// DefaultMaxThreads. Kernel threads are a property of the process that runs
// the kernels — the simulated cluster or a worker — not of the session.
func Resolve(slots int) int {
	return min(max(runtime.GOMAXPROCS(0)/max(slots, 1), 1), DefaultMaxThreads)
}

// Pool is a bounded helper-goroutine pool. The zero value is unusable; a nil
// *Pool is valid and runs everything inline (the serial path). Pools are safe
// for concurrent use by many tasks.
type Pool struct {
	threads int
	sem     chan struct{} // global helper budget: slots*(threads-1) tokens

	parallelCalls atomic.Int64
	serialCalls   atomic.Int64
	helperRuns    atomic.Int64

	reportMu sync.Mutex
	reported Stats // what Unreported has handed out so far
}

// Stats is a snapshot of a pool's utilization counters.
type Stats struct {
	// ParallelCalls counts For invocations that fanned out to >= 2 goroutines.
	ParallelCalls int64
	// SerialCalls counts For invocations that ran inline: work below the
	// grain, a single-threaded pool, or a fully contended helper budget.
	SerialCalls int64
	// HelperRuns counts helper-goroutine executions across all calls.
	HelperRuns int64
}

// New returns a pool lending each For call up to threads goroutines, with a
// global helper budget sized for slots concurrent tasks. threads <= 1 returns
// nil: the serial pool.
func New(threads, slots int) *Pool {
	if threads <= 1 {
		return nil
	}
	if slots < 1 {
		slots = 1
	}
	return &Pool{threads: threads, sem: make(chan struct{}, slots*(threads-1))}
}

// Threads returns the per-call fan-out limit; 1 for a nil pool.
func (p *Pool) Threads() int {
	if p == nil {
		return 1
	}
	return p.threads
}

// Stats returns a snapshot of the utilization counters; zeroes for nil.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		ParallelCalls: p.parallelCalls.Load(),
		SerialCalls:   p.serialCalls.Load(),
		HelperRuns:    p.helperRuns.Load(),
	}
}

// Unreported returns what the counters gained since the previous call (all of
// them at the first), and the per-call fan-out limit: the increments of the
// fuseme_kernel_* metrics. Concurrent callers — tasks or stages finishing at
// once — get disjoint windows, so their increments add up to the counters.
// Zeroes and 1 for nil.
func (p *Pool) Unreported() (Stats, int) {
	if p == nil {
		return Stats{}, 1
	}
	p.reportMu.Lock()
	defer p.reportMu.Unlock()
	cur, prev := p.Stats(), p.reported
	p.reported = cur
	return Stats{
		ParallelCalls: cur.ParallelCalls - prev.ParallelCalls,
		SerialCalls:   cur.SerialCalls - prev.SerialCalls,
		HelperRuns:    cur.HelperRuns - prev.HelperRuns,
	}, p.threads
}

// For executes body over the disjoint cover of [0, n): body(lo, hi) is called
// with contiguous ranges whose union is exactly [0, n). grain is the minimum
// range width worth a goroutine; work below 2*grain (or a nil/contended pool)
// runs as one inline body(0, n) call. Panics in body propagate to the caller
// after all ranges finish.
func (p *Pool) For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	want := 0
	if p != nil {
		if want = n / grain; want > p.threads {
			want = p.threads
		}
	}
	if want < 2 {
		if p != nil {
			p.serialCalls.Add(1)
		}
		body(0, n)
		return
	}
	// Acquire helpers without blocking: under contention the call degrades
	// toward inline execution instead of queueing behind other tasks.
	helpers := 0
acquire:
	for helpers < want-1 {
		select {
		case p.sem <- struct{}{}:
			helpers++
		default:
			break acquire
		}
	}
	if helpers == 0 {
		p.serialCalls.Add(1)
		body(0, n)
		return
	}
	parts := helpers + 1
	var wg sync.WaitGroup
	var panicked atomic.Value
	for w := 1; w < parts; w++ {
		lo, hi := chunk(n, parts, w)
		wg.Add(1)
		go func(lo, hi int) {
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(r)
				}
				<-p.sem
				wg.Done()
			}()
			p.helperRuns.Add(1)
			body(lo, hi)
		}(lo, hi)
	}
	lo, hi := chunk(n, parts, 0)
	func() {
		defer wg.Wait()
		body(lo, hi)
	}()
	p.parallelCalls.Add(1)
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// chunk returns the w-th of parts contiguous ranges covering [0, n), sized
// within one of each other.
func chunk(n, parts, w int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}
