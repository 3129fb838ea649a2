package remote

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

// servedFetches is a coordinator that reports a wider cluster than it
// dispatches to (plans compile for cfg; the coordinator runs them on its own
// lanes), counts the block requests it serves and serves an error for those
// fail picks.
type servedFetches struct {
	*Coordinator
	cfg  cluster.Config
	fail func(st *rt.Stage, ref spec.BlockRef) bool

	mu     sync.Mutex
	served int
	fired  int
}

func (f *servedFetches) Config() cluster.Config { return f.cfg }

func (f *servedFetches) RunSpecStage(st *rt.Stage) error {
	faulty := *st
	faulty.Fetch = func(ref spec.BlockRef) (matrix.Mat, error) {
		f.mu.Lock()
		f.served++
		fail := f.fail != nil && f.fail(st, ref)
		if fail {
			f.fired++
		}
		f.mu.Unlock()
		if fail {
			return nil, fmt.Errorf("injected fault serving %+v", ref)
		}
		return st.Fetch(ref)
	}
	return f.Coordinator.RunSpecStage(&faulty)
}

// idleStream returns the one task stream the coordinator holds parked for
// its one worker.
func idleStream(t *testing.T, c *Coordinator) *stream {
	t.Helper()
	w := c.workerByID(0)
	w.idleMu.Lock()
	defer w.idleMu.Unlock()
	if len(w.idle) != 1 {
		t.Fatalf("the coordinator holds %d idle streams to its one-lane worker, want 1", len(w.idle))
	}
	return w.idle[0]
}

// TestFailedTaskLeavesNoReplyOnTheStream: a task that fails with block
// requests still on the wire leaves its stream as clean as one that ends
// well. One worker serves one lane, so every task — the retry of the failed
// one included — runs on the same stream, and plans compile for six lanes,
// so GNMF's second fuse stage gives its first task three partials, which it
// names ahead and requests at once. The coordinator serves an error for the
// second, so the task fails while the third is in flight:
//
//   - "error reply in flight": the third is an error reply too;
//   - "block reply in flight": the third is a block, read into the arena
//     and dropped.
//
// Either way the worker must read what is outstanding before its msgFail,
// the retry on the same stream — not a fresh dial — must give the simulated
// result bit for bit, and once both ends close no goroutine of either is
// left. A worker that sends msgFail first leaves the replies on the stream,
// and hangs up on them when it reads the next frame.
func TestFailedTaskLeavesNoReplyOnTheStream(t *testing.T) {
	const users, items, k, bs = 96, 80, 8, 16
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(users, items, bs, 0.1, 1, 5, 1),
		"U": block.RandomDense(k, items, bs, 0.2, 0.8, 2),
		"V": block.RandomDense(users, k, bs, 0.2, 0.8, 3),
	}
	g, err := lang.Parse(`
U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)
V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`, map[string]lang.InputDecl{
		"X": {Rows: users, Cols: items, Sparsity: inputs["X"].Density()},
		"U": {Rows: k, Cols: items, Sparsity: 1},
		"V": {Rows: users, Cols: k, Sparsity: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1 << 30, NetBandwidth: 1e9,
		CompBandwidth: 50e9, BlockSize: bs, MaxTaskRetries: 2}
	wide := cfg
	wide.TasksPerNode = 6
	want, _, err := core.Run(core.FuseME{}, g, cluster.MustNew(wide), inputs)
	if err != nil {
		t.Fatal(err)
	}

	for name, failing := range map[string]int{"error reply in flight": 2, "block reply in flight": 1} {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			co, err := NewCoordinator(cfg, []string{w.Addr()})
			if err != nil {
				t.Fatal(err)
			}
			rtm := &servedFetches{Coordinator: co, cfg: wide}
			run := func() {
				t.Helper()
				got, _, err := core.Run(core.FuseME{}, g, rtm, inputs)
				if err != nil {
					t.Fatal(err)
				}
				for out, m := range want {
					for i := 0; i < m.Rows; i++ {
						for j := 0; j < m.Cols; j++ {
							if a, b := got[out].At(i, j), m.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s(%d,%d) = %g over TCP, %g simulated", out, i, j, a, b)
							}
						}
					}
				}
			}
			run() // opens and parks the lane's stream
			parked := idleStream(t, co)

			// The first fuse stage whose first task holds three partials:
			// its second partial (and the third) fail once.
			var target *spec.Stage
			toFail := map[spec.BlockRef]bool{}
			rtm.fail = func(st *rt.Stage, ref spec.BlockRef) bool {
				sp := st.Spec
				if target == nil && sp.Phase == spec.PhaseFuse && sp.IRanges[0].Hi-sp.IRanges[0].Lo == 1 &&
					sp.JRanges[0].Hi-sp.JRanges[0].Lo >= 3 {
					target = sp
					bi, bj := sp.IRanges[0].Lo, sp.JRanges[0].Lo
					for n := 1; n <= failing; n++ {
						toFail[spec.BlockRef{Kind: spec.RefPartial, BI: bi, BJ: bj + n}] = true
					}
				}
				if sp != target || !toFail[ref] {
					return false
				}
				delete(toFail, ref)
				return true
			}
			run()
			if rtm.fired != failing {
				t.Fatalf("%d injected fetch errors served, want %d: no fuse task at this shape fetches three partials", rtm.fired, failing)
			}
			if s := idleStream(t, co); s != parked {
				t.Error("the failed task's stream was closed and a new one dialled: the worker hung up on what the task left on it")
			}

			co.Close()
			w.Close()
			w.Wait()
			for _, frame := range []string{"remote.(*Coordinator)", "remote.(*Worker)", "remote.(*stream)", "remote.(*fetchQueue)"} {
				chaostest.WaitNoGoroutine(t, frame)
			}
		})
	}
}

// TestReadAheadKeepsTheWire pins what GNMF and the AutoEncoder train step
// move over two TCP workers at test shapes — consolidation, aggregation and
// extra wire bytes and the block requests the coordinator serves — to what
// the synchronous fetch moved (the values were taken with this test on the
// code before read-ahead). Read-ahead changes when a block is requested,
// never which: a hint naming a block no task reads is one more request and
// more bytes. GNMF's row was re-taken when FuseME stopped running its shared
// t(V) and t(U) as Map stages: no t(V) or t(U) crosses the wire any more,
// only V and U, which the CFOs read in place.
func TestReadAheadKeepsTheWire(t *testing.T) {
	for _, c := range wireCases() {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t, coordinate(t, wireConfig(), startWorkers(t, 2))); got != c.want {
				t.Errorf("consolidation, aggregation, extra wire bytes and requests served: %v, want %v", got, c.want)
			}
		})
	}
}

// wireCase is one workload TestReadAheadKeepsTheWire pins, with its counts:
// consolidation, aggregation and extra wire bytes, and requests served.
type wireCase struct {
	name   string
	graph  *dag.Graph
	inputs map[string]*block.Matrix
	want   [4]int64
}

// wireCases returns the GNMF and AutoEncoder train step at test shapes.
func wireCases() []wireCase {
	const bs = 16
	x := block.RandomSparse(96, 80, bs, 0.1, 1, 5, 1)
	ae := workloads.AutoEncoderConfig{Features: 40, Batch: 24, H1: 20, H2: 8}
	st := workloads.InitAutoEncoder(ae, bs, 7)
	return []wireCase{
		{"gnmf", workloads.GNMF(96, 80, 8, x.Density()), map[string]*block.Matrix{
			"X": x,
			"U": block.RandomDense(8, 80, bs, 0.2, 0.8, 2),
			"V": block.RandomDense(96, 8, bs, 0.2, 0.8, 3),
		}, [4]int64{70869, 27254, 36617, 121}},
		{"autoencoder", workloads.AutoEncoderStep(ae), map[string]*block.Matrix{
			"XT": block.RandomDense(ae.Features, ae.Batch, bs, 0, 1, 31),
			"W1": st.W1, "b1": st.B1, "W2": st.W2, "b2": st.B2,
			"W3": st.W3, "b3": st.B3, "W4": st.W4, "b4": st.B4,
		}, [4]int64{134564, 55260, 150354, 232}},
	}
}

// wireConfig is the two-worker cluster the wire counts are pinned on.
func wireConfig() cluster.Config {
	return cluster.Config{Nodes: 2, TasksPerNode: 2, TaskMemBytes: 1 << 30, NetBandwidth: 1e9,
		CompBandwidth: 50e9, BlockSize: 16, MaxTaskRetries: 2}
}

// startWorkers starts n in-process workers, closed when t ends.
func startWorkers(t *testing.T, n int) []*Worker {
	t.Helper()
	workers := make([]*Worker, n)
	for i := range workers {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
	}
	return workers
}

// coordinate returns a coordinator under cfg over workers, closed when t
// ends.
func coordinate(t *testing.T, cfg cluster.Config, workers []*Worker) *Coordinator {
	t.Helper()
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.Addr()
	}
	co, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	return co
}

// run executes the case once on co and returns its counts.
func (c wireCase) run(t *testing.T, co *Coordinator) [4]int64 {
	t.Helper()
	co.ResetStats()
	rtm := &servedFetches{Coordinator: co, cfg: co.Config()}
	_, stats, err := core.Run(core.FuseME{}, c.graph, rtm, c.inputs)
	if err != nil {
		t.Fatal(err)
	}
	return [4]int64{stats.ConsolidationBytes, stats.AggregationBytes, stats.ExtraWireBytes, int64(rtm.served)}
}

// TestFetchQueueMatchesRepliesByPosition drives a fetch queue against a
// peer that answers every request in order — block (i, 0) as a 1×1 block
// holding i, an error for (1, 0) — and fetches a hinted list out of its
// order, with a reference nobody named in between. Each fetch gets its own
// block or error, whatever order the replies came in, and the peer sees
// every reference requested exactly once.
func TestFetchQueueMatchesRepliesByPosition(t *testing.T) {
	worker, peer := loopbackStreams(t)
	worker.blockSize, peer.blockSize = 1, 1
	requested := make(chan spec.BlockRef, 16)
	go func() {
		defer close(requested)
		for {
			typ, payload, err := peer.readFrame()
			if err != nil || typ != msgFetch {
				return
			}
			ref, err := decodeRef(payload)
			if err != nil {
				return
			}
			requested <- ref
			if ref.BI == 1 {
				err = peer.send(append(append(peer.begin(msgBlock), blockError), "no block 1"...))
			} else {
				err = peer.writeBlock(matrix.NewDenseData(1, 1, []float64{float64(ref.BI)}))
			}
			if err != nil {
				return
			}
		}
	}()
	ref := func(i int) spec.BlockRef { return spec.BlockRef{Kind: spec.RefInput, BI: i} }
	q := fetchQueue{s: worker}
	q.ahead([]spec.BlockRef{ref(0), ref(1), ref(2), ref(3), ref(4), ref(5)})
	for _, i := range []int{3, 9, 0, 1, 5, 2, 4} {
		blk, err := q.fetch(ref(i))
		switch {
		case i == 1:
			if err == nil || err.Error() != "no block 1" {
				t.Errorf("fetch of (1,0): err = %v, want the error served for it", err)
			}
		case err != nil:
			t.Errorf("fetch of (%d,0): %v", i, err)
		case blk.At(0, 0) != float64(i):
			t.Errorf("fetch of (%d,0) returned the block of (%v,0)", i, blk.At(0, 0))
		}
	}
	if err := q.finish(); err != nil {
		t.Fatal(err)
	}
	worker.conn.Close() // the peer's read fails, and it stops
	seen := map[spec.BlockRef]int{}
	for r := range requested {
		seen[r]++
	}
	for _, i := range []int{0, 1, 2, 3, 4, 5, 9} {
		if seen[ref(i)] != 1 {
			t.Errorf("(%d,0) requested %d times, want once", i, seen[ref(i)])
		}
	}
	if len(seen) != 7 {
		t.Errorf("requests %v, want (0..5, 9) once each", seen)
	}
}
