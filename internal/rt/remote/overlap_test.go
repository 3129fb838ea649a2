package remote

import (
	"math"
	"sync"
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/rt"
	"fuseme/internal/workloads"
)

// overlapping is the coordinator with a barrier in front of its stages: a
// stage waits until a second one is in flight beside it (or a timeout), so
// two independent operators are sure to dispatch at once. It records the
// most stages it ever saw in flight.
type overlapping struct {
	*Coordinator
	mu       sync.Mutex
	inFlight int
	peak     int
	both     chan struct{}
	once     sync.Once
}

func (o *overlapping) RunSpecStage(st *rt.Stage) error {
	o.mu.Lock()
	o.inFlight++
	o.peak = max(o.peak, o.inFlight)
	if o.inFlight >= 2 {
		o.once.Do(func() { close(o.both) })
	}
	o.mu.Unlock()
	defer func() {
		o.mu.Lock()
		o.inFlight--
		o.mu.Unlock()
	}()
	select {
	case <-o.both:
	case <-time.After(10 * time.Second):
	}
	return o.Coordinator.RunSpecStage(st)
}

// TestOverlappingStagesShareWorkerLanes: GNMF's U2 and U %*% t(U) run at
// once over two one-lane workers. No worker ever has two tasks in flight —
// the stages share the workers' lanes — and from the second iteration on no
// task stream is dialled: each worker's one stream, and its arena, serves
// every task. Every connection goes through a proxy that counts them. The
// factors are the simulated ones, bit for bit.
func TestOverlappingStagesShareWorkerLanes(t *testing.T) {
	const users, items, k, bs, iters = 96, 80, 8, 16, 3
	x := block.RandomSparse(users, items, bs, 0.1, 1, 5, 1)
	u := block.RandomDense(k, items, bs, 0.2, 0.8, 2)
	v := block.RandomDense(users, k, bs, 0.2, 0.8, 3)
	cfg := cluster.Config{Nodes: 2, TasksPerNode: 1, TaskMemBytes: 1 << 30, NetBandwidth: 1e9,
		CompBandwidth: 50e9, BlockSize: bs, MaxTaskRetries: 2}

	var proxies []*chaostest.Proxy
	var addrs []string
	for range 2 {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		p := chaostest.NewProxy(t, w.Addr())
		proxies = append(proxies, p)
		addrs = append(addrs, p.Addr())
	}
	co, err := NewCoordinator(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { co.Close() })
	rtm := &overlapping{Coordinator: co, both: make(chan struct{})}
	dialled := func() (n int) {
		for _, p := range proxies {
			n += p.Accepted()
		}
		return n
	}

	got, err := workloads.RunGNMF(core.FuseME{}, rtm, x, u.Clone(), v.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := dialled()
	if got, err = workloads.RunGNMF(core.FuseME{}, rtm, x, got.U, got.V, iters-1); err != nil {
		t.Fatal(err)
	}
	if n := dialled(); n != afterFirst {
		t.Errorf("%d connections dialled after the first iteration: streams were not reused", n-afterFirst)
	}
	if rtm.peak < 2 {
		t.Fatalf("at most %d stage in flight: the operators never overlapped", rtm.peak)
	}
	for _, w := range co.snapshotWorkers() {
		w.idleMu.Lock()
		peak, idle := w.peak, len(w.idle)
		w.idleMu.Unlock()
		if peak != 1 || idle != 1 {
			t.Errorf("worker %d: %d tasks in flight at most, %d streams parked; want 1 and 1", w.id, peak, idle)
		}
	}

	want, err := workloads.RunGNMF(core.FuseME{}, cluster.MustNew(cfg), x, u.Clone(), v.Clone(), iters)
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*block.Matrix{"U": {got.U, want.U}, "V": {got.V, want.V}} {
		for i := 0; i < pair[1].Rows; i++ {
			for j := 0; j < pair[1].Cols; j++ {
				if a, b := pair[0].At(i, j), pair[1].At(i, j); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s(%d,%d) = %g over TCP, %g simulated", name, i, j, a, b)
				}
			}
		}
	}
}
