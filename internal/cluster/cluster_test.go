package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fuseme/internal/matrix"
	"fuseme/internal/parallel/paralleltest"
)

func testConfig() Config {
	cfg := Default()
	cfg.SimTimeLimit = 0
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Nodes: -1, TasksPerNode: 1, TaskMemBytes: 1, NetBandwidth: 1, CompBandwidth: 1, BlockSize: 1},
		{Nodes: 1, TasksPerNode: 0, TaskMemBytes: 1, NetBandwidth: 1, CompBandwidth: 1, BlockSize: 1},
		{Nodes: 1, TasksPerNode: 1, TaskMemBytes: 0, NetBandwidth: 1, CompBandwidth: 1, BlockSize: 1},
		{Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1, NetBandwidth: 0, CompBandwidth: 1, BlockSize: 1},
		{Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1, NetBandwidth: 1, CompBandwidth: 1, BlockSize: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	cfg := Default()
	if cfg.Nodes != 8 || cfg.TasksPerNode != 12 {
		t.Fatalf("default cluster %d nodes x %d tasks", cfg.Nodes, cfg.TasksPerNode)
	}
	if cfg.TotalSlots() != 96 {
		t.Fatalf("TotalSlots = %d", cfg.TotalSlots())
	}
	if cfg.TaskMemBytes != 10<<30 {
		t.Fatalf("θt = %d", cfg.TaskMemBytes)
	}
}

func TestRunStageMetering(t *testing.T) {
	c := MustNew(testConfig())
	blk := matrix.RandomDense(10, 10, 0, 1, 1) // 800 bytes
	err := c.RunStage("test", 4, func(task *Task) error {
		task.FetchBlock(blk)
		task.AddFlops(1000)
		task.SendBlock(blk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.ConsolidationBytes != 4*800 {
		t.Fatalf("consolidation = %d", s.ConsolidationBytes)
	}
	if s.AggregationBytes != 4*800 {
		t.Fatalf("aggregation = %d", s.AggregationBytes)
	}
	if s.TotalCommBytes() != 8*800 {
		t.Fatalf("total = %d", s.TotalCommBytes())
	}
	if s.Flops != 4000 {
		t.Fatalf("flops = %d", s.Flops)
	}
	if s.Stages != 1 || s.Tasks != 4 {
		t.Fatalf("stages=%d tasks=%d", s.Stages, s.Tasks)
	}
	if s.PeakTaskMemBytes != 800 {
		t.Fatalf("peak mem = %d", s.PeakTaskMemBytes)
	}
	// A stage measures; the plan's clock is core.Simulate's.
	if s.SimSeconds != 0 || s.WallSeconds <= 0 {
		t.Fatalf("stage seconds: simulated %v, wall %v; want no clock and a measured wall", s.SimSeconds, s.WallSeconds)
	}
}

func TestRunStageErrorPropagates(t *testing.T) {
	c := MustNew(testConfig())
	boom := errors.New("boom")
	err := c.RunStage("fail", 8, func(task *Task) error {
		if task.ID == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "task 3") {
		t.Fatalf("error lacks task id: %v", err)
	}
}

func TestRunStageAllTasksRun(t *testing.T) {
	c := MustNew(testConfig())
	var count atomic.Int64
	seen := make([]atomic.Bool, 100)
	if err := c.RunStage("count", 100, func(task *Task) error {
		count.Add(1)
		if seen[task.ID].Swap(true) {
			return fmt.Errorf("task %d ran twice", task.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 100 {
		t.Fatalf("ran %d tasks", count.Load())
	}
}

func TestCheckAdmission(t *testing.T) {
	cfg := testConfig()
	cfg.TaskMemBytes = 1000
	if err := cfg.CheckAdmission(1000, "op"); err != nil {
		t.Fatal(err)
	}
	err := cfg.CheckAdmission(1001, "broadcast of U")
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "broadcast of U") {
		t.Fatalf("error lacks context: %v", err)
	}
}

// fetchBytes meters n bytes of consolidation traffic on task, as a fetched
// block of that size does.
func fetchBytes(task *Task, n int64) {
	task.stats.ConsolidationBytes += n
	task.GrowMem(n)
}

// TestRunStageCapsAtGOMAXPROCS: the sim runs at most GOMAXPROCS tasks at
// once, however many lanes its nodes have.
func TestRunStageCapsAtGOMAXPROCS(t *testing.T) {
	paralleltest.ForceThreads(t, 1, 2) // GOMAXPROCS 2
	cfg := testConfig()
	cfg.Nodes, cfg.TasksPerNode = 2, 4
	var running, peak atomic.Int32
	if err := MustNew(cfg).RunStage("wide", 4*cfg.TotalSlots(), func(*Task) error {
		cur := running.Add(1)
		for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p != 2 {
		t.Fatalf("%d tasks ran at once on %d lanes at GOMAXPROCS 2, want 2", p, cfg.TotalSlots())
	}
}

// TestMemHighWaterMark: a stage's peak task memory is its largest task's
// live memory, not the sum over its tasks.
func TestMemHighWaterMark(t *testing.T) {
	c := MustNew(testConfig())
	if err := c.RunStage("mem", 2, func(task *Task) error {
		if task.ID == 0 {
			task.GrowMem(100)
			task.GrowMem(200)
		} else {
			task.GrowMem(50)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().PeakTaskMemBytes; got != 300 {
		t.Fatalf("peak = %d, want 300", got)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{ConsolidationBytes: 1, AggregationBytes: 2, Flops: 3, Stages: 1, Tasks: 4, SimSeconds: 5, PeakTaskMemBytes: 10}
	b := Stats{ConsolidationBytes: 10, AggregationBytes: 20, Flops: 30, Stages: 2, Tasks: 40, SimSeconds: 50, PeakTaskMemBytes: 5}
	a.Add(b)
	if a.ConsolidationBytes != 11 || a.AggregationBytes != 22 || a.Flops != 33 ||
		a.Stages != 3 || a.Tasks != 44 || a.SimSeconds != 55 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.PeakTaskMemBytes != 10 {
		t.Fatalf("peak should take max, got %d", a.PeakTaskMemBytes)
	}
}

func TestResetStats(t *testing.T) {
	c := MustNew(testConfig())
	_ = c.RunStage("s", 1, func(task *Task) error { task.AddFlops(5); return nil })
	c.ResetStats()
	if s := c.Stats(); s.Flops != 0 || s.Stages != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:      "512 B",
		2048:     "2.0 KiB",
		3 << 20:  "3.0 MiB",
		10 << 30: "10.0 GiB",
		1 << 40:  "1.0 TiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRunStageZeroTasks(t *testing.T) {
	c := MustNew(testConfig())
	if err := c.RunStage("empty", 0, func(task *Task) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Stages != 1 {
		t.Fatal("empty stage not recorded")
	}
}

func TestTaskRetrySucceedsAfterTransientFailures(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTaskRetries = 3
	failuresLeft := map[int]int{2: 2, 5: 1} // task 2 fails twice, task 5 once
	var mu sync.Mutex
	cfg.InjectTaskFailure = func(taskID, attempt int) bool {
		mu.Lock()
		defer mu.Unlock()
		if failuresLeft[taskID] > 0 {
			failuresLeft[taskID]--
			return true
		}
		return false
	}
	c := MustNew(cfg)
	var ran atomic.Int64
	if err := c.RunStage("retry", 8, func(task *Task) error {
		ran.Add(1)
		task.AddFlops(10)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("fn ran %d times, want 8 (injected attempts bypass fn)", ran.Load())
	}
	// Metering counts only successful attempts.
	if got := c.Stats().Flops; got != 80 {
		t.Fatalf("flops = %d, want 80", got)
	}
}

func TestTaskRetryExhaustedFailsStage(t *testing.T) {
	cfg := testConfig()
	cfg.MaxTaskRetries = 2
	cfg.InjectTaskFailure = func(taskID, attempt int) bool { return taskID == 1 }
	c := MustNew(cfg)
	err := c.RunStage("doomed", 4, func(task *Task) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "task 1") {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("err should mention the injected failure: %v", err)
	}
}

func TestRetriedTaskMeteringIsClean(t *testing.T) {
	// A function that fails on its first real attempt after metering some
	// bytes must not leak them into stage stats.
	cfg := testConfig()
	cfg.MaxTaskRetries = 1
	c := MustNew(cfg)
	attempts := make([]atomic.Int64, 4)
	if err := c.RunStage("clean", 4, func(task *Task) error {
		if attempts[task.ID].Add(1) == 1 && task.ID == 0 {
			fetchBytes(task, 1_000_000) // metered, then the attempt fails
			return errors.New("flaky")
		}
		fetchBytes(task, 100)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().ConsolidationBytes; got != 400 {
		t.Fatalf("consolidation = %d, want 400 (failed attempt discarded)", got)
	}
}
