package cluster

import (
	"math"
	"testing"
)

// eq2Case is one pricing of Eq. 2's two terms.
type eq2Case struct {
	name              string
	cfg               Config
	net, flops        float64
	wantNet, wantComp float64
}

// eq2Base is a 4-node cluster with 100 MB/s of network and 10 Gflop/s of
// compute per node.
var eq2Base = Config{Nodes: 4, TasksPerNode: 3, NetBandwidth: 1e8, CompBandwidth: 1e10}

func checkEq2(t *testing.T, cases []eq2Case) {
	t.Helper()
	for _, c := range cases {
		netSec, compSec := c.cfg.Eq2(c.net, c.flops)
		for _, v := range []float64{netSec, compSec} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: Eq2 = (%v, %v), want finite seconds", c.name, netSec, compSec)
			}
		}
		if netSec != c.wantNet || compSec != c.wantComp {
			t.Errorf("%s: Eq2(%g, %g) = (%v, %v), want (%v, %v)", c.name, c.net, c.flops, netSec, compSec, c.wantNet, c.wantComp)
		}
	}
}

// TestEq2NetBound prices a stage whose network term dominates:
// 8e8 / (4 × 1e8) = 2 s against 4e10 / (4 × 1e10) = 1 s.
func TestEq2NetBound(t *testing.T) {
	checkEq2(t, []eq2Case{{"net-bound", eq2Base, 8e8, 4e10, 2, 1}})
}

// TestEq2CompBound prices a compute-dominated stage:
// 6e10 / (4 × 1e10) = 1.5 s against 2e7 / (4 × 1e8) = 0.05 s.
func TestEq2CompBound(t *testing.T) {
	checkEq2(t, []eq2Case{{"compute-bound", eq2Base, 2e7, 6e10, 0.05, 1.5}})
}

// TestEq2ZeroBandwidths requires a cluster without bandwidths, and a stage
// with nothing to price, to cost zero finite seconds rather than divide by
// zero.
func TestEq2ZeroBandwidths(t *testing.T) {
	checkEq2(t, []eq2Case{
		{"zero-bandwidths", Config{Nodes: 4}, 1e9, 1e9, 0, 0},
		{"zero-config", Config{}, 1e9, 1e9, 0, 0},
		{"nothing-to-price", eq2Base, 0, 0, 0, 0},
	})
}

func TestWaveOverhead(t *testing.T) {
	paper := Default() // 96 slots, 1 s per wave
	noOverhead := paper
	noOverhead.TaskOverhead = 0
	for _, c := range []struct {
		name  string
		cfg   Config
		tasks int
		want  float64
	}{
		{"no-tasks", paper, 0, 0},
		{"one-wave", paper, 1, 1},
		{"full-wave", paper, 96, 1},
		{"two-waves", paper, 97, 2},
		{"no-overhead", noOverhead, 97, 0},
		{"no-slots", Config{TaskOverhead: 0.5}, 3, 1.5},
	} {
		if got := c.cfg.WaveOverhead(c.tasks); got != c.want {
			t.Errorf("%s: WaveOverhead(%d) = %v, want %v", c.name, c.tasks, got, c.want)
		}
	}
}
