package core

import (
	"fmt"

	"fuseme/internal/cluster"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
)

// Simulate dry-runs a compiled plan at full scale: no blocks are computed;
// instead, the compile-time estimates drive the same admission control,
// communication accounting and simulated clock (Eq. 2) that real execution
// uses. This is how the experiment harness reproduces the paper's figures at
// their original dimensions (hundreds of thousands to millions of block
// rows), which no single machine could materialise.
//
// Operators whose inputs are independent run concurrently (Spark submits
// independent jobs in parallel), so scheduling overhead and stage time are
// charged per dependency level: the simulated time of a level is the maximum
// over its operators, and levels execute in sequence. This is where fusion's
// stage-count reduction becomes visible.
//
// Admission failures return a wrapped cluster.ErrOutOfMemory; exceeding the
// configured simulated-time limit returns a wrapped cluster.ErrTimeout.
// Partial stats accumulated before the failure are returned either way.
func Simulate(pp *PhysPlan, cfg cluster.Config) (cluster.Stats, error) {
	var s cluster.Stats

	levels := opLevels(pp)
	// Per level: bandwidth and compute are shared cluster resources, so
	// bytes and flops add up across concurrent operators; only scheduling
	// overhead overlaps (the longest operator's waves gate the level).
	type level struct{ net, com, ovh float64 }
	byLevel := make([]level, len(pp.Ops))
	for _, op := range pp.Ops {
		desc := fmt.Sprintf("%s %s", op.Kind, op.Plan)
		if op.EstMemPerTask > cfg.TaskMemBytes {
			return s, fmt.Errorf("%s needs %s per task, budget %s: %w",
				desc, cluster.FormatBytes(op.EstMemPerTask), cluster.FormatBytes(cfg.TaskMemBytes), cluster.ErrOutOfMemory)
		}
		tasks := estTasks(op, cfg)
		agg := estAggregationBytes(op, tasks)
		lvl := &byLevel[levels[op]]
		lvl.net += float64(op.EstNetBytes + agg)
		lvl.com += float64(op.EstComFlops)
		lvl.ovh = max(lvl.ovh, cfg.WaveOverhead(tasks))
		s.ConsolidationBytes += op.EstNetBytes
		s.AggregationBytes += agg
		s.Flops += op.EstComFlops
		s.Stages++
		s.Tasks += tasks
		s.PeakTaskMemBytes = max(s.PeakTaskMemBytes, op.EstMemPerTask)
	}
	// Levels in order, so the sum rounds the same way every run. Levels past
	// the deepest operator are zero and add nothing.
	for _, lvl := range byLevel {
		s.SimSeconds += max(cfg.Eq2(lvl.net, lvl.com)) + lvl.ovh
	}
	if cfg.SimTimeLimit > 0 && s.SimSeconds > cfg.SimTimeLimit {
		return s, fmt.Errorf("plan: simulated time %.0fs exceeds limit %.0fs: %w",
			s.SimSeconds, cfg.SimTimeLimit, cluster.ErrTimeout)
	}
	return s, nil
}

// opLevels assigns each operator its depth in the plan's dependency DAG:
// an operator's level is one past the deepest operator producing one of its
// external inputs. Operators on the same level are independent.
func opLevels(pp *PhysPlan) map[*PhysOp]int {
	producer := map[int]*PhysOp{}
	for _, op := range pp.Ops {
		producer[op.Plan.Root.ID] = op
	}
	levels := map[*PhysOp]int{}
	var levelOf func(op *PhysOp) int
	levelOf = func(op *PhysOp) int {
		if l, ok := levels[op]; ok {
			return l
		}
		levels[op] = 0 // break accidental cycles defensively
		l := 0
		for _, in := range op.Plan.ExternalInputs() {
			if p, ok := producer[in.ID]; ok && p != op {
				if d := levelOf(p) + 1; d > l {
					l = d
				}
			}
		}
		levels[op] = l
		return l
	}
	for _, op := range pp.Ops {
		levelOf(op)
	}
	return levels
}

// estAggregationBytes estimates the matrix-aggregation shuffle of an
// operator: R partial blocks per output block of the main multiplication
// when R > 1, plus the (small) partial aggregates of a root aggregation.
func estAggregationBytes(op *PhysOp, tasks int) int64 {
	var agg int64
	if op.Plan.MainMM != nil && op.Strategy == exec.Cuboid && op.R > 1 {
		out := op.Plan.MainMM.EstSizeBytes()
		if m := fusion.FindOuterMask(op.Plan); m != nil {
			out = m.Driver.EstNNZ() * 16 // masked partials carry the driver pattern
		}
		agg += int64(op.R) * out
	}
	if op.Plan.Root.Op == dag.OpUnaryAgg {
		agg += op.Plan.Root.EstSizeBytes() * int64(tasks)
	}
	return agg
}

// estTasks estimates the task count an operator launches.
func estTasks(op *PhysOp, cfg cluster.Config) int {
	if op.Plan.MainMM != nil && op.Strategy == exec.Cuboid {
		t := op.P * op.Q * op.R
		if t < 1 {
			t = 1
		}
		return t
	}
	slots := cfg.TotalSlots()
	if slots < 1 {
		slots = 1
	}
	return slots
}
