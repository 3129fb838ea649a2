package core

import (
	"fmt"

	"fuseme/internal/cluster"
)

// Simulate prices a compiled plan at full scale, the one clock of the
// system: no blocks are computed; instead, the compile-time estimates drive
// admission control, communication accounting and the paper's Eq. 2. Execute
// runs it before any operator starts, on either runtime, and refuses the
// plan it refuses; a session reports its clock as LastStats().SimSeconds and
// as the planned event's pred_seconds. This is also how the experiment
// harness reproduces the paper's figures at their original dimensions
// (hundreds of thousands to millions of block rows), which no single machine
// could materialise.
//
// It reads the plan Execute runs: the stages and tasks are each operator's
// lowered stages (so they equal what execution meters), and each operator's
// traffic is its estimates as priced, split into consolidation and the
// aggregation share the estimate function named. Operators whose inputs are
// independent run concurrently (Spark submits independent jobs in parallel),
// so time is charged per dependency level of the plan's producer edges:
// bytes and flops add up across a level's operators, the level's scheduling
// overhead is the largest of its operators' wave overheads (each summed over
// the operator's stages), and levels execute in sequence. This is where
// fusion's stage-count reduction becomes visible.
//
// A plan that was never lowered is refused. Admission failures return a
// wrapped cluster.ErrOutOfMemory; exceeding the configured simulated-time
// limit returns a wrapped cluster.ErrTimeout. Partial stats accumulated
// before the failure are returned either way.
func Simulate(pp *PhysPlan, cfg cluster.Config) (cluster.Stats, error) {
	var s cluster.Stats
	if len(pp.producers) != len(pp.Ops) {
		return s, fmt.Errorf("core: plan was never lowered (PhysPlan.Lower)")
	}
	// One slice, two uses: lv[i].depth is operator i's dependency level, and
	// lv[l] sums level l's terms. An operator's level is at most its index
	// (its producers come before it), so lv[i].depth is written before any
	// later operator reads it.
	type level struct {
		depth         int
		net, com, ovh float64
	}
	lv := make([]level, len(pp.Ops))
	for i, op := range pp.Ops {
		if op.Est.MemPerTask > cfg.TaskMemBytes {
			return s, cfg.CheckAdmission(op.Est.MemPerTask, op.desc())
		}
		for _, j := range pp.producers[i] {
			lv[i].depth = max(lv[i].depth, lv[j].depth+1)
		}
		var ovh float64
		for _, st := range op.Lowered.Stages {
			ovh += cfg.WaveOverhead(st.Spec.NumTasks)
			s.Stages++
			s.Tasks += st.Spec.NumTasks
		}
		l := &lv[lv[i].depth]
		l.net += float64(op.Est.NetBytes)
		l.com += float64(op.Est.ComFlops)
		l.ovh = max(l.ovh, ovh)
		s.ConsolidationBytes += op.Est.NetBytes - op.Est.AggBytes
		s.AggregationBytes += op.Est.AggBytes
		s.Flops += op.Est.ComFlops
		s.PeakTaskMemBytes = max(s.PeakTaskMemBytes, op.Est.MemPerTask)
	}
	// Levels in order, so the sum rounds the same way every run. Levels past
	// the deepest operator are zero and add nothing.
	for _, l := range lv {
		s.SimSeconds += max(cfg.Eq2(l.net, l.com)) + l.ovh
	}
	if cfg.SimTimeLimit > 0 && s.SimSeconds > cfg.SimTimeLimit {
		return s, fmt.Errorf("plan: simulated time %.0fs exceeds limit %.0fs: %w",
			s.SimSeconds, cfg.SimTimeLimit, cluster.ErrTimeout)
	}
	return s, nil
}
