package core

import (
	"math"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/obs"
	"fuseme/internal/opt"
)

// DefaultReplanThreshold is the divergence ratio above which the replanner
// re-costs the plan: total measured stage time must be off by more than 25%
// of the total predicted time. Below it, the model is close enough that a
// re-pick would churn plans for noise.
const DefaultReplanThreshold = 0.25

// Replanner is the adaptive re-planning engine for iterative workloads: at
// each iteration boundary it compares the stages measured since the last
// check against the planner's predictions and, when they diverge beyond
// Threshold, re-costs the plan's cuboid operators with calibration-learned
// bandwidths and the current block-cache residency, re-picking their
// partitioning in place.
//
// Safety: results must be bit-identical with replanning on or off, so the
// swap is constrained to parameter changes that cannot reorder floating-point
// accumulation — R stays pinned (the k-axis split determines each output
// block's summation order) and aggregation-rooted plans are not touched at
// all (their per-task partial aggregates regroup under any re-partitioning).
// AllowInexact lifts both constraints for workloads that tolerate
// numerically-equivalent-but-not-bitwise results.
type Replanner struct {
	// Threshold is the divergence ratio that triggers a re-cost; zero means
	// DefaultReplanThreshold, negative re-costs at every check.
	Threshold float64
	// AllowInexact permits swaps that change accumulation order (full
	// (P,Q,R) re-pick including aggregation-rooted operators).
	AllowInexact bool
	// Obs supplies the prediction/measurement join the divergence check
	// reads and receives the fuseme_replan_* metrics. Required.
	Obs *obs.Obs
	// Learn, when non-nil, supplies learned bandwidths: its store is
	// consulted under its key before each re-cost.
	Learn *obs.Learner

	// Counters, readable after a run.
	Checks         int     // divergence checks performed
	Replans        int     // checks that swapped at least one operator
	LastDivergence float64 // divergence ratio at the last check

	// lastTotals is the calibration's cumulative per-operator totals at the
	// previous check; the next window is the diff against it.
	lastTotals map[string]obs.OpTotal
}

// threshold resolves the effective trigger ratio.
func (r *Replanner) threshold() float64 {
	if r.Threshold == 0 {
		return DefaultReplanThreshold
	}
	return r.Threshold
}

// Divergence computes the prediction error over the stages measured since
// the last check: per operator, measured wall seconds are summed and
// compared against the Eq. 2 predicted seconds under cc's constants (see
// EqModel); the ratio is Σ|measured − predicted| / Σ predicted. Zero when
// nothing was measured (or nothing had a prediction).
func (r *Replanner) Divergence(cc cluster.Config) float64 {
	if r.Obs == nil || r.Obs.Calib == nil {
		return 0
	}
	totals := r.Obs.Calib.OpTotals()
	wallByOp := map[string]float64{}
	for op, now := range totals {
		last := r.lastTotals[op]
		if last.Stages > now.Stages {
			last = obs.OpTotal{} // calibration was reset under us
		}
		if now.Stages > last.Stages {
			wallByOp[op] = now.WallSeconds - last.WallSeconds
		}
	}
	r.lastTotals = totals
	m := EqModel(cc)
	var errSec, predSec float64
	for op, wall := range wallByOp {
		netSec, comSec, _ := m.Eq2(totals[op].PredNetBytes, totals[op].PredComFlops)
		p := max(netSec, comSec)
		if p <= 0 {
			continue
		}
		predSec += p
		errSec += math.Abs(wall - p)
	}
	if predSec <= 0 {
		return 0
	}
	return errSec / predSec
}

// MaybeReplan runs one iteration-boundary check: it computes the divergence
// over the stages measured since the last check and, when it exceeds the
// threshold, re-costs pp's cuboid operators in place with learned bandwidths
// (from Learn's store, when attached) and the given cache residency
// (cachedNames marks query inputs whose blocks are resident worker-side, as
// cost.AnalyzeCached prices). Returns true when any operator's partitioning
// changed. pp must not be executing concurrently — call between iterations.
func (r *Replanner) MaybeReplan(pp *PhysPlan, cc cluster.Config, cachedNames map[string]bool) bool {
	r.Checks++
	r.Obs.Counter(obs.MReplanChecks).Inc()
	div := r.Divergence(cc)
	r.LastDivergence = div
	r.Obs.Gauge(obs.MReplanDivergence).Set(div)
	if div <= r.threshold() {
		return false
	}
	changed := r.Recost(pp, cc, cachedNames)
	if changed {
		r.Replans++
		r.Obs.Counter(obs.MReplans).Inc()
	}
	return changed
}

// Recost re-optimizes pp's eligible cuboid operators unconditionally (no
// divergence gate): the model takes learned bandwidths when the attached
// store has them, and estimates discount cache-resident inputs. Operator
// estimates are refreshed even when the parameters do not move, so the next
// iteration's predictions are judged against the current model. Returns true
// when any operator's (P,Q,R) changed.
func (r *Replanner) Recost(pp *PhysPlan, cc cluster.Config, cachedNames map[string]bool) bool {
	if r.Learn != nil {
		if l, ok := r.Learn.Store.Lookup(r.Learn.Key); ok {
			cc.LearnedNetBandwidth = l.NetBW
			cc.LearnedCompBandwidth = l.CompBW
		}
	}
	model := modelFor(cc)
	changed := false
	for _, op := range pp.Ops {
		if op.Strategy != exec.Cuboid || op.Plan.MainMM == nil || len(op.Group) > 0 {
			continue // only plain cuboid matmul operators have (P,Q,R) to re-pick
		}
		if op.Plan.Root.Op == dag.OpUnaryAgg && !r.AllowInexact {
			continue // partial aggregates regroup under any re-partition: pinned
		}
		e := cost.AnalyzeCached(op.Plan, cc.BlockSize, cachedIDsFor(op.Plan, cachedNames))
		var res opt.Result
		if r.AllowInexact {
			res = opt.Optimize(model, e)
		} else {
			res = opt.OptimizeFixedR(model, e, op.R)
		}
		if !res.Feasible {
			continue
		}
		if res.P != op.P || res.Q != op.Q || res.R != op.R {
			changed = true
		}
		op.P, op.Q, op.R = res.P, res.Q, res.R
		op.EstNetBytes, op.EstComFlops, op.EstMemPerTask = res.NetBytes, res.ComFlops, res.MemPerTask
	}
	return changed
}

// Clone returns a copy of the plan whose operator structs are independent of
// the original: the replanner can re-pick parameters on the copy while the
// original (for example a shared plan-cache entry) keeps its published
// parameters. The fusion plans themselves are immutable and stay shared.
func (pp *PhysPlan) Clone() *PhysPlan {
	ops := make([]*PhysOp, len(pp.Ops))
	for i, op := range pp.Ops {
		cp := *op
		ops[i] = &cp
	}
	return &PhysPlan{Graph: pp.Graph, Ops: ops}
}

// cachedIDsFor resolves cache-resident input names to a plan's external-input
// node IDs; nil when none of the plan's inputs are marked.
func cachedIDsFor(p *fusion.Plan, cachedNames map[string]bool) map[int]bool {
	if len(cachedNames) == 0 {
		return nil
	}
	var ids map[int]bool
	for _, in := range p.ExternalInputs() {
		if in.Op == dag.OpInput && cachedNames[in.Name] {
			if ids == nil {
				ids = map[int]bool{}
			}
			ids[in.ID] = true
		}
	}
	return ids
}
