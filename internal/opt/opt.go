// Package opt finds the optimal cuboid partitioning parameters (P*, Q*, R*)
// for a CFO (Section 3.3): the candidate with minimum Cost() (Eq. 2) that
// fits the per-task memory budget and exploits the cluster's parallelism
// (P*Q*R >= N*Tc, capped by the search space I*J*K).
//
// Two search strategies are provided: the exhaustive scan DistME uses, and
// the paper's pruning search, which exploits that Net and Com are monotone
// increasing in each of P, Q, R (so for a fixed (Q,R) column the first
// memory-feasible P is optimal) while memory is monotone decreasing.
// Figure 13(d) compares their latencies.
package opt

import (
	"math"
	"sync/atomic"

	"fuseme/internal/cluster"
	"fuseme/internal/cost"
)

// searchCalls counts parameter searches process-wide; with the plan cache in
// front of compilation it stays flat across repeat queries.
var searchCalls atomic.Int64

// SearchCalls returns how many parameter searches have run in this process.
func SearchCalls() int64 { return searchCalls.Load() }

// Result is the outcome of a parameter search: the chosen (P,Q,R) and, when
// feasible, the plan's estimates there.
type Result struct {
	P, Q, R   int
	Cost      float64 // Eq. 2 objective; +Inf when infeasible
	Feasible  bool
	Evaluated int // candidates whose cost was evaluated
	cost.OpEstimates
}

func finish(cc cluster.Config, e cost.Estimates, p, q, r, evaluated int, feasible bool) Result {
	res := Result{P: p, Q: q, R: r, Evaluated: evaluated, Feasible: feasible}
	if !feasible {
		res.Cost = math.Inf(1)
		return res
	}
	res.Cost = cost.Cost(cc, e, p, q, r)
	res.OpEstimates = e.At(p, q, r)
	return res
}

// minParallelism returns the parallelism floor: N*Tc, capped by the size of
// the search space (when I*J*K < N*Tc the paper sets the parameters as large
// as possible, which the floor enforces naturally).
func minParallelism(cc cluster.Config, e cost.Estimates) int64 {
	space := int64(e.I) * int64(e.J) * int64(e.K)
	floor := int64(cc.TotalSlots())
	if floor < 1 {
		floor = 1
	}
	if space < floor {
		return space
	}
	return floor
}

// OptimizeExhaustive scans the full (1..I) x (1..J) x (1..K) space.
func OptimizeExhaustive(cc cluster.Config, e cost.Estimates) Result {
	searchCalls.Add(1)
	minPar := minParallelism(cc, e)
	best := Result{Cost: math.Inf(1)}
	evaluated := 0
	for r := 1; r <= e.K; r++ {
		for q := 1; q <= e.J; q++ {
			for p := 1; p <= e.I; p++ {
				evaluated++
				if int64(p)*int64(q)*int64(r) < minPar {
					continue
				}
				if !cost.MemOK(cc, e, p, q, r) {
					continue
				}
				if c := cost.Cost(cc, e, p, q, r); c < best.Cost {
					best = finish(cc, e, p, q, r, 0, true)
				}
			}
		}
	}
	best.Evaluated = evaluated
	if !best.Feasible {
		return finish(cc, e, e.I, e.J, e.K, evaluated, false)
	}
	return best
}

// Optimize is the paper's pruning search. For each (Q,R) column it jumps
// directly to the smallest P satisfying the parallelism floor, walks P up
// only until memory fits (cost is monotone increasing in P, so the first
// feasible P is the column's optimum), and skips the column entirely when
// its cost lower bound already exceeds the incumbent.
func Optimize(cc cluster.Config, e cost.Estimates) Result {
	searchCalls.Add(1)
	minPar := minParallelism(cc, e)
	best := Result{Cost: math.Inf(1)}
	evaluated := 0
	for r := 1; r <= e.K; r++ {
		for q := 1; q <= e.J; q++ {
			qr := int64(q) * int64(r)
			pStart := int((minPar + qr - 1) / qr)
			if pStart < 1 {
				pStart = 1
			}
			if pStart > e.I {
				continue // column cannot reach the parallelism floor
			}
			// Column lower bound: cost at the smallest admissible P.
			evaluated++
			if cost.Cost(cc, e, pStart, q, r) >= best.Cost {
				continue
			}
			for p := pStart; p <= e.I; p++ {
				evaluated++
				if !cost.MemOK(cc, e, p, q, r) {
					continue // memory shrinks as P grows; keep walking
				}
				if c := cost.Cost(cc, e, p, q, r); c < best.Cost {
					best = finish(cc, e, p, q, r, 0, true)
				}
				break // larger P in this column only costs more
			}
		}
	}
	best.Evaluated = evaluated
	if !best.Feasible {
		return finish(cc, e, e.I, e.J, e.K, evaluated, false)
	}
	return best
}
