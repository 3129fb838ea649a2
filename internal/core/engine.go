// Package core is the engine layer of FuseME: it turns a logical query DAG
// into a physical plan (an ordered list of fused operators with their
// strategies and partitioning parameters), runs it on the simulated cluster,
// and implements the five engines the paper evaluates — FuseME (CFG + CFO)
// and the simulated comparators SystemDS (GEN + BFO/RFO), DistME (CuboidMM,
// no fusion), MatFast (folded operators) and TensorFlow-XLA.
package core

import (
	"fmt"
	"slices"
	"strings"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/cost"
	"fuseme/internal/dag"
	"fuseme/internal/exec"
	"fuseme/internal/fusion"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
)

// PhysOp is one physical fused operator of a compiled plan.
type PhysOp struct {
	Plan     *fusion.Plan
	Strategy exec.Strategy
	P, Q, R  int
	Kind     string // display label: CFO, RFO, BFO, CuboidMM, Map, ...
	Balance  bool   // sparsity-aware load balancing
	NoMask   bool   // disable sparsity exploitation (ablation)

	// Group, when non-empty, makes this a Multi-aggregation fused operator
	// (Figure 2(d)): Plan is Group[0], and all grouped aggregation plans
	// execute as one distributed operator sharing their input scan.
	Group []*fusion.Plan

	// Est holds the compile-time estimates — network bytes with their
	// aggregation share, flops, per-task memory — that admission control,
	// plan display and Simulate read. The estimate function that priced the
	// operator filled it in, and it is the one count of the operator's
	// traffic.
	Est cost.OpEstimates

	// Lowered is the operator as the stages Execute runs, built from the
	// fields above by PhysPlan.Lower, which every Compile ends with.
	Lowered *exec.Operator
}

// Prediction is the planner's half of the operator's stage records: its
// observability key (Op, naming it in calibration reports), kind, chosen
// (P,Q,R) and the compile-time cost estimates. The executor copies it into
// the flight record of every stage the operator runs and fills in what the
// runtime measured.
func (op *PhysOp) Prediction() obs.FlightRecord {
	return obs.FlightRecord{
		Op:   fmt.Sprintf("%s %s#%d", op.Kind, op.Plan.Root.Label(), op.Plan.Root.ID),
		Kind: op.Kind, P: op.P, Q: op.Q, R: op.R,
		PredNetBytes: op.Est.NetBytes, PredComFlops: op.Est.ComFlops, PredMemBytes: op.Est.MemPerTask,
	}
}

// desc names the operator in admission and execution errors.
func (op *PhysOp) desc() string { return fmt.Sprintf("%s %s", op.Kind, op.Plan) }

// PhysPlan is a compiled query: fused operators in a topological order, and
// the dependency edges between them, which Execute walks.
type PhysPlan struct {
	Graph *dag.Graph // the graph the operators run: the caller's, or FuseME's copy of it
	Ops   []*PhysOp

	// producers[i] lists, by index, the operators whose results operator i
	// reads. Lower computes it, so it travels with a cached plan.
	producers [][]int
}

// Producers returns the indices of the operators whose results operator i
// reads: the operators it waits for.
func (pp *PhysPlan) Producers(i int) []int { return pp.producers[i] }

// Lower lowers every operator to its stages for a cluster of shape cfg: the
// last step of every Compile, and the one to repeat after editing an
// operator's strategy or (P,Q,R). From then on the lowered stages are the
// plan — Execute runs them as they are, and a plan cache shares them — so a
// plan executes only on a runtime of cfg's block size. Lower also derives
// the operators' dependency edges (Producers).
func (pp *PhysPlan) Lower(cfg cluster.Config) error {
	for _, op := range pp.Ops {
		var err error
		if len(op.Group) > 0 {
			op.Lowered, err = (&exec.MultiAggOp{Plans: op.Group, Pred: op.Prediction()}).Lower(cfg)
		} else {
			op.Lowered, err = (&exec.FusedOp{Plan: op.Plan, P: op.P, Q: op.Q, R: op.R,
				Strategy: op.Strategy, Balance: op.Balance, NoMask: op.NoMask,
				Pred: op.Prediction()}).Lower(cfg)
		}
		if err != nil {
			return fmt.Errorf("core: lowering %s %s: %w", op.Kind, op.Plan, err)
		}
	}
	return pp.link()
}

// link derives the dependency edges of the lowered operators: operator i
// depends on the operator that materialises each of its inputs.
func (pp *PhysPlan) link() error {
	producedBy := map[int]int{} // node ID -> index of the operator materialising it
	pp.producers = make([][]int, len(pp.Ops))
	for i, op := range pp.Ops {
		for _, in := range op.Lowered.Inputs() {
			j, ok := producedBy[in.ID]
			if !ok {
				if in.Op != dag.OpInput {
					return fmt.Errorf("core: operator %d (%s) reads node %d (%s), which no earlier operator materialises",
						i, op.Kind, in.ID, in.Label())
				}
				continue
			}
			if !slices.Contains(pp.producers[i], j) {
				pp.producers[i] = append(pp.producers[i], j)
			}
		}
		slices.Sort(pp.producers[i])
		for _, root := range op.Lowered.Roots() {
			producedBy[root.ID] = i
		}
	}
	return nil
}

// Describe renders the physical plan for humans: one line per fused
// operator with its member operators, strategy and parameters.
func (pp *PhysPlan) Describe() string {
	var b strings.Builder
	for i, op := range pp.Ops {
		labels := make([]string, 0, op.Plan.Size())
		for _, id := range op.Plan.MemberIDs() {
			labels = append(labels, fmt.Sprintf("%s#%d", op.Plan.Members[id].Label(), id))
		}
		fmt.Fprintf(&b, "[%d] %-8s {%s}", i, op.Kind, strings.Join(labels, " "))
		if op.Strategy == exec.Cuboid && op.Plan.MainMM != nil {
			fmt.Fprintf(&b, " (P=%d,Q=%d,R=%d)", op.P, op.Q, op.R)
		}
		fmt.Fprintf(&b, " type=%s estNet=%s estMem=%s\n",
			op.Plan.Classify(), cluster.FormatBytes(op.Est.NetBytes), cluster.FormatBytes(op.Est.MemPerTask))
	}
	return b.String()
}

// DescribeCosts renders the plan's per-operator cost predictions: each fused
// operator's chosen (P,Q,R) with its predicted network, computation and
// per-task memory terms and the Eq. 2 time decomposition under cfg's cluster
// constants, the ones the compile priced with. This is what `fuseme
// -explain` prints before execution.
func (pp *PhysPlan) DescribeCosts(cfg cluster.Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "predicted costs (N=%d, B̂n=%.3g B/s, B̂c=%.3g flop/s, θt=%s):\n",
		cfg.Nodes, cfg.NetBandwidth, cfg.CompBandwidth, cluster.FormatBytes(cfg.TaskMemBytes))
	for i, op := range pp.Ops {
		pqr := "-"
		if op.Strategy == exec.Cuboid && op.Plan.MainMM != nil {
			pqr = fmt.Sprintf("(%d,%d,%d)", op.P, op.Q, op.R)
		}
		netSec, comSec := cfg.Eq2(float64(op.Est.NetBytes), float64(op.Est.ComFlops))
		bound := "comp"
		if netSec >= comSec {
			bound = "net"
		}
		fmt.Fprintf(&b, "[%d] %-8s %-18s %-11s net=%-10s comp=%-12s mem/task=%-10s time=%.3gs (net %.3gs, comp %.3gs, %s-bound)\n",
			i, op.Kind, fmt.Sprintf("%s#%d", op.Plan.Root.Label(), op.Plan.Root.ID), pqr,
			cluster.FormatBytes(op.Est.NetBytes),
			fmt.Sprintf("%.3g flop", float64(op.Est.ComFlops)),
			cluster.FormatBytes(op.Est.MemPerTask),
			max(netSec, comSec), netSec, comSec, bound)
	}
	return b.String()
}

// Engine compiles logical plans for a particular system.
type Engine interface {
	// Name identifies the engine in experiment output.
	Name() string
	// Compile lowers the query DAG to a physical plan for a cluster of the
	// given shape, each operator lowered to its stages (PhysPlan.Lower).
	Compile(g *dag.Graph, cfg cluster.Config) (*PhysPlan, error)
}

// Execute runs a compiled plan on a runtime (the in-process simulated
// cluster or a remote coordinator) as the DAG its operators form: every
// operator whose inputs are materialised runs at once, each running its
// lowered stages and materialising its roots' values, which the operators
// depending on it consume as external inputs. Before any operator starts,
// the plan is priced once by Simulate on the runtime's cluster shape, and a
// plan Simulate refuses fails there, on either runtime: an operator whose
// estimated per-task memory exceeds the budget (the O.O.M. of the paper's
// figures), or a clock past SimTimeLimit (the T.O.). Once running, the first
// error wins: operators already running finish, no operator starts after it,
// and Execute returns it once none is running.
func Execute(pp *PhysPlan, rtm rt.Runtime, inputs map[string]*block.Matrix) (map[string]*block.Matrix, error) {
	out, _, err := ExecuteObs(pp, rtm, inputs, nil, nil)
	return out, err
}

// ExecuteObs is Execute with observability: it threads o into every
// operator, so stages and tasks are instrumented and every stage's flight
// record carries the operator's compile-time cost prediction. With planned
// non-nil and a query log on o, the log opens with the plan's planned event:
// planned's fields (the engine, what the caller timed) with the plan's text,
// its operator count and Simulate's clock as pred_seconds, also when
// Simulate refuses the plan. It returns Simulate's stats beside the outputs,
// the plan's clock included. A nil o and planned is exactly Execute.
func ExecuteObs(pp *PhysPlan, rtm rt.Runtime, inputs map[string]*block.Matrix, o *obs.Obs, planned *obs.Event) (map[string]*block.Matrix, cluster.Stats, error) {
	sim, err := Simulate(pp, rtm.Config())
	if planned != nil && o != nil && o.QLog != nil {
		ev := *planned
		ev.Type, ev.Plan, ev.Operators, ev.PredSeconds = obs.EvPlanned, pp.Describe(), len(pp.Ops), sim.SimSeconds
		o.QLog.Emit(ev)
	}
	if err != nil {
		return nil, sim, err
	}
	values := map[int]*block.Matrix{}
	for _, in := range pp.Graph.InputNodes() {
		m, ok := inputs[in.Name]
		if !ok {
			return nil, sim, fmt.Errorf("core: missing input %q", in.Name)
		}
		if m.Rows != in.Rows || m.Cols != in.Cols {
			return nil, sim, fmt.Errorf("core: input %q is %dx%d, query declares %dx%d",
				in.Name, m.Rows, m.Cols, in.Rows, in.Cols)
		}
		values[in.ID] = m
	}
	if err := pp.walk(rtm, values, o); err != nil {
		return nil, sim, err
	}
	outputs := make(map[string]*block.Matrix, len(pp.Graph.Outputs()))
	for name, n := range pp.Graph.Outputs() {
		v, ok := values[n.ID]
		if !ok {
			return nil, sim, fmt.Errorf("core: output %q (node %d) was never materialised", name, n.ID)
		}
		outputs[name] = v
	}
	return outputs, sim, nil
}

// walk runs the plan's operators as their dependency edges allow, reading
// inputs from and materialising results into values. This goroutine owns
// values: it binds an operator's inputs before the operator starts and files
// its results when it ends, and one goroutine per running operator does the
// rest. Operators that become ready together start in plan order. Each
// operator journals through its own part of the query log (QueryLog.Parts),
// so the journal keeps plan order while stages overlap.
func (pp *PhysPlan) walk(rtm rt.Runtime, values map[int]*block.Matrix, o *obs.Obs) error {
	var qlog *obs.QueryLog
	if o != nil {
		qlog = o.QLog
	}
	logs := qlog.Parts(len(pp.Ops))
	type ended struct {
		i    int
		outs []*block.Matrix
		err  error
	}
	var (
		done     = make(chan ended)
		waiting  = make([]int, len(pp.Ops))   // per operator: producers not ended yet
		users    = make([][]int, len(pp.Ops)) // per operator: the operators reading its results
		running  int
		firstErr error
	)
	for i := range pp.Ops {
		waiting[i] = len(pp.producers[i])
		for _, j := range pp.producers[i] {
			users[j] = append(users[j], i)
		}
	}
	// start starts operator i, unless an operator failed already.
	start := func(i int) {
		if firstErr != nil {
			return
		}
		op := pp.Ops[i]
		lo := op.Lowered
		bind := exec.Bindings{}
		for _, in := range lo.Inputs() {
			bind[in.ID] = values[in.ID] // Lower checked that a producer or the caller provides it
		}
		opObs := o
		if o != nil {
			cp := *o
			cp.QLog = logs[i]
			opObs = &cp
		}
		running++
		go func() {
			outs, err := lo.Run(rtm, bind, opObs)
			if err != nil {
				err = fmt.Errorf("core: %s failed: %w", op.desc(), err)
			}
			done <- ended{i, outs, err}
		}()
	}
	for i := range pp.Ops {
		if waiting[i] == 0 {
			start(i)
		}
	}
	for running > 0 {
		e := <-done
		running--
		logs[e.i].Close()
		if e.err != nil {
			if firstErr == nil {
				firstErr = e.err
			}
			continue
		}
		for k, root := range pp.Ops[e.i].Lowered.Roots() {
			values[root.ID] = e.outs[k]
		}
		for _, u := range users[e.i] {
			if waiting[u]--; waiting[u] == 0 {
				start(u)
			}
		}
	}
	for _, l := range logs {
		l.Close() // the parts of operators that never ran
	}
	return firstErr
}

// Run compiles and executes a query with the given engine, returning the
// outputs and the runtime stats accumulated during execution.
func Run(e Engine, g *dag.Graph, rtm rt.Runtime, inputs map[string]*block.Matrix) (map[string]*block.Matrix, cluster.Stats, error) {
	return RunObs(e, g, rtm, inputs, nil)
}

// RunObs is Run with an observability bundle threaded through execution:
// journal events, metrics and calibration records are collected for each
// stage the plan runs. A nil bundle behaves exactly like Run.
func RunObs(e Engine, g *dag.Graph, rtm rt.Runtime, inputs map[string]*block.Matrix, o *obs.Obs) (map[string]*block.Matrix, cluster.Stats, error) {
	pp, err := e.Compile(g, rtm.Config())
	if err != nil {
		return nil, rtm.Stats(), fmt.Errorf("%s: compile: %w", e.Name(), err)
	}
	out, _, err := ExecuteObs(pp, rtm, inputs, o, nil)
	if err != nil {
		return nil, rtm.Stats(), fmt.Errorf("%s: %w", e.Name(), err)
	}
	return out, rtm.Stats(), nil
}
