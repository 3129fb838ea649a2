package experiments

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/dag"
	"fuseme/internal/obs"
	"fuseme/internal/rt"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks every matrix dimension by this factor (default 1 =
	// the paper's original sizes). The simulation is cheap even at full
	// scale; Scale mainly serves quick smoke runs.
	Scale float64
	// Nodes overrides the cluster size (default: the paper's 8 workers).
	Nodes int
	// Journal and Timeline, when set, record every real execution (each run
	// of the ablation is a query of its own); a Timeline also asks the runs
	// for task events. fuseme-bench -journal-out and -trace-out set them.
	Journal  *obs.Journal
	Timeline *obs.Timeline
}

// execute compiles g with e and runs it on rtm, recording it as query id:
// planned, its stages (and tasks, with a Timeline), then done or failed.
func (o Options) execute(id string, e core.Engine, g *dag.Graph, rtm rt.Runtime, inputs map[string]*block.Matrix) error {
	var qlog *obs.QueryLog
	if o.Journal != nil || o.Timeline != nil {
		qlog = obs.NewQueryLog(o.Journal, id, "").Tee(o.Timeline)
	}
	start := time.Now()
	pp, err := e.Compile(g, rtm.Config())
	if err == nil {
		planned := obs.Event{Engine: e.Name(), CompileSeconds: time.Since(start).Seconds()}
		_, _, err = core.ExecuteObs(pp, rtm, inputs, &obs.Obs{Trace: o.Timeline != nil, QLog: qlog}, &planned)
	}
	end := obs.Event{Type: obs.EvDone, Seconds: time.Since(start).Seconds()}
	if err != nil {
		end.Type, end.Error = obs.EvFailed, err.Error()
	}
	qlog.Emit(end)
	return err
}

func (o Options) scale() float64 {
	if o.Scale <= 0 || o.Scale > 1 {
		return 1
	}
	return o.Scale
}

func (o Options) dim(n int) int {
	v := int(float64(n) * o.scale())
	if v < 1 {
		return 1
	}
	return v
}

// paperCluster returns the paper's cluster configuration (Section 6.1),
// optionally with a different node count.
func (o Options) paperCluster() cluster.Config {
	cfg := cluster.Default()
	if o.Nodes > 0 {
		cfg.Nodes = o.Nodes
	}
	return cfg
}

// tfCluster adjusts the cluster constants for the TensorFlow comparator:
// XLA's generated code runs local kernels faster and its runtime dispatch is
// lighter than Spark task scheduling.
func tfCluster(cfg cluster.Config) cluster.Config {
	cfg.CompBandwidth *= 2.5
	cfg.TaskOverhead /= 5
	return cfg
}

// simulate compiles and dry-runs a query for one engine, formatting elapsed
// time and communication. A failed admission renders as O.O.M., a blown
// simulated-time budget as T.O. (the markers of Figures 12, 14 and 15).
func simulate(e core.Engine, g *dag.Graph, cfg cluster.Config) (cluster.Stats, error) {
	pp, err := e.Compile(g, cfg)
	if err != nil {
		return cluster.Stats{}, err
	}
	return core.Simulate(pp, cfg)
}

// fmtTime renders a simulated time respecting failure markers.
func fmtTime(s cluster.Stats, err error) string {
	if marker := failMarker(err); marker != "" {
		return marker
	}
	return formatF(s.SimSeconds)
}

// fmtGB renders communication volume in GB respecting failure markers.
func fmtGB(s cluster.Stats, err error) string {
	if marker := failMarker(err); marker != "" {
		return marker
	}
	return formatF(float64(s.TotalCommBytes()) / 1e9)
}

func failMarker(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, cluster.ErrOutOfMemory):
		return "O.O.M."
	case errors.Is(err, cluster.ErrTimeout):
		return "T.O."
	default:
		return "ERR"
	}
}

// Runner is an experiment generator.
type Runner func(Options) ([]*Table, error)

// registry maps experiment IDs to their runners.
var registry = map[string]Runner{
	"table1":   Table1,
	"table3":   Table3,
	"fig12a":   fig12Dims,
	"fig12b":   fig12Common,
	"fig12c":   fig12Density,
	"fig12d":   fig12Nodes,
	"fig13":    Fig13,
	"fig13d":   Fig13d,
	"fig14":    Fig14,
	"fig15":    Fig15,
	"plans":    Plans,
	"ablation": Ablation,
}

// IDs returns the registered experiment IDs in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given ID ("all" runs everything).
func Run(id string, opts Options) ([]*Table, error) {
	if id == "all" {
		var all []*Table
		for _, key := range IDs() {
			ts, err := registry[key](opts)
			if err != nil {
				return all, fmt.Errorf("%s: %w", key, err)
			}
			all = append(all, ts...)
		}
		return all, nil
	}
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return r(opts)
}
