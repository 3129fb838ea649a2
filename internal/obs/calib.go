package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fuseme/internal/cluster"
)

// Calibration accumulates executed stages' flight records across a run into
// one row per operator key. Safe for concurrent use; a nil *Calibration
// absorbs every call. It holds one row per operator key plus one name per
// distinct (operator, stage) pair — never one per record, so an always-on
// store (every Session arms one, the serve daemon pools sessions for the
// process lifetime) stays bounded by the number of plan shapes, not by the
// number of queries.
type Calibration struct {
	mu   sync.Mutex
	rows map[string]*opRow // by operator key
}

// opRow is one operator's records, folded as they arrive: the latest
// prediction (per execution) next to the summed measurements.
type opRow struct {
	ReportRow
	stageNames map[string]struct{} // distinct stage names, to count executions
}

// NewCalibration returns an empty store.
func NewCalibration() *Calibration {
	return &Calibration{rows: map[string]*opRow{}}
}

// Fold joins a stage_end's flight record to its operator's row (other events
// change nothing). Several stages (and several executions, in iterative
// workloads) map to one operator key: measurements sum, the prediction is
// the latest record's.
func (c *Calibration) Fold(e *Event) {
	if c == nil || e.Type != EvStageEnd || e.Flight == nil {
		return
	}
	rec := e.Flight
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.rows[rec.Op]
	if s == nil {
		s = &opRow{ReportRow: ReportRow{Op: rec.Op}, stageNames: map[string]struct{}{}}
		c.rows[rec.Op] = s
	}
	s.Kind, s.P, s.Q, s.R = rec.Kind, rec.P, rec.Q, rec.R
	s.PredNetBytes, s.PredComFlops, s.PredMemBytes = rec.PredNetBytes, rec.PredComFlops, rec.PredMemBytes
	s.Stages++
	s.Tasks += rec.Tasks
	s.Meas.Add(rec.Meas)
	s.stageNames[rec.Stage] = struct{}{}
}

// CalibrationFromEvents rebuilds a calibration store from journal events —
// Replay into a fresh store — so Report can be produced offline from a
// -journal-out file (ReadEvents) and judge real distributed measurements,
// not only the live session's.
func CalibrationFromEvents(events []Event) *Calibration {
	c := NewCalibration()
	Replay(events, c, nil)
	return c
}

// Reset discards accumulated records.
func (c *Calibration) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rows = map[string]*opRow{}
	c.mu.Unlock()
}

// ReportRow joins one operator's prediction with its summed measurements.
type ReportRow struct {
	Op      string
	Kind    string
	P, Q, R int

	Stages, Tasks int
	Executions    int // how many times the operator ran (iterative workloads)

	PredNetBytes, PredComFlops, PredMemBytes int64
	PredSeconds                              float64 // predicted Eq. 2 time

	// Meas is the operator's stage measurements summed with Stats.Add, so
	// PeakTaskMemBytes is their maximum. Meas.TotalCommBytes is compared
	// with PredNetBytes, Meas.Flops with PredComFlops and Meas.SimSeconds,
	// the stages' clock, with PredSeconds.
	Meas cluster.Stats

	EffNetBW  float64 // measured net / (N * wall); 0 when wall is 0
	EffCompBW float64 // measured flops / (N * wall)
}

// Report is the calibration result: per-operator rows plus back-solved
// effective bandwidths.
type Report struct {
	// Cluster is the configuration predictions are priced on (Eq2) and
	// measurements are judged against.
	Cluster cluster.Config
	Rows    []ReportRow

	// EffNetBW / EffCompBW are the back-solved effective bandwidths: B̂n from
	// network-bound rows (where the predicted network term dominates Eq. 2),
	// B̂c from compute-bound rows. Zero when no row of that class measured a
	// positive wall time.
	EffNetBW  float64
	EffCompBW float64

	// TaskLatency, when set, is the per-task latency distribution
	// (fuseme_task_seconds) captured alongside the calibration — the SLO
	// quantiles an operator reads off the report. Nil when per-task metrics
	// were off.
	TaskLatency *HistogramSnapshot
}

// Report renders the accumulated rows in plan order, with the Eq. 2
// predicted time on cc and the back-solved effective bandwidths. Plan order
// is the operator's root node ID, the N its key "Kind label#N" ends in — a
// script's statements number their nodes in order — then the key; a row
// whose key has no ID (a driver-side row, such as a collect stage's) comes
// after them. It does not depend on which of the operators the executor runs
// at once finished first.
func (c *Calibration) Report(cc cluster.Config) *Report {
	rep := &Report{Cluster: cc}
	if c == nil {
		return rep
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	keys := make([]string, 0, len(c.rows))
	for key := range c.rows {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b string) int {
		na, oka := planOrder(a)
		nb, okb := planOrder(b)
		switch {
		case oka != okb:
			if oka {
				return -1
			}
			return 1
		case na != nb:
			return cmp.Compare(na, nb)
		}
		return strings.Compare(a, b)
	})
	var netBytes, netWall, comFlops, comWall float64
	for _, key := range keys {
		s := c.rows[key]
		row := s.ReportRow
		// Executions ≈ total stage records / distinct stage names.
		row.Executions = row.Stages / len(s.stageNames)
		// Predictions are per execution; scale to the number of runs so the
		// pred/meas columns compare like with like.
		row.PredNetBytes *= int64(row.Executions)
		row.PredComFlops *= int64(row.Executions)
		netSec, comSec := cc.Eq2(float64(row.PredNetBytes), float64(row.PredComFlops))
		row.PredSeconds = max(netSec, comSec)
		net, flops, wall := float64(row.Meas.TotalCommBytes()), float64(row.Meas.Flops), row.Meas.SimSeconds
		if wall > 0 {
			row.EffNetBW = backSolve(net, wall, cc.Nodes)
			row.EffCompBW = backSolve(flops, wall, cc.Nodes)
			// Eq. 2 takes the max of the two terms, so the measured wall time
			// of a stage reflects whichever resource bound it: attribute the
			// row to that class when back-solving.
			if netSec >= comSec && net > 0 {
				netBytes += net
				netWall += wall
			} else if flops > 0 {
				comFlops += flops
				comWall += wall
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if netWall > 0 {
		rep.EffNetBW = backSolve(netBytes, netWall, cc.Nodes)
	}
	if comWall > 0 {
		rep.EffCompBW = backSolve(comFlops, comWall, cc.Nodes)
	}
	return rep
}

// planOrder returns the root node ID an operator key "Kind label#N" ends in,
// and whether it has one.
func planOrder(op string) (int, bool) {
	i := strings.LastIndexByte(op, '#')
	if i < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(op[i+1:])
	return n, err == nil
}

// backSolve is the effective per-node bandwidth a measurement implies: a
// cluster-wide total over seconds of wall time, spread over the nodes.
func backSolve(total, seconds float64, nodes int) float64 {
	return total / (float64(max(nodes, 1)) * seconds)
}

// String renders the report as an aligned text table with the back-solved
// bandwidths and a ready-to-paste configuration suggestion.
func (r *Report) String() string {
	var b strings.Builder
	compBW := r.Cluster.CompBandwidth
	fmt.Fprintf(&b, "cost-model calibration: N=%d, configured B̂n=%s, B̂c=%s\n",
		r.Cluster.Nodes, fmtRate(r.Cluster.NetBandwidth, "B/s"), fmtRate(compBW, "flop/s"))
	if len(r.Rows) == 0 {
		b.WriteString("  (no stages recorded)\n")
		return b.String()
	}
	w := 0
	for _, row := range r.Rows {
		if len(row.Op) > w {
			w = len(row.Op)
		}
	}
	fmt.Fprintf(&b, "  %-*s %-11s %5s  %-23s %-23s %-12s %-13s %-13s\n",
		w, "operator", "(P,Q,R)", "runs", "net pred→meas", "comp pred→meas", "time pred→meas", "eff B̂n", "eff B̂c")
	for _, row := range r.Rows {
		pqr := "-"
		if row.P > 0 {
			pqr = fmt.Sprintf("(%d,%d,%d)", row.P, row.Q, row.R)
		}
		fmt.Fprintf(&b, "  %-*s %-11s %5d  %-23s %-23s %-12s %-13s %-13s\n",
			w, row.Op, pqr, row.Executions,
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredNetBytes), "B"), fmtCount(float64(row.Meas.TotalCommBytes()), "B")),
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredComFlops), "fl"), fmtCount(float64(row.Meas.Flops), "fl")),
			fmt.Sprintf("%.3gs→%.3gs", row.PredSeconds, row.Meas.SimSeconds),
			fmtRate(row.EffNetBW, "B/s"), fmtRate(row.EffCompBW, "fl/s"))
	}
	if r.EffNetBW > 0 || r.EffCompBW > 0 {
		b.WriteString("back-solved effective bandwidths:")
		if r.EffNetBW > 0 {
			fmt.Fprintf(&b, " B̂n ≈ %s (x%.2f of configured)", fmtRate(r.EffNetBW, "B/s"), ratio(r.EffNetBW, r.Cluster.NetBandwidth))
		}
		if r.EffCompBW > 0 {
			fmt.Fprintf(&b, " B̂c ≈ %s (x%.2f of configured)", fmtRate(r.EffCompBW, "flop/s"), ratio(r.EffCompBW, compBW))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "feed back with: ClusterConfig{NetBandwidth: %.3g, CompBandwidth: %.3g}\n",
			nonZero(r.EffNetBW, r.Cluster.NetBandwidth), nonZero(r.EffCompBW, compBW))
	}
	if tl := r.TaskLatency; tl != nil && tl.Count > 0 {
		fmt.Fprintf(&b, "task latency: n=%d p50=%.3gs p95=%.3gs p99=%.3gs max=%.3gs\n",
			tl.Count, tl.P50, tl.P95, tl.P99, tl.Max)
	}
	return b.String()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func nonZero(v, fallback float64) float64 {
	if v > 0 {
		return v
	}
	return fallback
}

// fmtRate renders a per-second rate with an SI prefix.
func fmtRate(v float64, unit string) string {
	if v <= 0 {
		return "-"
	}
	return fmtCount(v, unit)
}

// fmtCount renders a count with an SI prefix.
func fmtCount(v float64, unit string) string {
	prefixes := []struct {
		f float64
		p string
	}{{1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "K"}}
	i := sort.Search(len(prefixes), func(i int) bool { return v >= prefixes[i].f })
	if i == len(prefixes) {
		return fmt.Sprintf("%.3g %s", v, unit)
	}
	return fmt.Sprintf("%.3g %s%s", v/prefixes[i].f, prefixes[i].p, unit)
}
