package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// StagePred is one fused operator's compile-time cost prediction: the
// optimizer's NetEst/ComEst/MemEst at the chosen (P,Q,R). Keyed by Op, the
// operator's display key; repeated predictions for the same key (iterative
// workloads re-planning the same operator) overwrite.
type StagePred struct {
	Op       string // operator key, e.g. "CFO mul#12"
	Kind     string // CFO, RFO, BFO, CuboidMM, Map, MultiAgg, ...
	P, Q, R  int
	NetBytes int64 // predicted cluster-wide network traffic
	ComFlops int64 // predicted cluster-wide floating-point work
	MemBytes int64 // predicted per-task memory
}

// StageMeas is one executed stage's measurement. Several stages (and several
// executions, in iterative workloads) may map to one operator key; the report
// sums them.
type StageMeas struct {
	Stage              string // stage name, e.g. "partial:mul#12"
	Op                 string // operator key joining to StagePred.Op
	Tasks              int
	ConsolidationBytes int64
	AggregationBytes   int64
	ExtraWireBytes     int64
	Flops              int64
	PeakTaskMemBytes   int64
	WallSeconds        float64
}

// NetBytes is the measured traffic comparable to the predicted NetEst:
// consolidation plus aggregation, excluding unmodelled extra wire bytes.
func (m StageMeas) NetBytes() int64 { return m.ConsolidationBytes + m.AggregationBytes }

// Calibration accumulates predictions and measurements across a run. Safe
// for concurrent use; a nil *Calibration absorbs every call. It holds one
// record per operator key plus one name per distinct (operator, stage) pair —
// never one per measurement, so an always-on store (every Session arms one,
// the serve daemon pools sessions for the process lifetime) stays bounded by
// the number of plan shapes, not by the number of queries.
type Calibration struct {
	mu    sync.Mutex
	order []string             // predicted operator keys in first-predicted order
	preds map[string]StagePred // by operator key
	meas  []string             // measured operator keys in first-measured order
	sums  map[string]*opSums   // by operator key
}

// opSums is one operator's measurements, folded as they arrive.
type opSums struct {
	stages      int // stage executions measured
	tasks       int
	netBytes    int64
	extraBytes  int64
	flops       int64
	peakMem     int64
	wallSeconds float64
	stageNames  map[string]struct{} // distinct stage names, to count executions
}

// NewCalibration returns an empty store.
func NewCalibration() *Calibration {
	return &Calibration{preds: map[string]StagePred{}, sums: map[string]*opSums{}}
}

// Predict records (or refreshes) an operator's prediction.
func (c *Calibration) Predict(p StagePred) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if _, seen := c.preds[p.Op]; !seen {
		c.order = append(c.order, p.Op)
	}
	c.preds[p.Op] = p
	c.mu.Unlock()
}

// Measure folds one stage execution into its operator's sums.
func (c *Calibration) Measure(m StageMeas) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sums[m.Op]
	if s == nil {
		s = &opSums{stageNames: map[string]struct{}{}}
		c.sums[m.Op] = s
		c.meas = append(c.meas, m.Op)
	}
	s.stages++
	s.tasks += m.Tasks
	s.netBytes += m.NetBytes()
	s.extraBytes += m.ExtraWireBytes
	s.flops += m.Flops
	s.wallSeconds += m.WallSeconds
	if m.PeakTaskMemBytes > s.peakMem {
		s.peakMem = m.PeakTaskMemBytes
	}
	s.stageNames[m.Stage] = struct{}{}
}

// Prediction returns the recorded prediction for an operator key.
func (c *Calibration) Prediction(op string) (StagePred, bool) {
	if c == nil {
		return StagePred{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.preds[op]
	return p, ok
}

// CalibrationFromFlight rebuilds a calibration store from flight-recorder
// records, so Report can be produced offline from a -flight-out file — the
// feedback loop that lets calibration consume real distributed measurements
// instead of only the live session's.
func CalibrationFromFlight(recs []FlightRecord) *Calibration {
	c := NewCalibration()
	for _, r := range recs {
		if _, seen := c.preds[r.Op]; !seen {
			c.Predict(StagePred{
				Op: r.Op, Kind: r.Kind, P: r.P, Q: r.Q, R: r.R,
				NetBytes: r.PredNetBytes, ComFlops: r.PredComFlops, MemBytes: r.PredMemBytes,
			})
		}
		c.Measure(StageMeas{
			Stage:              r.Stage,
			Op:                 r.Op,
			Tasks:              r.Tasks,
			ConsolidationBytes: r.MeasConsolidationBytes,
			AggregationBytes:   r.MeasAggregationBytes,
			ExtraWireBytes:     r.MeasExtraWireBytes,
			Flops:              r.MeasFlops,
			PeakTaskMemBytes:   r.MeasPeakTaskMemBytes,
			WallSeconds:        r.MeasWallSeconds,
		})
	}
	return c
}

// Reset discards accumulated records.
func (c *Calibration) Reset() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.order = nil
	c.preds = map[string]StagePred{}
	c.meas = nil
	c.sums = map[string]*opSums{}
	c.mu.Unlock()
}

// OpTotal is one operator's cumulative measurement since the store was
// created or last Reset: how many stage executions were measured and their
// summed wall seconds.
type OpTotal struct {
	Stages      int
	WallSeconds float64
}

// OpTotals snapshots the cumulative per-operator totals. Two snapshots diff
// into the measurements taken between them (core.Replanner's divergence
// window).
func (c *Calibration) OpTotals() map[string]OpTotal {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]OpTotal, len(c.sums))
	for op, s := range c.sums {
		out[op] = OpTotal{Stages: s.stages, WallSeconds: s.wallSeconds}
	}
	return out
}

// ClusterModel carries the configured Eq. 2 constants the report compares
// measurements against.
type ClusterModel struct {
	Nodes         int
	NetBandwidth  float64 // configured B̂n, bytes/s per node
	CompBandwidth float64 // configured B̂c, flop/s per node
}

// ReportRow joins one operator's prediction with its summed measurements.
type ReportRow struct {
	Op      string
	Kind    string
	P, Q, R int

	Stages, Tasks int
	Executions    int // how many times the operator ran (iterative workloads)

	PredNetBytes, MeasNetBytes   int64
	ExtraWireBytes               int64
	PredComFlops, MeasFlops      int64
	PredMemBytes, MeasPeakMem    int64
	PredSeconds, MeasWallSeconds float64 // predicted Eq. 2 time vs measured wall

	EffNetBW  float64 // measured net / (N * wall); 0 when wall is 0
	EffCompBW float64 // measured flops / (N * wall)
}

// Report is the calibration result: per-operator rows plus back-solved
// effective bandwidths.
type Report struct {
	Model ClusterModel
	Rows  []ReportRow

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

// Report joins predictions and measurements. Operators appear in
// first-predicted order; stages without a prediction (in-process bookkeeping
// stages) follow, grouped under their own key with zero predictions.
func (c *Calibration) Report(m ClusterModel) *Report {
	rep := &Report{Model: m}
	if c == nil {
		return rep
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	n := float64(m.Nodes)
	if n <= 0 {
		n = 1
	}
	// Predicted operators first, then operators only ever measured.
	order := append([]string(nil), c.order...)
	for _, op := range c.meas {
		if _, predicted := c.preds[op]; !predicted {
			order = append(order, op)
		}
	}
	var netBytes, netWall, comFlops, comWall float64
	for _, key := range order {
		p := c.preds[key] // zero for stages that ran without a prediction
		row := ReportRow{Op: key, Kind: p.Kind, P: p.P, Q: p.Q, R: p.R,
			PredNetBytes: p.NetBytes, PredComFlops: p.ComFlops, PredMemBytes: p.MemBytes}
		if s := c.sums[key]; s != nil {
			row.Stages, row.Tasks = s.stages, s.tasks
			row.MeasNetBytes, row.ExtraWireBytes = s.netBytes, s.extraBytes
			row.MeasFlops, row.MeasPeakMem = s.flops, s.peakMem
			row.MeasWallSeconds = s.wallSeconds
			// Executions ≈ total stage records / distinct stage names.
			row.Executions = s.stages / len(s.stageNames)
		}
		execs := row.Executions
		if execs < 1 {
			execs = 1
		}
		// Predictions are per execution; scale to the number of runs so the
		// pred/meas columns compare like with like.
		row.PredNetBytes *= int64(execs)
		row.PredComFlops *= int64(execs)
		var netSec, comSec float64
		if m.NetBandwidth > 0 {
			netSec = float64(row.PredNetBytes) / (n * m.NetBandwidth)
		}
		if m.CompBandwidth > 0 {
			comSec = float64(row.PredComFlops) / (n * m.CompBandwidth)
		}
		row.PredSeconds = netSec
		if comSec > netSec {
			row.PredSeconds = comSec
		}
		if row.MeasWallSeconds > 0 {
			row.EffNetBW = float64(row.MeasNetBytes) / (n * row.MeasWallSeconds)
			row.EffCompBW = float64(row.MeasFlops) / (n * row.MeasWallSeconds)
			// Eq. 2 takes the max of the two terms, so the measured wall time
			// of a stage reflects whichever resource bound it: attribute the
			// row to that class when back-solving.
			if netSec >= comSec && row.MeasNetBytes > 0 {
				netBytes += float64(row.MeasNetBytes)
				netWall += row.MeasWallSeconds
			} else if row.MeasFlops > 0 {
				comFlops += float64(row.MeasFlops)
				comWall += row.MeasWallSeconds
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	if netWall > 0 {
		rep.EffNetBW = netBytes / (n * netWall)
	}
	if comWall > 0 {
		rep.EffCompBW = comFlops / (n * comWall)
	}
	return rep
}

// String renders the report as an aligned text table with the back-solved
// bandwidths and a ready-to-paste configuration suggestion.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cost-model calibration: N=%d, configured B̂n=%s, B̂c=%s\n",
		r.Model.Nodes, fmtRate(r.Model.NetBandwidth, "B/s"), fmtRate(r.Model.CompBandwidth, "flop/s"))
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
		execs := row.Executions
		if execs < 1 {
			execs = 1
		}
		fmt.Fprintf(&b, "  %-*s %-11s %5d  %-23s %-23s %-12s %-13s %-13s\n",
			w, row.Op, pqr, execs,
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredNetBytes), "B"), fmtCount(float64(row.MeasNetBytes), "B")),
			fmt.Sprintf("%s→%s", fmtCount(float64(row.PredComFlops), "fl"), fmtCount(float64(row.MeasFlops), "fl")),
			fmt.Sprintf("%.3gs→%.3gs", row.PredSeconds, row.MeasWallSeconds),
			fmtRate(row.EffNetBW, "B/s"), fmtRate(row.EffCompBW, "fl/s"))
	}
	if r.EffNetBW > 0 || r.EffCompBW > 0 {
		b.WriteString("back-solved effective bandwidths:")
		if r.EffNetBW > 0 {
			fmt.Fprintf(&b, " B̂n ≈ %s (x%.2f of configured)", fmtRate(r.EffNetBW, "B/s"), ratio(r.EffNetBW, r.Model.NetBandwidth))
		}
		if r.EffCompBW > 0 {
			fmt.Fprintf(&b, " B̂c ≈ %s (x%.2f of configured)", fmtRate(r.EffCompBW, "flop/s"), ratio(r.EffCompBW, r.Model.CompBandwidth))
		}
		b.WriteString("\n")
		fmt.Fprintf(&b, "feed back with: ClusterConfig{NetBandwidth: %.3g, CompBandwidth: %.3g}\n",
			nonZero(r.EffNetBW, r.Model.NetBandwidth), nonZero(r.EffCompBW, r.Model.CompBandwidth))
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
