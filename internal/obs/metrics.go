package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fuseme/internal/parallel"
)

// Registry holds named counters, gauges and histograms. Metric names follow
// Prometheus conventions and may embed a label set, as in
// `fuseme_wire_bytes_total{class="consolidation"}`; the exposition groups
// series of one base name under a single TYPE line. It also keeps the
// per-worker slowdown history behind the fuseme_worker_slowdown gauges
// (Fold). Safe for concurrent use; a nil *Registry absorbs every call.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	skewMu sync.Mutex      // guards ewma; taken before mu, never after
	ewma   map[int]float64 // per-worker EWMA mean task seconds, under skewMu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge value atomically: no concurrent addition is lost.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for old := g.bits.Load(); !g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)); old = g.bits.Load() {
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// durationBuckets are the upper bounds (seconds) of the shared latency
// histogram layout: 100µs to 60s, roughly geometric.
var durationBuckets = []float64{
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram is a fixed-bucket histogram of durations, observed in seconds.
// It sums whole nanoseconds, so its sum does not depend on the order values
// are observed in: a registry replayed from a journal (Replay) equals the
// live one bit for bit.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64 // upper bucket bounds, ascending
	counts   []int64   // len(bounds)+1; last is the +Inf bucket
	count    int64
	sumNanos int64
	max      float64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sumNanos += int64(math.Round(v * 1e9))
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// sumSeconds is the sum of the observations, in seconds.
func (h *Histogram) sumSeconds() float64 { return float64(h.sumNanos) / 1e9 }

// HistogramSnapshot summarises a histogram for the JSON endpoint, including
// estimated p50/p95/p99 quantiles (linear interpolation within buckets).
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) of the observed values by
// linear interpolation within the bucket containing the target rank,
// Prometheus histogram_quantile-style. Observations falling in the +Inf
// bucket resolve to the observed max; every estimate is clamped to the max
// so sparse tails can't report a bucket bound no observation reached.
// Returns 0 when empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.count)
	var cum int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket
			return h.max
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		v := lo + (h.bounds[i]-lo)*(rank-float64(prev))/float64(c)
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

// Snapshot summarises the histogram: count, sum, mean, max and estimated
// p50/p95/p99. The zero snapshot is returned on nil.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return h.snapshot()
}

func (h *Histogram) snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sumSeconds(), Max: h.max}
	if h.count > 0 {
		s.Mean = s.Sum / float64(h.count)
		s.P50 = h.quantileLocked(0.50)
		s.P95 = h.quantileLocked(0.95)
		s.P99 = h.quantileLocked(0.99)
	}
	return s
}

// Fold folds one event into the registry as it is emitted (Obs.StageDone,
// Obs.TaskDone) or replayed (Replay): a stage_end adds its flight record's
// measurement to the stage series and publishes its skew (the straggler
// gauges); a task event's first part counts the attempt and observes its
// queue wait and latency, timed on the wall clock (wallSeconds): a journal
// read back carries no other, so a live registry and a replayed one observe
// the same values. Other events change nothing.
func (r *Registry) Fold(e *Event) {
	if r == nil {
		return
	}
	switch {
	case e.Type == EvStageEnd && e.Flight != nil:
		m := &e.Flight.Meas
		r.Counter(MStagesTotal).Inc()
		r.Counter(MConsolidationBytes).Add(m.ConsolidationBytes)
		r.Counter(MAggregationBytes).Add(m.AggregationBytes)
		r.Counter(MExtraBytes).Add(m.ExtraWireBytes)
		r.Counter(MFlopsTotal).Add(m.Flops)
		r.Counter(MStealTasks).Add(m.StealTasks)
		if e.Skew != nil {
			r.observeSkew(e)
		}
	case e.Type == EvTask && e.Task != nil && e.Part == 0:
		t := e.Task
		r.Histogram(MQueueSeconds).Observe(wallSeconds(t.StageStart, t.Start))
		r.Histogram(MTaskSeconds).Observe(wallSeconds(t.Start, t.End))
		r.Counter(MTasksTotal).Inc()
		if t.Remote {
			r.Counter(MRemoteTasksTotal).Inc()
		}
	}
}

// wallSeconds is the wall-clock time from a to b, without their monotonic
// readings, and zero where the wall clock stepped back between them.
func wallSeconds(a, b time.Time) float64 {
	return max(b.Round(0).Sub(a.Round(0)).Seconds(), 0)
}

// PublishKernelPool publishes what the process-local kernel pool p did since
// its last report (parallel.Pool.Unreported); a nil registry leaves it.
func (r *Registry) PublishKernelPool(p *parallel.Pool) {
	if r == nil {
		return
	}
	delta, threads := p.Unreported()
	r.Gauge(MKernelThreads).Set(float64(threads))
	r.Counter(MKernelParallelCalls).Add(delta.ParallelCalls)
	r.Counter(MKernelSerialCalls).Add(delta.SerialCalls)
	r.Counter(MKernelHelperRuns).Add(delta.HelperRuns)
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// shared duration bucket layout.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = newHistogram(durationBuckets)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every counter and histogram (series survive; gauges keep
// their last value so liveness indicators don't blink out) and forgets every
// worker's slowdown history.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.skewMu.Lock()
	r.ewma = nil
	r.skewMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, h := range r.hists {
		h.mu.Lock()
		h.counts = make([]int64, len(h.bounds)+1)
		h.count, h.sumNanos, h.max = 0, 0, 0
		h.mu.Unlock()
	}
}

// Snapshot is a point-in-time JSON view of the registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all current metric values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// baseName strips a label set from a metric name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	var b strings.Builder
	typed := map[string]bool{}
	for _, name := range sortedKeys(counters) {
		if base := baseName(name); !typed[base] {
			fmt.Fprintf(&b, "# TYPE %s counter\n", base)
			typed[base] = true
		}
		fmt.Fprintf(&b, "%s %d\n", name, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		if base := baseName(name); !typed[base] {
			fmt.Fprintf(&b, "# TYPE %s gauge\n", base)
			typed[base] = true
		}
		fmt.Fprintf(&b, "%s %g\n", name, gauges[name].Value())
	}
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		// A labeled series ("base{tenant=\"x\"}") renders with the suffix
		// spliced before the label set: base_bucket{tenant="x",le="..."}.
		base, labels := baseName(name), ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			labels = strings.TrimSuffix(name[i+1:], "}")
		}
		series := func(suffix, extra string) string {
			switch {
			case labels == "" && extra == "":
				return base + suffix
			case labels == "":
				return base + suffix + "{" + extra + "}"
			case extra == "":
				return base + suffix + "{" + labels + "}"
			default:
				return base + suffix + "{" + labels + "," + extra + "}"
			}
		}
		h.mu.Lock()
		if !typed[base] {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
			typed[base] = true
		}
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s %d\n", series("_bucket", fmt.Sprintf("le=%q", fmt.Sprintf("%g", bound))), cum)
		}
		fmt.Fprintf(&b, "%s %d\n", series("_bucket", `le="+Inf"`), h.count)
		fmt.Fprintf(&b, "%s %g\n", series("_sum", ""), h.sumSeconds())
		fmt.Fprintf(&b, "%s %d\n", series("_count", ""), h.count)
		h.mu.Unlock()
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
