package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fuseme"
	"fuseme/internal/block"
)

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64 // length of the timed phase
	ops      int     // > 0: run exactly this many timed ops per window instead
	trace    bool
	traceOut string
	scale    float64
}

func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// metricDef names one metric of the catalogue. bound is the regression
// bound of an end-to-end metric (0 for per-layer metrics, which have none).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees; every workload reports all of
// them in an untraced run. The three times are in reference seconds (see
// ref.go); the wall seconds behind them are printed beside them. fail_share
// is printed with them but is not in BENCHMARK.json, whose metrics must never
// be 0: there it is failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_s_p50", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_op", "MB", "lower", 0.05},
}

// perLayer is what a traced run reports, layer = module name. Times are
// mean seconds per op unless the name says otherwise.
var perLayer = []metricDef{
	{"lang.parse_s", "s", "lower", 0},
	{"core.compile_s", "s", "lower", 0},
	{"cfg.generate_calls", "count", "lower", 0},
	{"opt.search_calls", "count", "lower", 0},
	{"plancache.lookup_s", "s", "lower", 0},
	{"plancache.hit_ratio", "ratio", "higher", 0},
	{"plancache.entries", "count", "lower", 0},
	{"exec.driver_self_s", "s", "lower", 0},
	{"exec.stages", "count", "lower", 0},
	{"exec.tasks", "count", "lower", 0},
	{"cluster.stage_s", "s", "lower", 0},
	{"cluster.task_busy_s", "s", "lower", 0},
	{"cluster.lane_util", "ratio", "higher", 0},
	{"cluster.dispatch_gap_s", "s", "lower", 0},
	{"cluster.empty_stage_s", "s", "lower", 0},
	{"remote.stage_s", "s", "lower", 0},
	{"remote.fetch_wait_s", "s", "lower", 0},
	{"remote.prefetch_s", "s", "higher", 0},
	{"remote.task_s", "s", "lower", 0},
	{"remote.fetch_calls", "count", "lower", 0},
	{"remote.fetch_serve_s", "s", "lower", 0},
	{"remote.collect_s", "s", "lower", 0},
	{"remote.wire_mb", "MB", "lower", 0},
	{"remote.extra_wire_mb", "MB", "lower", 0},
	{"remote.fetch_mb_s", "MB/s", "higher", 0},
	{"remote.loopback_ceiling_mb_s", "MB/s", "higher", 0},
	{"remote.steal_tasks", "count", "lower", 0},
	{"spec.encode_mb_s", "MB/s", "higher", 0},
	{"spec.decode_mb_s", "MB/s", "higher", 0},
	{"spec.alloc_b_per_wire_b", "ratio", "lower", 0},
	{"matrix.peak_gflops", "GFLOP/s", "higher", 0},
	{"matrix.gemm_gflops", "GFLOP/s", "higher", 0},
	{"matrix.spmm_gflops", "GFLOP/s", "higher", 0},
	{"matrix.masked_gflops", "GFLOP/s", "higher", 0},
	{"matrix.charged_gflop", "GFLOP", "lower", 0},
	{"blockcache.hits", "count", "higher", 0},
	{"blockcache.saved_mb", "MB", "higher", 0},
	{"serve.queue_s_p50", "s", "lower", 0},
	{"serve.exec_s_p50", "s", "lower", 0},
	{"serve.http_self_s_p50", "s", "lower", 0},
	{"serve.op_s_p99", "s", "lower", 0},
	{"serve.hot_kernel_s_p50", "s", "lower", 0},
	{"serve.cold_shape_s_p50", "s", "lower", 0},
	{"serve.inline_io_s_p50", "s", "lower", 0},
	{"serve.rejected", "count", "lower", 0},
	{"session.residual_s", "s", "lower", 0},
	{"go.peak_rss_mb", "MB", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"go.num_gc", "count", "lower", 0},
}

// result is what one run reports.
type result struct {
	attempted, failed int
	correct           bool
	values            map[string]float64 // metric name -> value
	samples           int                // timed ops behind op_s_p50
	digested          bool               // digest and exact are set
	digest            digest             // outputs of the first timed op
	exact             exact              // counters of the first timed op
	notes             []string
}

// fail marks the output check as failed: every op counts as failed.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "CHECK FAILED: "+fmt.Sprintf(format, args...))
}

// finish applies the rule that a failed output check fails every op.
func (r *result) finish() {
	if !r.correct {
		r.failed = r.attempted
	}
}

// rounds is how many times an untraced run sets the system up. Each set-up
// is followed by a timed window of a third of -seconds on that system, so
// setup_s is a median of three and every round must reproduce the first
// round's digest and counters.
const rounds = 3

// add folds another timed window into lr.
func (lr *loopResult) add(o loopResult) {
	lr.lat = append(lr.lat, o.lat...)
	lr.attempted += o.attempted
	lr.failed += o.failed
	lr.wall += o.wall
	lr.allocB += o.allocB
	lr.numGC += o.numGC
	lr.ref.add(o.ref)
}

// runRounds is the untraced run: rounds times, round sets the system up
// (returning how long that took) and measures one timed window on it, cut
// into slices by the reference kernel k.
func runRounds(o options, r *result, round func(window time.Duration, k *refKernel) (setup time.Duration, lr loopResult, err error)) error {
	var setups, setupWalls []float64
	var total loopResult
	k, err := newRefKernel()
	if err != nil {
		return err
	}
	defer k.close()
	for i := 0; i < rounds; i++ {
		before := k.run()
		setup, lr, err := round(o.budget()/rounds, k)
		if err != nil {
			return err
		}
		// The timed window opens with a kernel run: the one after the set-up.
		setups = append(setups, refSeconds(setup, (before+lr.ref.times[0])/2))
		setupWalls = append(setupWalls, setup.Seconds())
		total.add(lr)
	}
	ops := len(total.lat)
	r.attempted, r.failed, r.samples = total.attempted, total.failed, ops
	if ops == 0 {
		r.fail("no op succeeded")
		return nil
	}
	r.values["setup_s"] = median(setups)
	r.values["op_s_p50"] = median(total.ref.lat)
	r.values["ops_per_s"] = float64(ops) / total.ref.wall
	r.values["alloc_mb_per_op"] = float64(total.allocB) / 1e6 / float64(ops)
	kernel := median(seconds(total.ref.times))
	r.notes = append(r.notes, fmt.Sprintf("times are in reference seconds (wall x nominal / reference kernel); wall: setup_s %.6f s, op_s_p50 %.6f s, ops_per_s %.6f 1/s; reference kernel %.6f s (n=%d), nominal %g s: machine at %.2fx nominal speed",
		median(setupWalls), median(seconds(total.lat)), float64(ops)/total.wall.Seconds(), kernel, len(total.ref.times), refNominal.Seconds(), refNominal.Seconds()/kernel))
	return nil
}

// sameAcrossRounds checks that a round reproduced the first round's digest
// and exact counters: every round starts from the same seeded state.
func (r *result) sameAcrossRounds(d digest, x exact) {
	switch {
	case !d.finite():
		r.fail("non-finite outputs (%v)", d)
	case !r.digested:
		r.digest, r.exact, r.digested = d, x, true
	case !r.digest.agrees(d) || r.exact != x:
		r.fail("rounds disagree: digest %v {%v}, then %v {%v}", r.digest, r.exact, d, x)
	}
}

// run is the untraced run of a batch workload: public API only, every
// option at its default, tracing off.
func (sp *batchSpec) run(o options) (*result, error) {
	r := &result{correct: true, values: map[string]float64{}}
	err := runRounds(o, r, func(window time.Duration, k *refKernel) (time.Duration, loopResult, error) {
		start := time.Now()
		if err := sp.checkTwin(o.scale, o.seed, nil); err != nil {
			r.fail("%v", err)
		}
		e, err := sp.setup(o.scale, sp.blockSize, o.seed, nil)
		if err != nil {
			return 0, loopResult{}, err
		}
		defer e.close()
		for w := 0; w < sp.warm; w++ {
			if _, err := e.sessionOp(w); err != nil {
				return 0, loopResult{}, fmt.Errorf("warm-up op %d: %w", w, err)
			}
		}
		setup := time.Since(start)

		var first, last map[string]*fuseme.Matrix
		var firstExact exact
		lr := timedLoop(o.ops, window, k, func(i int) error {
			out, err := e.sessionOp(sp.warm + i)
			if err != nil {
				return err
			}
			if first == nil {
				first, firstExact = out, exactOfPublic(e.sess.LastStats())
			}
			last = out
			return nil
		})
		if first == nil {
			return setup, lr, nil
		}
		d, err := e.digestPublic(first)
		if err != nil {
			return 0, lr, err
		}
		r.sameAcrossRounds(d, firstExact)
		if final, err := e.digestPublic(last); err != nil {
			return 0, lr, err
		} else if !final.finite() {
			r.fail("non-finite outputs after the last op (%v)", final)
		}
		return setup, lr, nil
	})
	r.finish()
	return r, err
}

// runTraced is the traced run of a batch workload: untraced Session.Query
// ops (the reference) alternated with the same ops hand-walked on the
// decorated runtime, then the probes. Both paths start from identical
// inputs, so the first timed op of each must produce the same digest and
// exact counters.
func (sp *batchSpec) runTraced(o options) (*result, error) {
	r := &result{correct: true, values: map[string]float64{}}
	tr := newTracer()
	if err := sp.checkTwin(o.scale, o.seed, tr); err != nil {
		r.fail("%v", err)
	}
	tr = newTracer() // drop the twin's spans
	e, err := sp.setup(o.scale, sp.blockSize, o.seed, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// Warm both paths, then alternate one untraced Session.Query op (the
	// reference) with the same op made by hand, so that drift in the
	// machine's speed hits both alike.
	for w := 0; w < sp.warm; w++ {
		if _, err := e.sessionOp(w); err != nil {
			return nil, fmt.Errorf("warm-up op %d: %w", w, err)
		}
		if _, err := e.walkOp(w); err != nil {
			return nil, fmt.Errorf("hand-walk warm-up op %d: %w", w, err)
		}
	}
	firstOp := e.walk.ops + 1
	var refFirst map[string]*fuseme.Matrix
	var refExact exact
	var first, last map[string]*block.Matrix
	var refLat, walkLat []time.Duration
	lr := timedLoop(o.ops, o.budget()*3/4, nil, func(i int) error {
		t := time.Now()
		ref, err := e.sessionOp(sp.warm + i)
		if err != nil {
			return err
		}
		refLat = append(refLat, time.Since(t))
		t = time.Now()
		out, err := e.walkOp(sp.warm + i)
		if err != nil {
			return err
		}
		walkLat = append(walkLat, time.Since(t))
		if first == nil {
			first, refFirst, refExact = out, ref, exactOfPublic(e.sess.LastStats())
		}
		last = out
		return nil
	})
	r.attempted, r.failed, r.samples = lr.attempted, lr.failed, len(walkLat)
	if first == nil {
		r.fail("no op succeeded")
		r.finish()
		return r, nil
	}

	// The timed ops' spans and records, before the digest queries add more.
	spans := timedSpans(tr.spans, firstOp)
	recs := e.walk.recs[firstOp-1:]

	r.exact = exactOfInternal(recs[0].stats)
	if r.digest, err = e.digestWalk(first); err != nil {
		return nil, err
	}
	final, err := e.digestWalk(last)
	if err != nil {
		return nil, err
	}
	refDigest, err := e.digestPublic(refFirst)
	if err != nil {
		return nil, err
	}
	if !r.digest.agrees(refDigest) {
		r.fail("hand-walk digest %v differs from Session.Query digest %v", r.digest, refDigest)
	}
	if r.exact != refExact {
		r.fail("hand-walk counters {%v} differ from Session.Query counters {%v}", r.exact, refExact)
	}
	if !r.digest.finite() || !final.finite() {
		r.fail("non-finite outputs (first op %v, last op %v)", r.digest, final)
	}

	layerValues(r.values, spans, assignLanes(spans), recs, sp.tcp)
	r.values["session.residual_s"] = median(seconds(refLat)) - median(layerSums(spans))
	goValues(r.values, lr)
	probeValues(r.values, e.walk.inputs, sp.blockSize)
	r.notes = append(r.notes,
		fmt.Sprintf("%d untraced reference ops alternated with %d hand-walked ops: op_s_p50 %.6f s untraced, %.6f s traced",
			len(refLat), len(walkLat), median(seconds(refLat)), median(seconds(walkLat))))
	if err := writeTrace(o, r, spans, len(walkLat)); err != nil {
		return nil, err
	}
	r.finish()
	return r, nil
}

// timedSpans drops the warm-up ops' spans (op < firstOp).
func timedSpans(spans []span, firstOp int) []span {
	var out []span
	for _, s := range spans {
		if s.op >= firstOp {
			out = append(out, s)
		}
	}
	return out
}

// writeTrace writes the Chrome trace and prints the self-time table.
func writeTrace(o options, r *result, spans []span, ops int) error {
	path := o.traceOut
	if path == "" {
		path = fmt.Sprintf("trace-%s.json", o.workload)
	}
	if err := writeChromeTrace(path, spans); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	var table strings.Builder
	writeSelfTimeTable(&table, spans, ops)
	r.notes = append(r.notes, fmt.Sprintf("chrome trace: %s (%d spans)", path, len(spans)), strings.TrimSpace(table.String()))
	return nil
}

// layerSums returns, per op, the sum of its layer spans (everything directly
// under the op span): what the op costs without the session glue.
func layerSums(spans []span) []float64 {
	sums := map[int]float64{}
	for _, s := range spans {
		switch s.cat {
		case catParse, catLookup, catCompile, catExecute:
			sums[s.op] += s.dur().Seconds()
		}
	}
	out := make([]float64, 0, len(sums))
	for _, v := range sums {
		out = append(out, v)
	}
	return out
}

// layerValues derives the span- and counter-based per-layer metrics of the
// timed ops, as means per op, from their spans, each stage's busiest-lane
// time (assignLanes) and the ops' records.
func layerValues(v map[string]float64, spans []span, longest map[int]time.Duration, recs []opRecord, tcp bool) {
	ops := float64(len(recs))
	if ops == 0 {
		return
	}
	var parse, lookup, compile, execute, stage, rstage, task, fetch, collect, gap time.Duration
	var fetchCalls float64
	for _, s := range spans {
		switch s.cat {
		case catParse:
			parse += s.dur()
		case catLookup:
			if s.name == "lookup" {
				lookup += s.dur()
			}
		case catCompile:
			compile += s.dur()
		case catExecute:
			execute += s.dur()
		case catStage:
			stage += s.dur()
			gap += s.dur() - longest[s.id]
		case catRStage:
			rstage += s.dur()
		case catTask:
			task += s.dur()
		case catFetch:
			fetch += s.dur()
			fetchCalls++
		case catCollect:
			collect += s.dur()
		}
	}
	per := func(d time.Duration) float64 { return d.Seconds() / ops }
	v["lang.parse_s"] = per(parse)
	v["plancache.lookup_s"] = per(lookup)
	v["core.compile_s"] = per(compile)
	v["exec.driver_self_s"] = per(execute - stage - rstage)
	v["cluster.stage_s"] = per(stage)
	v["cluster.task_busy_s"] = per(task)
	if stage > 0 {
		v["cluster.lane_util"] = task.Seconds() / (stage.Seconds() * benchNodes * benchTasksPerNode)
	}
	v["cluster.dispatch_gap_s"] = per(gap)
	v["remote.stage_s"] = per(rstage)
	v["remote.fetch_calls"] = fetchCalls / ops
	v["remote.fetch_serve_s"] = per(fetch)
	v["remote.collect_s"] = per(collect)

	var gen, search, stages, tasks, flops, wire, extra, steals, hits, saved int64
	var fetchWait, prefetch, taskS float64
	for _, rec := range recs {
		st := rec.stats
		gen += rec.genCalls
		search += rec.searchCalls
		stages += int64(st.Stages)
		tasks += int64(st.Tasks)
		flops += st.Flops
		wire += st.TotalCommBytes() + st.ExtraWireBytes
		extra += st.ExtraWireBytes
		steals += st.StealTasks
		hits += st.CacheHits
		saved += st.CacheSavedBytes
		fetchWait += st.FetchSeconds
		prefetch += st.PrefetchSeconds
		taskS += st.TaskSeconds
	}
	v["cfg.generate_calls"] = float64(gen) / ops
	v["opt.search_calls"] = float64(search) / ops
	v["exec.stages"] = float64(stages) / ops
	v["exec.tasks"] = float64(tasks) / ops
	v["matrix.charged_gflop"] = float64(flops) / 1e9 / ops
	v["blockcache.hits"] = float64(hits) / ops
	v["blockcache.saved_mb"] = float64(saved) / 1e6 / ops
	if tcp {
		// Under simulation the byte counters are the modelled communication
		// cost, not wire traffic, so they are reported for TCP only.
		v["remote.wire_mb"] = float64(wire) / 1e6 / ops
		v["remote.extra_wire_mb"] = float64(extra) / 1e6 / ops
		v["remote.fetch_wait_s"] = fetchWait / ops
		v["remote.prefetch_s"] = prefetch / ops
		v["remote.task_s"] = taskS / ops
		v["remote.steal_tasks"] = float64(steals) / ops
		if fetchWait > 0 {
			v["remote.fetch_mb_s"] = float64(wire) / 1e6 / fetchWait
		}
	}
}

// goValues reports the Go runtime's view of the traced phase.
func goValues(v map[string]float64, lr loopResult) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	v["go.gc_cpu_frac"] = m.GCCPUFraction
	v["go.num_gc"] = float64(lr.numGC)
	v["go.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark (Linux); 0
// where /proc is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
