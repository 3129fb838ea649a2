package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloads runs every workload at -scale 0.05 for two ops, untraced
// and traced: the output check passes, every named metric is emitted with
// its unit, the traced run leaves a loadable Chrome trace, and the traced and
// untraced run of one seed agree on the result digest and exact counters.
func TestWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var results [2]*result
			for i, traced := range []bool{false, true} {
				o := options{workload: name, seed: 7, seconds: 1, ops: 2, scale: 0.05, trace: traced,
					traceOut: filepath.Join(dir, name+".json")}
				r, err := runOne(o)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				results[i] = r
				if !r.correct || r.failed != 0 || r.attempted == 0 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d notes=%q", traced, r.correct, r.attempted, r.failed, r.notes)
				}
				var out bytes.Buffer
				report(&out, o, r)
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var line outputLine
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					t.Fatalf("trace=%v: last line is not the result object: %v", traced, err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, catalogue has %d", traced, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("trace=%v: metric %s: emitted %v (present=%v), want unit %q", traced, d.name, m, ok, d.unit)
					}
					if !traced && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
					}
				}
			}
			if !results[0].digest.agrees(results[1].digest) {
				t.Errorf("result_digest: untraced %v, traced %v", results[0].digest, results[1].digest)
			}
			if results[0].exact != results[1].exact {
				t.Errorf("exact counters: untraced {%v}, traced {%v}", results[0].exact, results[1].exact)
			}
			data, err := os.ReadFile(filepath.Join(dir, name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("chrome trace: %d events, err %v", len(trace.TraceEvents), err)
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in this package
// from drifting apart: same workloads, same metrics, units and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, catalogue %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// TestReferenceSeconds: a time is reported relative to the kernel time
// measured around it, and a timed loop with a kernel converts every op.
func TestReferenceSeconds(t *testing.T) {
	for _, kernel := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
		if got, want := refSeconds(3*kernel, kernel), 3*refNominal.Seconds(); math.Abs(got-want) > 1e-12 {
			t.Errorf("refSeconds(3 x %v, %v) = %v, want %v", kernel, kernel, got, want)
		}
	}
	k, err := newRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	defer k.close()
	sink := 0.0
	lr := timedLoop(40, 0, k, func(i int) error {
		for j := 0; j < 1000; j++ {
			sink += math.Sqrt(float64(i + j))
		}
		return nil
	})
	if len(lr.lat) != 40 || len(lr.ref.lat) != 40 || !(lr.ref.wall > 0) || len(lr.ref.times) < 2 {
		t.Errorf("timed loop: %d ops, %d in reference seconds, reference wall %v, %d kernel runs",
			len(lr.lat), len(lr.ref.lat), lr.ref.wall, len(lr.ref.times))
	}
	_ = sink
}
