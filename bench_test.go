// Benchmarks regenerating the paper's evaluation: one benchmark per table
// and figure (running the simulated experiment at full paper scale), plus
// real-execution benchmarks that run the same workloads with actual
// arithmetic at laptop scale so the engine comparison is also measured in
// wall-clock time.
//
// Run everything with:
//
//	go test -bench=. -benchmem
package fuseme_test

import (
	"io"
	"net"
	"reflect"
	"testing"

	"fuseme"
	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/experiments"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
	"fuseme/internal/workloads"
)

// benchExperiment runs one experiment harness end to end per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables produced")
		}
	}
}

func BenchmarkTable1(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable3(b *testing.B)    { benchExperiment(b, "table3") }
func BenchmarkFig12a(b *testing.B)    { benchExperiment(b, "fig12a") }
func BenchmarkFig12b(b *testing.B)    { benchExperiment(b, "fig12b") }
func BenchmarkFig12c(b *testing.B)    { benchExperiment(b, "fig12c") }
func BenchmarkFig12d(b *testing.B)    { benchExperiment(b, "fig12d") }
func BenchmarkFig13(b *testing.B)     { benchExperiment(b, "fig13") }
func BenchmarkFig13d(b *testing.B)    { benchExperiment(b, "fig13d") }
func BenchmarkFig14(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkGNMFPlans(b *testing.B) { benchExperiment(b, "plans") }

// realCluster is the laptop-scale cluster used by real-execution benches.
func realCluster() *cluster.Cluster {
	return cluster.MustNew(cluster.Config{
		Nodes: 2, TasksPerNode: 4, TaskMemBytes: 4 << 30,
		NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 128,
	})
}

// BenchmarkRealNMFKernel runs the Figure 12 query with real arithmetic
// (2000x2000, d=0.01) on each engine.
func BenchmarkRealNMFKernel(b *testing.B) {
	const n, k = 2000, 64
	g := workloads.NMFKernel(n, n, k, 0.01)
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(n, n, 128, 0.01, 1, 5, 1),
		"U": block.RandomDense(n, k, 128, 0, 1, 2),
		"V": block.RandomDense(n, k, 128, 0, 1, 3),
	}
	for _, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}} {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl := realCluster()
				if _, _, err := core.Run(e, g, cl, inputs); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cl.Stats().TotalCommBytes()), "commBytes")
			}
		})
	}
}

// BenchmarkRealGNMFIteration runs one GNMF iteration with real arithmetic
// on each engine (Figure 14 at laptop scale).
func BenchmarkRealGNMFIteration(b *testing.B) {
	const users, items, k = 1500, 1000, 32
	x := block.RandomDense(users, items, 128, 1, 5, 1)
	u := block.RandomDense(k, items, 128, 0.2, 0.8, 2)
	v := block.RandomDense(users, k, 128, 0.2, 0.8, 3)
	for _, e := range []core.Engine{core.FuseME{}, core.SystemDSSim{}, core.DistMESim{}, core.MatFastSim{}} {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunGNMF(e, realCluster(), x, u, v, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealALSLoss measures the sparsity-exploiting fused loss
// (Figure 1(a)) against its dense evaluation cost.
func BenchmarkRealALSLoss(b *testing.B) {
	const n, k = 4000, 64
	g := workloads.ALSLoss(n, n, k, 0.005)
	inputs := map[string]*block.Matrix{
		"X": block.RandomSparse(n, n, 128, 0.005, 1, 5, 1),
		"U": block.RandomDense(n, k, 128, -0.5, 0.5, 2),
		"V": block.RandomDense(k, n, 128, -0.5, 0.5, 3),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cl := realCluster()
		if _, _, err := core.Run(core.FuseME{}, g, cl, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealAutoEncoderEpoch runs one training epoch (Figure 15 at
// laptop scale) on FuseME and the TensorFlow comparator.
func BenchmarkRealAutoEncoderEpoch(b *testing.B) {
	c := workloads.AutoEncoderConfig{Features: 256, Batch: 128, H1: 64, H2: 16}
	x := block.RandomDense(512, c.Features, 128, 0, 1, 1)
	for _, e := range []core.Engine{core.FuseME{}, core.TensorFlowSim{}} {
		b.Run(e.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				state := workloads.InitAutoEncoder(c, 128, 7)
				if _, err := workloads.RunAutoEncoderEpoch(e, realCluster(), x, c, 0.1, state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPIQuery measures the full public-API path: parse, plan,
// optimise and execute.
func BenchmarkPublicAPIQuery(b *testing.B) {
	cfg := fuseme.LocalClusterConfig()
	cfg.BlockSize = 128
	sess, err := fuseme.NewSession(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess.RandomSparse("X", 2000, 2000, 0.01, 1, 5, 1)
	sess.RandomDense("U", 2000, 64, 0, 1, 2)
	sess.RandomDense("V", 2000, 64, 0, 1, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Query("O = X * log(U %*% t(V) + 1e-3)"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceOverhead quantifies the observability fast path on a GNMF
// iteration over the sim backend. "off" is a plain session: no recorder, no
// registry, so the per-stage instrumentation reduces to nil checks and one
// stage record, and the per-task hot path is untouched. "on" records full
// plan/stage/task spans plus every metric. The "off" variant is the default
// every query pays; it must stay within 2% of an uninstrumented build
// (compare off vs on with benchstat — the delta bounds the hook cost from
// above, since "on" does strictly more work).
func BenchmarkTraceOverhead(b *testing.B) {
	const (
		users, items, k = 1200, 800, 16
		updateU         = `U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`
		updateV         = `V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`
	)
	gnmfIteration := func(b *testing.B, sess *fuseme.Session) {
		b.Helper()
		out, err := sess.Query(updateU)
		if err != nil {
			b.Fatal(err)
		}
		sess.Bind("U", out["U2"])
		if _, err := sess.Query(updateV); err != nil {
			b.Fatal(err)
		}
	}
	newGNMFSession := func(b *testing.B, opts ...fuseme.Option) *fuseme.Session {
		b.Helper()
		sess, err := fuseme.NewSession(fuseme.LocalClusterConfig(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		sess.RandomDense("X", users, items, 1, 5, 1)
		sess.RandomDense("U", k, items, 0.1, 0.9, 2)
		sess.RandomDense("V", users, k, 0.1, 0.9, 3)
		return sess
	}
	b.Run("off", func(b *testing.B) {
		sess := newGNMFSession(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gnmfIteration(b, sess)
		}
	})
	b.Run("on", func(b *testing.B) {
		sess := newGNMFSession(b, fuseme.WithTracing(), fuseme.WithMetricsAddr(""))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gnmfIteration(b, sess)
			sess.ResetObservations() // keep the span buffer from growing unboundedly
		}
	})
}

// BenchmarkJournalOverhead quantifies the event journal and skew detector on
// the same GNMF iteration as BenchmarkTraceOverhead. "off" is the default
// uninstrumented path, "journal" adds lifecycle events (planned, stage
// start/end, done — a handful of appends per query, no per-task work), and
// "journal+skew" additionally enables the metrics registry, which arms the
// per-task path (latency histogram + skew detector). Compare with benchstat;
// the journal+skew delta over off must stay under 2% wall.
func BenchmarkJournalOverhead(b *testing.B) {
	const (
		users, items, k = 1200, 800, 16
		updateU         = `U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`
		updateV         = `V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`
	)
	newGNMFSession := func(b *testing.B, opts ...fuseme.Option) *fuseme.Session {
		b.Helper()
		sess, err := fuseme.NewSession(fuseme.LocalClusterConfig(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		sess.RandomDense("X", users, items, 1, 5, 1)
		sess.RandomDense("U", k, items, 0.1, 0.9, 2)
		sess.RandomDense("V", users, k, 0.1, 0.9, 3)
		return sess
	}
	iteration := func(b *testing.B, sess *fuseme.Session) {
		b.Helper()
		out, err := sess.Query(updateU)
		if err != nil {
			b.Fatal(err)
		}
		sess.Bind("U", out["U2"])
		if _, err := sess.Query(updateV); err != nil {
			b.Fatal(err)
		}
	}
	variants := []struct {
		name string
		opts func() []fuseme.Option
	}{
		{"off", func() []fuseme.Option { return nil }},
		{"journal", func() []fuseme.Option {
			return []fuseme.Option{fuseme.WithJournal(fuseme.NewJournal(0, io.Discard))}
		}},
		{"journal+skew", func() []fuseme.Option {
			return []fuseme.Option{fuseme.WithJournal(fuseme.NewJournal(0, io.Discard)), fuseme.WithMetricsAddr("")}
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			sess := newGNMFSession(b, v.opts()...)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				iteration(b, sess)
			}
		})
	}
}

// BenchmarkCompileGNMF isolates planning cost (CFG exploration +
// exploitation + parameter optimisation) at YahooMusic scale.
func BenchmarkCompileGNMF(b *testing.B) {
	g := workloads.GNMF(1_823_179, 136_736, 200, 0.0029)
	cl := cluster.MustNew(cluster.Default())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (core.FuseME{}).Compile(g, cl.Config()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockWire measures FME1 encode+decode throughput for the block
// shapes the TCP runtime ships — dense and CSR at typical block sizes — in
// memory and, in the "-socket" arm, with a real loopback TCP connection
// between the encode and the decode (the frame written with one Write and
// read back into a reused buffer, as a task stream does).
// b.SetBytes reports MB/s of in-memory block data moved through the format.
func BenchmarkBlockWire(b *testing.B) {
	cases := []struct {
		name string
		m    matrix.Mat
	}{
		{"dense-128", denseBlock(128, 128)},
		{"dense-256", denseBlock(256, 256)},
		{"dense-512", denseBlock(512, 512)},
		{"csr-128-d01", csrBlock(128, 128, 0.01)},
		{"csr-512-d01", csrBlock(512, 512, 0.01)},
		{"csr-512-d20", csrBlock(512, 512, 0.2)},
	}
	for _, c := range cases {
		wire := float64(matrix.EncodedSize(c.m))
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(c.m.SizeBytes())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := spec.EncodeBlock(c.m)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := spec.DecodeBlock(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(wire, "wire-bytes")
		})
		b.Run(c.name+"-socket", func(b *testing.B) {
			send, recv := loopbackPair(b)
			out := make([]byte, 0, int(wire))
			in := make([]byte, int(wire))
			// The sending end runs on its own goroutine, as it does in the
			// runtime: a block larger than the socket buffer cannot be written
			// and read back from one.
			kick, sent := make(chan struct{}), make(chan error)
			defer close(kick)
			go func() {
				for range kick {
					_, err := send.Write(matrix.AppendTo(out, c.m))
					sent <- err
				}
			}()
			b.SetBytes(c.m.SizeBytes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kick <- struct{}{}
				if _, err := io.ReadFull(recv, in); err != nil {
					b.Fatal(err)
				}
				if _, err := spec.DecodeBlock(in); err != nil {
					b.Fatal(err)
				}
				if err := <-sent; err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(wire, "wire-bytes")
		})
	}
}

// loopbackPair returns the two ends of one loopback TCP connection.
func loopbackPair(b *testing.B) (dial, accept net.Conn) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	dial, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	if accept = <-accepted; accept == nil {
		b.Fatal("accept failed")
	}
	b.Cleanup(func() { dial.Close(); accept.Close() })
	return dial, accept
}

func denseBlock(rows, cols int) matrix.Mat {
	d := matrix.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float64(i%97) * 0.113
	}
	return d
}

func csrBlock(rows, cols int, density float64) matrix.Mat {
	d := matrix.NewDense(rows, cols)
	step := int(1 / density)
	for i := 0; i < len(d.Data); i += step {
		d.Data[i] = float64(i%89) + 0.5
	}
	return matrix.ToCSR(d)
}

// Example-style smoke check keeping the benchmarks honest: every registered
// experiment is one of the paper's tables or figures (a retired wall-clock id
// must not quietly return — measured numbers belong to bench/), and the
// simulated experiment tables stay well-formed.
func TestBenchmarkHarnessSmoke(t *testing.T) {
	want := []string{"ablation", "fig12a", "fig12b", "fig12c", "fig12d", "fig13", "fig13d",
		"fig14", "fig15", "plans", "table1", "table3"}
	if got := experiments.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("experiment ids = %v, want %v", got, want)
	}
	tables, err := experiments.Run("table1", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("table %s empty", tab.ID)
		}
		if len(tab.Render()) == 0 {
			t.Fatal("empty render")
		}
	}
}
