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
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"fuseme"
	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/experiments"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/remote"
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
// uninstrumented path; "journal+skew" adds lifecycle events (planned, stage
// start/end, done — a handful of appends per query, no per-task work) and the
// metrics registry, which arms the per-task path (latency histogram + skew
// detector). The two run in interleaved rounds in one process, one iteration
// of each per round in alternating order, so a shared host's drift lands on
// both; the benchmark reports the median of the rounds' journal+skew / off
// wall ratios and their interquartile range. The median must stay under
// 1.02: the journal+skew delta over off under 2 % wall.
func BenchmarkJournalOverhead(b *testing.B) {
	const (
		users, items, k = 1200, 800, 16
		updateU         = `U2 = U * (t(V) %*% X) / (t(V) %*% V %*% U)`
		updateV         = `V2 = V * (X %*% t(U)) / (V %*% (U %*% t(U)))`
	)
	newGNMFSession := func(opts ...fuseme.Option) *fuseme.Session {
		sess, err := fuseme.NewSession(fuseme.LocalClusterConfig(), opts...)
		if err != nil {
			b.Fatal(err)
		}
		sess.RandomDense("X", users, items, 1, 5, 1)
		sess.RandomDense("U", k, items, 0.1, 0.9, 2)
		sess.RandomDense("V", users, k, 0.1, 0.9, 3)
		return sess
	}
	timed := func(sess *fuseme.Session) float64 {
		from := time.Now()
		out, err := sess.Query(updateU)
		if err != nil {
			b.Fatal(err)
		}
		sess.Bind("U", out["U2"])
		if _, err := sess.Query(updateV); err != nil {
			b.Fatal(err)
		}
		return time.Since(from).Seconds()
	}
	off := newGNMFSession()
	on := newGNMFSession(fuseme.WithJournal(fuseme.NewJournal(0, io.Discard)), fuseme.WithMetricsAddr(""))
	defer off.Close()
	defer on.Close()
	timed(off) // the first iteration counts the generated inputs
	timed(on)
	ratios := make([]float64, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range ratios {
		if i%2 == 0 {
			tOff := timed(off)
			ratios[i] = timed(on) / tOff
		} else {
			tOn := timed(on)
			ratios[i] = tOn / timed(off)
		}
	}
	b.StopTimer()
	slices.Sort(ratios)
	quartile := func(q int) float64 { return ratios[(q*(len(ratios)-1)+2)/4] }
	b.ReportMetric(quartile(2), "journal+skew/off")
	b.ReportMetric(quartile(3)-quartile(1), "ratio-IQR")
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
// memory and over a real loopback TCP connection, the way a task stream
// moves a block: the "-socket" arm writes the frame's headers and the
// block's own memory with one writev and reads the payload straight into
// fresh storage; the "-arena" arm reads into an arena reset per block, as a
// worker's task stream does per task, and must allocate nothing once warm.
// b.SetBytes reports MB/s of in-memory block data moved through the format.
// The "panel" arms time a task's fetch list instead (fetchPanel): the
// synchronous fetch at depth 1, read-ahead at remote.FetchDepth.
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
		b.Run(c.name+"-socket", func(b *testing.B) { blockOverSocket(b, c.m, nil) })
		b.Run(c.name+"-arena", func(b *testing.B) { blockOverSocket(b, c.m, new(matrix.Arena)) })
	}
	x := csrBlock(256, 256, 0.01) // a block of the repo benchmark's GNMF X
	for _, depth := range []int{1, remote.FetchDepth} {
		b.Run(fmt.Sprintf("panel-csr-256-d01-depth%d", depth), func(b *testing.B) { fetchPanel(b, x, depth) })
	}
}

// fetchPanel moves a task's fetch list — panelBlocks blocks m — over one
// loopback connection the way a worker's task stream does: a request frame
// of the stream's 30 bytes per block, answered in request order by a frame
// of a 6-byte header and m's FME1 bytes, written with one writev from the
// block's memory; the reader keeps depth requests outstanding, sending the
// next as it takes a reply, and reads each block into an arena reset per
// list. It reports µs per block.
func fetchPanel(b *testing.B, m matrix.Mat, depth int) {
	const panelBlocks, reqSize = 16, 5 + 25
	cli, srv := loopbackPair(b)
	wire := matrix.EncodedSize(m)
	rows, cols := m.Dims()
	go func() { // the coordinator's side: one reply per request, in order
		r := bufio.NewReaderSize(srv, 4<<10)
		var (
			req   [reqSize]byte
			hdr   []byte
			views [3][]byte
			out   net.Buffers
			iov   [4][]byte
		)
		for {
			if _, err := io.ReadFull(r, req[:]); err != nil {
				return // the benchmark closed the connection
			}
			var vs [][]byte
			hdr = append(binary.BigEndian.AppendUint32(append(hdr[:0], 7), uint32(1+wire)), 1)
			hdr, vs = matrix.AppendViews(hdr, views[:0], m)
			out = append(append(iov[:0], hdr), vs...)
			if _, err := out.WriteTo(srv); err != nil {
				return
			}
		}
	}()
	r := bufio.NewReaderSize(cli, 4<<10)
	reqs := make([]byte, panelBlocks*reqSize)
	var (
		hdr [6]byte
		a   matrix.Arena
	)
	list := func() {
		sent := 0
		send := func(n int) {
			if _, err := cli.Write(reqs[:n*reqSize]); err != nil {
				b.Fatal(err)
			}
			sent += n
		}
		send(min(depth, panelBlocks))
		for range panelBlocks {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				b.Fatal(err)
			}
			if _, err := matrix.ReadBlock(r, wire, max(rows, cols), &a); err != nil {
				b.Fatal(err)
			}
			if sent < panelBlocks {
				send(1)
			}
		}
		a.Reset()
	}
	list() // buffers and the arena reach their size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		list()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*panelBlocks), "µs/block")
	b.ReportMetric(float64(wire), "wire-bytes")
}

// blockOverSocket sends m across a loopback TCP connection and reads it back
// per iteration, the way a task stream does: the sender on its own
// goroutine (a block larger than the socket buffer cannot be written and
// read back from one), the header through a small read buffer and the
// payload into storage from a (nil: fresh). With an arena, a round trip
// that allocates a KiB or more fails the benchmark: it should allocate
// nothing.
func blockOverSocket(b *testing.B, m matrix.Mat, a *matrix.Arena) {
	send, recv := loopbackPair(b)
	wire := matrix.EncodedSize(m)
	rows, cols := m.Dims()
	kick, sent := make(chan struct{}), make(chan error)
	defer close(kick)
	go func() {
		var (
			hdr   []byte
			views [3][]byte
			out   net.Buffers
			iov   [4][]byte
		)
		for range kick {
			var vs [][]byte
			hdr, vs = matrix.AppendViews(hdr[:0], views[:0], m)
			out = append(append(iov[:0], hdr), vs...)
			_, err := out.WriteTo(send)
			sent <- err
		}
	}()
	r := bufio.NewReaderSize(recv, 4<<10)
	one := func() {
		kick <- struct{}{}
		if _, err := matrix.ReadBlock(r, wire, max(rows, cols), a); err != nil {
			b.Fatal(err)
		}
		if err := <-sent; err != nil {
			b.Fatal(err)
		}
		if a != nil {
			a.Reset()
		}
	}
	one() // buffers and the arena reach their size
	b.SetBytes(m.SizeBytes())
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	// The runtime allocates a few bytes now and then on its own account.
	if perOp := (m1.TotalAlloc - m0.TotalAlloc) / uint64(b.N); a != nil && perOp >= 1024 {
		b.Errorf("a warm arena round trip allocates %d B", perOp)
	}
	b.ReportMetric(float64(wire), "wire-bytes")
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
