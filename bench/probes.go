package main

import (
	"io"
	"net"
	"runtime"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/parallel"
	"fuseme/internal/rt/spec"
)

// Probes run after the timed ops, in the same process and on the workload's
// own data: each gives one layer's rate in isolation, the ceiling the
// in-pipeline figure is read against.

// probeFor is how long a rate probe repeats its kernel.
const probeFor = 150 * time.Millisecond

// gflops repeats fn (which performs flops floating-point operations) for
// probeFor and returns the achieved rate.
func gflops(flops int64, fn func()) float64 {
	fn() // warm caches and page in operands
	start := time.Now()
	n := 0
	for time.Since(start) < probeFor {
		fn()
		n++
	}
	return float64(flops) * float64(n) / 1e9 / time.Since(start).Seconds()
}

// probeValues fills the probe metrics. inputs are the workload's bound
// inputs as blocked matrices.
func probeValues(v map[string]float64, inputs map[string]*block.Matrix, blockSize int) {
	v["cluster.empty_stage_s"] = probeEmptyStage(blockSize)
	v["remote.loopback_ceiling_mb_s"] = probeLoopback()

	// The largest input feeds the codec probe; the largest dense and sparse
	// inputs give the kernel probes their block shapes.
	var largest, dense, sparse *block.Matrix
	for _, m := range inputs {
		if largest == nil || m.SizeBytes() > largest.SizeBytes() {
			largest = m
		}
		first := firstBlock(m)
		if first == nil {
			continue
		}
		if first.IsSparse() {
			if sparse == nil || m.SizeBytes() > sparse.SizeBytes() {
				sparse = m
			}
		} else if dense == nil || m.SizeBytes() > dense.SizeBytes() {
			dense = m
		}
	}
	if largest != nil {
		v["spec.encode_mb_s"], v["spec.decode_mb_s"], v["spec.alloc_b_per_wire_b"] = probeCodec(largest)
	}

	peakA := matrix.RandomDense(512, 512, 0, 1, 1)
	peakB := matrix.RandomDense(512, 512, 0, 1, 2)
	pool := parallel.New(2, 1)
	v["matrix.peak_gflops"] = gflops(matrix.MatMulFlops(peakA, peakB), func() { matrix.MatMulWith(pool, peakA, peakB) })

	if dense == nil {
		return
	}
	a := firstBlock(dense)
	at := matrix.Transpose(a)
	v["matrix.gemm_gflops"] = gflops(matrix.MatMulFlops(at, a), func() { matrix.MatMul(at, a) })

	// A workload without a sparse input (the AutoEncoder) probes the sparse
	// kernels on a synthetic block of its own block size.
	var s *matrix.CSR
	if sparse != nil {
		s, _ = firstBlock(sparse).(*matrix.CSR)
	}
	if s == nil {
		s = matrix.RandomSparse(blockSize, blockSize, 0.01, 1, 5, 1)
	}
	ar, ac := a.Dims()
	inner := min(ar, ac)
	d := matrix.RandomDense(s.Cols, inner, 0, 1, 3)
	v["matrix.spmm_gflops"] = gflops(matrix.MatMulFlops(s, d), func() { matrix.MatMul(s, d) })
	l := matrix.RandomDense(s.Rows, inner, 0, 1, 4)
	rr := matrix.RandomDense(inner, s.Cols, 0, 1, 5)
	v["matrix.masked_gflops"] = gflops(matrix.MaskedMatMulFlops(s, inner), func() { matrix.MaskedMatMul(s, l, rr) })
}

// firstBlock returns the first stored block of m in key order.
func firstBlock(m *block.Matrix) matrix.Mat {
	keys := m.Keys()
	if len(keys) == 0 {
		return nil
	}
	return m.Block(keys[0].Row, keys[0].Col)
}

// probeEmptyStage is the cost of dispatching a stage that does nothing:
// 1000 no-op stages of one task per lane.
func probeEmptyStage(blockSize int) float64 {
	cl, err := cluster.New(internalClusterConfig(blockSize))
	if err != nil {
		return 0
	}
	const n = 1000
	noop := func(*cluster.Task) error { return nil }
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := cl.RunStage("empty", benchNodes*benchTasksPerNode, noop); err != nil {
			return 0
		}
	}
	return time.Since(start).Seconds() / n
}

// probeCodec pushes every block of m through the FME1 codec and returns
// encode and decode throughput in wire MB/s and bytes allocated per wire
// byte (both directions).
func probeCodec(m *block.Matrix) (encMBs, decMBs, allocPerWire float64) {
	keys := m.Keys()
	payloads := make([][]byte, 0, len(keys))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wire int64
	for _, k := range keys {
		p, err := spec.EncodeBlock(m.Block(k.Row, k.Col))
		if err != nil {
			return 0, 0, 0
		}
		wire += int64(len(p))
		payloads = append(payloads, p)
	}
	enc := time.Since(start)
	start = time.Now()
	for _, p := range payloads {
		if _, err := spec.DecodeBlock(p); err != nil {
			return 0, 0, 0
		}
	}
	dec := time.Since(start)
	runtime.ReadMemStats(&m1)
	if wire == 0 {
		return 0, 0, 0
	}
	mb := float64(wire) / 1e6
	return mb / enc.Seconds(), mb / dec.Seconds(), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(wire)
}

// probeLoopback is the raw rate of one loopback TCP connection: io.Copy of
// 64 MiB into a discarding reader, the ceiling for remote.fetch_mb_s.
func probeLoopback() float64 {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0
	}
	defer ln.Close()
	const total = 64 << 20
	received := make(chan int64, 1) // one send by the reader goroutine
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			received <- 0
			return
		}
		defer conn.Close()
		n, _ := io.Copy(io.Discard, conn) // a short count is reported below
		received <- n
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // unblocks Accept
		<-received
		return 0
	}
	chunk := make([]byte, 1<<20)
	start := time.Now()
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := conn.Write(chunk); err != nil {
			break
		}
	}
	conn.Close()
	n := <-received
	return float64(n) / 1e6 / time.Since(start).Seconds()
}
