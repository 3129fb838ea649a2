package remote

import (
	"errors"
	"net"
	"sync"
	"testing"

	"fuseme/internal/block"
	"fuseme/internal/chaos/chaostest"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/exec"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// fakeWorker listens on loopback and speaks the worker's side of the
// protocol by hand: it completes the handshake and answers pings on a
// control connection, and on a task stream answers every task with what
// reply writes, then msgDone. Its goroutines end at cleanup.
func fakeWorker(t *testing.T, reply func(s *stream)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns []net.Conn
	)
	serve := func(conn net.Conn) {
		defer conn.Close()
		typ, payload, err := readFrame(conn, maxControlFrame)
		if err != nil {
			return
		}
		switch typ {
		case msgHello:
			if writeGob(conn, msgHelloAck, helloAck{Proto: protoVersion}) != nil {
				return
			}
			for {
				if _, _, err := readFrame(conn, maxControlFrame); err != nil {
					return
				}
				if writeFrame(conn, msgPong, nil) != nil {
					return
				}
			}
		case msgStage:
			s := newStream(conn)
			defer s.close()
			for typ == msgStage || typ == msgTask {
				if typ == msgStage {
					var sa stageAssign
					if s.decodeGob(payload, &sa) != nil {
						return
					}
					s.blockSize = sa.Stage.BlockSize
				} else {
					var ta taskAssign
					if s.decodeGob(payload, &ta) != nil {
						return
					}
					reply(s)
					if s.writeGob(msgDone, taskDone{}) != nil {
						return
					}
				}
				if typ, payload, err = s.readFrame(); err != nil {
					return
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() { defer wg.Done(); serve(conn) }()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return ln.Addr().String()
}

// TestMalformedResultsFailTheAttempt: a worker that sends a well-formed
// result frame the stage cannot take — a kind naming an output the operator
// does not have or an aggregate it does not compute, a key outside the
// output grid, a block of the wrong shape, or a partial product from a
// one-stage operator — fails the attempt with
// exec.ErrMalformedResult instead of taking the coordinator down; every
// retry gets the same, so the query returns the error, and once the
// coordinator closes no goroutine of it is left.
func TestMalformedResultsFailTheAttempt(t *testing.T) {
	full := matrix.RandomDense(16, 16, -1, 1, 1)
	for name, reply := range map[string]func(s *stream){
		"output index":     func(s *stream) { s.writeResult(spec.OutAgg|5<<2, 0, 0, full) },
		"aggregate sink":   func(s *stream) { s.writeResult(spec.OutAgg, 0, 0, full) },
		"key outside grid": func(s *stream) { s.writeResult(spec.OutFinal, 100, 0, full) },
		"block shape":      func(s *stream) { s.writeResult(spec.OutFinal, 0, 0, matrix.RandomDense(3, 3, -1, 1, 2)) },
		"partial product":  func(s *stream) { s.writeResult(spec.OutPartial, 0, 0, full) },
	} {
		t.Run(name, func(t *testing.T) {
			cfg := cluster.Config{TasksPerNode: 2, TaskMemBytes: 1 << 30, NetBandwidth: 1e9,
				CompBandwidth: 50e9, BlockSize: 16, MaxTaskRetries: 2}
			co, err := NewCoordinator(cfg, []string{fakeWorker(t, reply)})
			if err != nil {
				t.Fatal(err)
			}
			x := block.RandomSparse(96, 64, 16, 0.2, 1, 5, 1)
			w := block.RandomDense(96, 64, 16, 0, 1, 2)
			g, err := lang.Parse("O = X * 2 + W", map[string]lang.InputDecl{
				"X": {Rows: 96, Cols: 64, Sparsity: x.Density()}, "W": {Rows: 96, Cols: 64, Sparsity: 1}})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = core.Run(core.FuseME{}, g, co, map[string]*block.Matrix{"X": x, "W": w})
			if !errors.Is(err, exec.ErrMalformedResult) {
				t.Errorf("query over a worker sending malformed results: err = %v, want ErrMalformedResult", err)
			}
			co.Close()
			chaostest.WaitNoGoroutine(t, "remote.(*Coordinator)")
		})
	}
}
