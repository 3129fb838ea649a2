package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fuseme/internal/block"
	"fuseme/internal/cluster"
	"fuseme/internal/core"
	"fuseme/internal/lang"
	"fuseme/internal/matrix"
	"fuseme/internal/rt"
	"fuseme/internal/rt/spec"
	"fuseme/internal/sched"
)

// replayConn is a net.Conn whose reads replay fixed bytes and whose writes
// vanish: a peer that sent exactly those bytes and hung up.
type replayConn struct {
	net.Conn
	r io.Reader
}

func (c replayConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c replayConn) Write(p []byte) (int, error) { return len(p), nil }
func (c replayConn) Close() error                { return nil }

func frame(typ byte, payload []byte) []byte {
	b := binary.BigEndian.AppendUint32([]byte{typ}, uint32(len(payload)))
	return append(b, payload...)
}

// FuzzReadFrame: whatever bytes a peer sends, a stream reads each frame
// either whole within the limit of its frame type or with an error — a
// length prefix above the limit is ErrFrameTooLarge before anything is
// allocated — and after an error the stream stays failed. A block frame is
// read by the streamed reader, which returns what matrix.Decode makes of the
// frame's bytes, or an error; a hostile FME1 header takes no storage, and a
// frame cut short leaves the stream failed.
func FuzzReadFrame(f *testing.F) {
	dense, _ := spec.EncodeBlock(matrix.RandomDense(4, 4, -1, 1, 1))
	sparse, _ := spec.EncodeBlock(matrix.RandomSparse(4, 4, 0.5, -1, 1, 2))
	valid := [][]byte{
		frame(msgBlock, append([]byte{blockData}, dense...)),
		frame(msgBlock, append([]byte{blockData}, sparse...)),
		frame(msgBlock, []byte{blockNil}),
		frame(msgBlock, append([]byte{blockError}, "no such block"...)),
		frame(msgResult, matrix.AppendTo(appendResultHeader(nil, spec.OutFinal, 1, 2), matrix.NewDense(1, 1))),
		frame(msgResult, matrix.AppendTo(appendResultHeader(nil, spec.OutAgg, 0, 0), matrix.RandomSparse(4, 4, 0.5, -1, 1, 3))),
		frame(msgResult, appendResultHeader(nil, spec.OutPartial, 3, 1)),
		frame(msgFetch, appendRef(nil, spec.BlockRef{Kind: spec.RefInput, Node: 3, BI: 1, BJ: 2})),
		frame(msgPing, nil),
	}
	f.Add([]byte{})
	for _, v := range valid {
		f.Add(v)
		f.Add(v[:len(v)-1])
		f.Add(v[:3])
		f.Add(append(append([]byte(nil), v...), v...))
	}
	f.Add([]byte{msgBlock, 0x40, 0, 0, 0})         // 1 GiB block frame, no payload
	f.Add([]byte{msgDone, 0xff, 0xff, 0xff, 0xff}) // 4 GiB control frame
	// A block frame within the bound whose FME1 header claims 2^31 x 2^31.
	f.Add(frame(msgBlock, []byte("\x011EMF\x00\x00\x00\x00\x80\x00\x00\x00\x00\x00\x00\x00\x80\x00\x00\x00\x00")))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newStream(replayConn{r: bytes.NewReader(data)})
		defer s.close()
		s.blockSize = 4
		for rest := data; ; {
			typ, n, err := s.next()
			if err != nil {
				if _, _, again := s.next(); again == nil {
					t.Fatal("stream readable again after an error")
				}
				return
			}
			limit := maxControlFrame
			switch typ {
			case msgBlock, msgResult:
				limit = blockFrameLimit(4)
			case msgFetch:
				limit = refSize
			}
			if n > limit {
				t.Fatalf("frame type %d: %d payload bytes, limit %d", typ, n, limit)
			}
			body := rest[frameHeaderSize:]
			short := len(body) < n
			if !short {
				body, rest = body[:n], body[n:]
			}
			switch typ {
			case msgBlock:
				var arena matrix.Arena
				got, err := s.readBlock(n, &arena)
				checkStreamedBlock(t, s, body, 1, short, got, err)
				if err == nil && 8*arena.Words() > n {
					t.Fatalf("%d words of storage for a %d-byte frame", arena.Words(), n)
				}
				if len(body) > 0 && body[0] == blockError && !short {
					if err == nil || err.Error() != string(body[1:]) || s.err != nil {
						t.Fatalf("served error %q read as %v (stream err %v)", body[1:], err, s.err)
					}
				}
			case msgResult:
				ob, err := s.readResult(n)
				checkStreamedBlock(t, s, body, resultHeaderSize, short, ob.Block, err)
			default:
				payload, err := s.payload(n)
				if short != (err != nil) || (err == nil && !bytes.Equal(payload, body)) {
					t.Fatalf("frame type %d: payload %x, err %v; sent %x", typ, payload, err, body)
				}
				if typ == msgFetch && err == nil {
					decodeRef(payload)
				}
			}
		}
	})
}

// checkStreamedBlock holds a block a stream read from a frame with payload
// body — skip header bytes, then the FME1 bytes, if any — to what
// matrix.Decode makes of those bytes: the same block bit for bit, or an
// error that leaves the stream failed. A cut-short frame is always an error.
func checkStreamedBlock(t *testing.T, s *stream, body []byte, skip int, short bool, got matrix.Mat, err error) {
	t.Helper()
	if short {
		if err == nil || s.err == nil {
			t.Fatalf("a frame cut short read as %v, err %v, stream err %v", got, err, s.err)
		}
		return
	}
	var want matrix.Mat
	var werr error
	fme1 := body[min(skip, len(body)):]
	switch {
	case len(body) < skip || len(body) == 0:
		werr = errors.New("short header")
	case skip == 1 && body[0] == blockNil:
		if len(body) > 1 {
			werr = errors.New("all-zero block with data")
		}
	case skip == 1 && body[0] == blockError:
		return // a served error, checked by the caller
	case skip == 1 && body[0] != blockData:
		werr = errors.New("unknown status")
	case skip == 1 || len(fme1) > 0:
		if want, werr = matrix.Decode(fme1); werr == nil {
			if r, c := want.Dims(); r > s.blockSize || c > s.blockSize {
				werr = errors.New("larger than the stage's blocks")
			}
		}
	}
	if werr != nil {
		if err == nil || s.err == nil {
			t.Fatalf("streamed read accepted what Decode refuses (%v): %v, stream err %v", werr, got, s.err)
		}
		return
	}
	if err != nil {
		t.Fatalf("streamed read refused what Decode accepts: %v", err)
	}
	if (got == nil) != (want == nil) || got != nil && !bytes.Equal(matrix.AppendTo(nil, got), matrix.AppendTo(nil, want)) {
		t.Fatalf("streamed read gave %v, Decode %v", got, want)
	}
}

// FuzzFetchRequest: a block reference is exactly refSize bytes, decodes
// without panicking and re-encodes to the same bytes.
func FuzzFetchRequest(f *testing.F) {
	f.Add([]byte{})
	for _, ref := range []spec.BlockRef{
		{},
		{Kind: spec.RefInput, Node: 7, BI: 3, BJ: 4},
		{Kind: spec.RefPartial, Node: -1, BI: 1 << 40, BJ: -5},
	} {
		enc := appendRef(nil, ref)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(append(enc, 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, err := decodeRef(data)
		if err != nil {
			if len(data) == refSize {
				t.Fatalf("well-sized reference refused: %v", err)
			}
			return
		}
		if again := appendRef(nil, ref); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs: %x vs %x", again, data)
		}
	})
}

// TestFrameLimits: a length prefix is held against the limit of its frame
// type on that connection, with a typed error.
func TestFrameLimits(t *testing.T) {
	read := func(bs int, hdr ...byte) error {
		s := newStream(replayConn{r: bytes.NewReader(hdr)})
		defer s.close()
		s.blockSize = bs
		_, _, err := s.readFrame()
		return err
	}
	over := uint32(blockFrameLimit(16) + 1)
	for name, err := range map[string]error{
		"block frame above the stage's bound": read(16, msgBlock, byte(over>>24), byte(over>>16), byte(over>>8), byte(over)),
		"1 GiB result frame":                  read(16, msgResult, 0x40, 0, 0, 0),
		"block frame before any stage":        read(0, msgBlock, 0, 0, 1, 0),
		"oversized control frame":             read(16, msgDone, 0x01, 0, 0, 1),
		"long fetch request":                  read(16, msgFetch, 0, 0, 0, refSize+1),
	} {
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("%s: err = %v, want ErrFrameTooLarge", name, err)
		}
	}
	// At the bound the frame is only short of bytes, not refused.
	at := uint32(blockFrameLimit(16))
	if err := read(16, msgBlock, byte(at>>24), byte(at>>16), byte(at>>8), byte(at)); !errors.Is(err, io.EOF) {
		t.Errorf("block frame at the bound: err = %v, want EOF", err)
	}
	if _, _, err := readFrame(bytes.NewReader([]byte{msgJoin, 0x01, 0, 0, 1}), maxControlFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("join frame above maxControlFrame: err = %v, want ErrFrameTooLarge", err)
	}
	// The worst-case blocks of a stage fit its bound.
	full := matrix.ToCSR(matrix.RandomDense(16, 16, 1, 2, 1))
	if n := resultHeaderSize + matrix.EncodedSize(full); n > blockFrameLimit(16) {
		t.Errorf("full CSR block frame is %d bytes, bound %d", n, blockFrameLimit(16))
	}
}

// TestControlFrameCap: no control frame carries a block, so a length prefix
// above maxControlFrame on the control connection is ErrFrameTooLarge. The
// loop ends on it before allocating the payload, and a real worker hangs up.
func TestControlFrameCap(t *testing.T) {
	over := uint32(maxControlFrame + 1)
	hdr := []byte{msgPing, byte(over >> 24), byte(over >> 16), byte(over >> 8), byte(over)}
	var err error
	loop := func() { err = (&Worker{}).controlLoop(replayConn{r: bytes.NewReader(hdr)}) }
	if got := allocPerOp(20, loop); got > 1024 {
		t.Errorf("refusing an oversized control frame allocates %.0f B", got)
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("control loop ended with %v, want ErrFrameTooLarge", err)
	}

	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); w.Wait() }()
	conn := dialControl(t, w)
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(conn, maxControlFrame); !errors.Is(err, io.EOF) {
		t.Errorf("after an oversized control frame: read err = %v, want EOF", err)
	}
}

// dialControl opens a control connection to w and completes the handshake.
func dialControl(t testing.TB, w *Worker) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", w.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeGob(conn, msgHello, hello{Proto: protoVersion}); err != nil {
		t.Fatal(err)
	}
	if _, err := expectFrame(conn, msgHelloAck, maxControlFrame); err != nil {
		t.Fatal(err)
	}
	return conn
}

// FuzzControlLoop: whatever frames follow the handshake on a worker's control
// connection, the worker does not panic, and once the coordinator's end is
// closed no goroutine of the worker keeps the connection. Every frame but
// msgPing ends the connection; TestControlLoopRefusesOtherFrames checks that
// it ends without waiting for the coordinator.
func FuzzControlLoop(f *testing.F) {
	upd := gobBytes(f, memberUpdate{Epoch: 3, Members: []MemberInfo{{ID: 0, Addr: "a:1", State: "active", Epoch: 3}}})
	f.Add([]byte{})
	f.Add(frame(msgPing, nil))
	f.Add(append(frame(msgPing, nil), frame(msgMemberUpdate, upd)...)) // the retired push: refused
	f.Add(append(frame(msgPing, nil), frame(msgPing, nil)...))
	f.Add(append(frame(msgPing, nil), frame(msgPong, nil)...)) // the worker's own reply: refused
	f.Add(frame(msgStage, []byte{1, 2, 3}))                    // a task stream's frame: refused
	f.Add([]byte{msgPing, 0x01, 0, 0, 1})                      // above maxControlFrame
	f.Add([]byte{msgPing, 0, 0})                               // a cut header
	f.Add(append(frame(0xff, nil), frame(msgPing, nil)...))    // junk, then a ping that is never answered
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close(); w.Wait() })
	f.Fuzz(func(t *testing.T, data []byte) {
		conn := dialControl(t, w)
		conn.Write(data) // the worker may hang up first
		conn.(*net.TCPConn).CloseWrite()
		io.Copy(io.Discard, conn) // pongs, until the worker hangs up
		conn.Close()
		select {
		case <-w.ControlDrop():
		case <-time.After(10 * time.Second):
			t.Fatal("the worker still holds the control connection after it closed")
		}
	})
}

// TestControlLoopRefusesOtherFrames: after the handshake only msgPing is a
// control frame. Any other — the membership push retired in v10, a task
// stream's msgStage, junk — ends the connection from the worker's side: the
// worker hangs up and ControlDrop fires while the coordinator's end is still
// open.
func TestControlLoopRefusesOtherFrames(t *testing.T) {
	upd := gobBytes(t, memberUpdate{Epoch: 1, Members: []MemberInfo{{ID: 0, Addr: "a:1", State: "active", Epoch: 1}}})
	for name, data := range map[string][]byte{
		"membership push": frame(msgMemberUpdate, upd),
		"stage":           frame(msgStage, []byte{1, 2, 3}),
		"junk":            frame(0xff, []byte("junk")),
	} {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorker("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer func() { w.Close(); w.Wait() }()
			conn := dialControl(t, w)
			if _, err := conn.Write(append(frame(msgPing, nil), data...)); err != nil {
				t.Fatal(err)
			}
			if _, err := expectFrame(conn, msgPong, maxControlFrame); err != nil {
				t.Fatalf("the ping before the frame went unanswered: %v", err)
			}
			select {
			case <-w.ControlDrop():
			case <-time.After(5 * time.Second):
				t.Fatal("the worker kept the control connection after a frame that is not a ping")
			}
			if _, _, err := readFrame(conn, maxControlFrame); !errors.Is(err, io.EOF) {
				t.Errorf("after the frame: read err = %v, want EOF", err)
			}
		})
	}
}

// loopbackStreams returns the two ends of one real TCP connection.
func loopbackStreams(t testing.TB) (client, server *stream) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	client, server = newStream(c), newStream(sc)
	t.Cleanup(func() { client.close(); server.close() })
	return client, server
}

// fetchStage is a stage whose Fetch serves blocks by BI from a fixed list.
func fetchStage(blocks ...matrix.Mat) *rt.Stage {
	return &rt.Stage{Fetch: func(ref spec.BlockRef) (matrix.Mat, error) { return blocks[ref.BI], nil }}
}

// readReply reads a msgBlock reply into storage from a, as a worker's fetch
// does.
func readReply(s *stream, a *matrix.Arena) (matrix.Mat, error) {
	typ, n, err := s.next()
	if err != nil {
		return nil, err
	}
	if typ != msgBlock {
		return nil, fmt.Errorf("frame type %d, want msgBlock", typ)
	}
	return s.readBlock(n, a)
}

// fetchOver runs one fetch round trip the way the two ends do: the worker
// end sends the reference and reads the reply into storage from arena, the
// coordinator end (on its own goroutine, as in production) serves it.
func fetchOver(t testing.TB, worker, coord *stream, st *rt.Stage, bi int, arena *matrix.Arena) matrix.Mat {
	t.Helper()
	served := make(chan error, 1)
	go func() {
		_, payload, err := coord.readFrame()
		if err == nil {
			var ref spec.BlockRef
			if ref, err = decodeRef(payload); err == nil {
				err = new(wireMeter).serveFetch(coord, st, ref, nil)
			}
		}
		served <- err
	}()
	if err := worker.send(appendRef(worker.begin(msgFetch), spec.BlockRef{Kind: spec.RefInput, BI: bi})); err != nil {
		t.Fatal(err)
	}
	blk, err := readReply(worker, arena)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestFetchedBlocksOwnTheirMemory fetches block A then block B over one
// persistent stream: A is unchanged by B's arrival, and neither shares
// memory with a stream buffer — scribbling over every buffer of both ends
// changes nothing. (Run under -race by `make check`.)
func TestFetchedBlocksOwnTheirMemory(t *testing.T) {
	worker, coord := loopbackStreams(t)
	worker.blockSize, coord.blockSize = 32, 32
	a, b := matrix.RandomDense(32, 32, -1, 1, 1), matrix.RandomSparse(32, 32, 0.3, -1, 1, 2)
	st := fetchStage(a, b)

	gotA := fetchOver(t, worker, coord, st, 0, nil)
	gotB := fetchOver(t, worker, coord, st, 1, nil)
	for _, s := range []*stream{worker, coord} {
		for _, buf := range []*[]byte{s.rbuf, s.wbuf} {
			full := (*buf)[:cap(*buf)]
			for i := range full {
				full[i] = 0xa5
			}
		}
	}
	if !matrix.Equal(gotA, a) || gotA.IsSparse() {
		t.Error("block A changed after block B arrived over the same stream")
	}
	if !matrix.Equal(gotB, b) || !gotB.IsSparse() {
		t.Error("block B does not match what was served")
	}
	if gotA.(*matrix.Dense) == a || gotB.(*matrix.CSR) == b {
		t.Error("a fetched block is the served block itself")
	}
}

// TestAliasedResultLeavesBeforeReuse: a worker's result block may be a block
// it fetched, in arena storage the next task reuses. writeResult returns
// only once the bytes are on the wire, so refilling that storage at once —
// as the next task's first fetch does — cannot change what the coordinator
// reads.
func TestAliasedResultLeavesBeforeReuse(t *testing.T) {
	worker, coord := loopbackStreams(t)
	worker.blockSize, coord.blockSize = 32, 32
	a, b := matrix.RandomDense(32, 32, -1, 1, 1), matrix.RandomDense(32, 32, -1, 1, 2)
	got := fetchOver(t, worker, coord, fetchStage(a), 0, &worker.arena)
	if err := worker.writeResult(spec.OutFinal, 0, 0, got); err != nil {
		t.Fatal(err)
	}
	worker.arena.Reset() // the task's msgDone went out
	enc := matrix.AppendTo(nil, b)
	next, err := matrix.ReadBlock(bytes.NewReader(enc), len(enc), 32, &worker.arena)
	if err != nil {
		t.Fatal(err)
	}
	if &next.(*matrix.Dense).Data[0] != &got.(*matrix.Dense).Data[0] {
		t.Fatal("the next fetch did not reuse the storage of the last task's")
	}
	typ, n, err := coord.next()
	if err != nil || typ != msgResult {
		t.Fatalf("frame type %d, err %v; want msgResult", typ, err)
	}
	ob, err := coord.readResult(n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(matrix.AppendTo(nil, ob.Block), matrix.AppendTo(nil, a)) || ob.WireBytes != matrix.EncodedSize(a) {
		t.Error("the result read is not the block that was fetched and sent")
	}
}

// TestWireAllocBudget: in steady state a block fetched over a real loopback
// task stream costs the receiving side the block itself (within the
// allocator's size-class rounding) — nothing at all when it lands in an
// arena — and the sending side nothing that grows with the block. The other end of each measurement is allocation-free by
// construction, so the MemStats delta belongs to the side under test.
func TestWireAllocBudget(t *testing.T) {
	const fetches = 200
	ref := spec.BlockRef{Kind: spec.RefInput}
	for name, blk := range map[string]matrix.Mat{
		"dense-128":   matrix.RandomDense(128, 128, -1, 1, 1),
		"csr-256-d01": matrix.RandomSparse(256, 256, 0.01, -1, 1, 2),
	} {
		st := fetchStage(blk)
		bs, _ := blk.Dims()
		reply := frame(msgBlock, matrix.AppendTo([]byte{blockData}, blk))
		request := frame(msgFetch, appendRef(nil, ref))

		// Receiving side: the peer answers every request with the same
		// pre-built frame.
		worker, peer := loopbackStreams(t)
		worker.blockSize = bs
		go func() {
			in := make([]byte, len(request))
			for {
				if _, err := io.ReadFull(peer.conn, in); err != nil {
					return
				}
				if _, err := peer.conn.Write(reply); err != nil {
					return
				}
			}
		}()
		receive := func() {
			if err := worker.send(appendRef(worker.begin(msgFetch), ref)); err != nil {
				t.Fatal(err)
			}
			if _, err := readReply(worker, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got, budget := allocPerOp(fetches, receive), 1.15*float64(blk.SizeBytes()); got > budget {
			t.Errorf("%s: receiving side allocates %.0f B per fetch, budget %.0f (block is %d B)", name, got, budget, blk.SizeBytes())
		}
		// Into an arena reset per fetch, as a worker's does per task, a
		// fetch allocates nothing that grows with the block.
		intoArena := func() {
			if err := worker.send(appendRef(worker.begin(msgFetch), ref)); err != nil {
				t.Fatal(err)
			}
			if _, err := readReply(worker, &worker.arena); err != nil {
				t.Fatal(err)
			}
			worker.arena.Reset()
		}
		if got := allocPerOp(fetches, intoArena); got > 256 {
			t.Errorf("%s: receiving into an arena allocates %.0f B per fetch, budget 256", name, got)
		}
		// A list named ahead and fetched through the stream's queue costs
		// no more: neither the hint nor the fetches allocate once warm.
		q := fetchQueue{s: worker}
		list := make([]spec.BlockRef, 8)
		for i := range list {
			list[i] = spec.BlockRef{Kind: spec.RefInput, BI: i}
		}
		ahead := func() {
			q.ahead(list)
			for _, r := range list {
				if _, err := q.fetch(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := q.finish(); err != nil {
				t.Fatal(err)
			}
			worker.arena.Reset()
		}
		if got := allocPerOp(fetches/len(list), ahead) / float64(len(list)); got > 256 {
			t.Errorf("%s: a list read ahead into an arena allocates %.0f B per fetch, budget 256", name, got)
		}

		// Sending side: the peer sends requests and drains the replies into
		// a fixed buffer.
		peer2, coord := loopbackStreams(t)
		coord.blockSize = bs
		sink := make([]byte, len(reply))
		send := func() {
			if _, err := peer2.conn.Write(request); err != nil {
				t.Fatal(err)
			}
			_, payload, err := coord.readFrame()
			if err != nil {
				t.Fatal(err)
			}
			got, err := decodeRef(payload)
			if err != nil {
				t.Fatal(err)
			}
			if err := new(wireMeter).serveFetch(coord, st, got, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(peer2.conn, sink); err != nil {
				t.Fatal(err)
			}
		}
		if got := allocPerOp(fetches, send); got > 4096 {
			t.Errorf("%s: sending side allocates %.0f B per fetch, budget 4096", name, got)
		}
		if !bytes.Equal(sink, reply) {
			t.Errorf("%s: served frame differs from the pre-built one", name)
		}
	}
}

// allocPerOp returns the bytes allocated per call of op over n calls, after
// a warm-up that lets buffers reach their size.
func allocPerOp(n int, op func()) float64 {
	for i := 0; i < 5; i++ {
		op()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// TestStreamNeedsItsStage drives a real worker over hand-held streams: a
// stream must open with its stage (a worker never guesses one from another
// connection), a descriptor that does not build fails each task assigned
// under it and leaves the stream usable, and a task of any other generation
// than the one the stream holds is refused.
func TestStreamNeedsItsStage(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); w.Wait() }()
	dial := func() *stream {
		conn, err := net.DialTimeout("tcp", w.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		s := newStream(conn)
		t.Cleanup(s.close)
		return s
	}

	// A task on a stream that was never shipped a stage: hung up on.
	bare := dial()
	if err := bare.writeGob(msgTask, taskAssign{TaskID: 0, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bare.readFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("task without a stage: read err = %v, want EOF", err)
	}

	s := dial()
	fails := func(want string) {
		t.Helper()
		typ, payload, err := s.readFrame()
		if err != nil || typ != msgFail {
			t.Fatalf("frame type %d, err %v; want msgFail", typ, err)
		}
		var fail taskFail
		if err := s.decodeGob(payload, &fail); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(fail.Err, want) {
			t.Fatalf("failure %q does not mention %q", fail.Err, want)
		}
	}
	if err := s.writeGob(msgStage, stageAssign{Stage: spec.Stage{Name: "empty", NumTasks: 2, BlockSize: 16}, Gen: 5}); err != nil {
		t.Fatal(err)
	}
	for task := 0; task < 2; task++ { // the stream survives an application failure
		if err := s.writeGob(msgTask, taskAssign{TaskID: task, Gen: 5}); err != nil {
			t.Fatal(err)
		}
		fails("missing root node")
	}
	if err := s.writeGob(msgTask, taskAssign{TaskID: 0, Gen: 6}); err != nil {
		t.Fatal(err)
	}
	fails("generation 6")
	if _, _, err := s.readFrame(); !errors.Is(err, io.EOF) {
		t.Fatalf("after a generation mismatch: read err = %v, want EOF", err)
	}
}

// TestDrainWakesOnTaskCompletion: Drain returns as soon as the last
// in-flight task has written its reply, and gives up at its deadline while
// one runs or replies.
func TestDrainWakesOnTaskCompletion(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); w.Wait() }()
	if !w.Drain(0) {
		t.Fatal("idle worker did not drain")
	}
	w.countTasks(2, 0)
	if w.Drain(10 * time.Millisecond) {
		t.Fatal("Drain returned true with two tasks in flight")
	}
	drained := make(chan bool, 1)
	go func() { drained <- w.Drain(time.Minute) }()
	w.countTasks(-1, 1) // one task's body ends and its reply is being written
	select {
	case <-drained:
		t.Fatal("Drain returned with one task still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	w.countTasks(0, -1)
	w.countTasks(-1, 1)
	select {
	case <-drained:
		t.Fatal("Drain returned with a reply still being written")
	case <-time.After(20 * time.Millisecond):
	}
	w.countTasks(0, -1)
	if !<-drained {
		t.Fatal("Drain timed out although the last task finished")
	}
	if n := w.ActiveTasks(); n != 0 {
		t.Fatalf("ActiveTasks = %d after draining", n)
	}
}

// TestActiveTasksStayWithinTheLanes: a worker stops counting a task in
// ActiveTasks before its reply goes out, so the count never exceeds the
// coordinators' lanes that hold a task on it. Two coordinators share a gate
// with one lane on a one-lane worker, and each runs a one-task stage. The
// first task is held after its reply is written, before the worker retires
// it; its coordinator frees the lane meanwhile, and the second coordinator's
// task runs on a stream of its own. Once that task has replied too,
// ActiveTasks reads at most the one lane, and Drain still waits for both
// retirements.
func TestActiveTasksStayWithinTheLanes(t *testing.T) {
	w := startWorkers(t, 1)[0]
	cfg := wireConfig()
	cfg.Nodes, cfg.TasksPerNode = 1, 1
	gate := sched.New(1, 0)
	cos := [2]*Coordinator{coordinate(t, cfg, []*Worker{w}), coordinate(t, cfg, []*Worker{w})}
	for _, co := range cos {
		co.SetScheduler(gate)
	}
	g, err := lang.Parse("B = A + 1", map[string]lang.InputDecl{"A": {Rows: 8, Cols: 8, Sparsity: 1}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*block.Matrix{"A": block.RandomDense(8, 8, cfg.BlockSize, 0, 1, 1)}

	type seen struct {
		active  int
		drained bool
	}
	held, release, lastReply := make(chan struct{}), make(chan struct{}), make(chan seen, 1)
	var replies atomic.Int32
	w.PauseAfterReply(func() {
		switch replies.Add(1) {
		case 1:
			close(held)
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		case 2:
			lastReply <- seen{w.ActiveTasks(), w.Drain(0)}
			close(release)
		}
	})
	defer w.PauseAfterReply(nil)
	run := func(co *Coordinator) chan error {
		done := make(chan error, 1)
		go func() {
			_, _, err := core.Run(core.FuseME{}, g, co, inputs)
			done <- err
		}()
		return done
	}
	first := run(cos[0])
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the first task never replied")
	}
	second := run(cos[1])
	for i, done := range []chan error{first, second} {
		if err := <-done; err != nil {
			t.Fatalf("coordinator %d: %v", i, err)
		}
	}
	var got seen
	select {
	case got = <-lastReply:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d replies, want 2", replies.Load())
	}
	if got.active > cfg.TasksPerNode {
		t.Errorf("ActiveTasks = %d after both replies on a worker with %d lane", got.active, cfg.TasksPerNode)
	}
	if got.drained {
		t.Error("Drain returned before the replied tasks were retired")
	}
	if !w.Drain(time.Second) || w.ActiveTasks() != 0 {
		t.Errorf("worker did not drain: ActiveTasks = %d", w.ActiveTasks())
	}
}

// TestHandshakeRefusesOtherVersions: protocol v15 does not interoperate with
// v14 in either direction, and both ends say so at the handshake.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	if protoVersion != 15 {
		t.Fatalf("protoVersion = %d, want 15", protoVersion)
	}
	cfg := cluster.Config{TasksPerNode: 1, TaskMemBytes: 1 << 30, NetBandwidth: 1e9, CompBandwidth: 50e9, BlockSize: 16}

	// A v14 worker: acknowledges with its own version.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := expectFrame(conn, msgHello, maxControlFrame); err == nil {
				writeGob(conn, msgHelloAck, helloAck{Proto: 14})
			}
			conn.Close()
		}
	}()
	if _, err := NewCoordinatorConfig(cfg, []string{ln.Addr().String()}, DefaultConfig()); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Errorf("coordinator against a v14 worker: err = %v, want protocol mismatch", err)
	}

	// A v14 coordinator against this worker: told the worker's version, then
	// hung up on.
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close(); w.Wait() }()
	conn, err := net.DialTimeout("tcp", w.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeGob(conn, msgHello, hello{Proto: 14}); err != nil {
		t.Fatal(err)
	}
	payload, err := expectFrame(conn, msgHelloAck, maxControlFrame)
	if err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := decodeGob(payload, &ack); err != nil || ack.Proto != protoVersion {
		t.Errorf("ack = %+v, err %v; want the worker's version %d", ack, err, protoVersion)
	}
	if _, _, err := readFrame(conn, maxControlFrame); !errors.Is(err, io.EOF) {
		t.Errorf("after a v14 hello: read err = %v, want EOF", err)
	}

	// A v14 worker registering at the join listener.
	co, err := NewCoordinatorConfig(cfg, []string{w.Addr()}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	joinAddr, err := co.ServeJoin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := joinExchange(joinAddr, 5*time.Second, msgJoin, joinReq{Proto: 14, Addr: "127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "protocol mismatch") {
		t.Errorf("v14 join: err = %v, want protocol mismatch", err)
	}
}
