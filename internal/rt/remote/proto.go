// Package remote implements the TCP runtime backend: a coordinator that
// satisfies rt.Runtime by scheduling descriptor-based stages over worker
// processes, and the worker loop those processes run.
//
// Every connection carries length-framed messages
// ([type byte][uint32 big-endian length][payload]), each sent with one write
// system call — on a task stream a writev, which sends a block frame's
// payload from the block's own memory; the msgFetch requests a worker sends
// ahead share one write.
// The coordinator opens one persistent control connection per worker for the
// handshake and heartbeats, and keeps a small set of
// persistent task streams per worker — at most TasksPerNode idle ones, the
// lanes that exist — each carrying one task at a time, any number in
// sequence.
//
// Frame table, protocol v15 (C = coordinator, W = worker; "gob" = encoded by
// the connection's gob stream, "raw" = fixed binary layout):
//
//	control connection (C dials; per-message gob, low rate, no block; any
//	other frame after the handshake ends it)
//	  C→W msgHello        gob(hello)         opens the connection
//	  W→C msgHelloAck     gob(helloAck)
//	  C→W msgPing         empty
//	  W→C msgPong         empty
//
//	task stream (C dials; ONE gob.Encoder/Decoder pair per direction for the
//	stream's lifetime, so type descriptors travel once)
//	  C→W msgStage        gob(stageAssign)   opens the stream; again whenever
//	                                         the stream carries another stage
//	  C→W msgTask         gob(taskAssign)    a task of the shipped stage, by id
//	  W→C msgFetch        raw  25-byte block reference
//	  C→W msgBlock        raw  status byte + FME1 block       the reply
//	  W→C msgResult       raw  17-byte result header + FME1 block
//	  W→C msgDone         gob(taskDone)      ends the task; the stream is idle
//	  W→C msgFail         gob(taskFail)      ends the task; the stream is idle
//
//	join listener (W dials C; one exchange per connection, per-message gob)
//	  W→C msgJoin / msgLeave
//	  C→W msgMemberUpdate gob(memberUpdate)  the membership after the change
//	  C→W msgFail         gob(taskFail)      refused
//
//	retired, never reused: 10 (cache advert), 11 (cache invalidation push),
//	15 (cache replica put) and 16–18 (proto v5's prefetch and steal frames)
//
// Between msgTask and msgDone the stream is a private request/response
// channel: the coordinator serves the worker's block fetches in the order
// they arrive and takes its result blocks as they are produced. A task names
// the blocks of its next loop ahead (a multiplication's k loop, a fuse
// task's partials), so the worker keeps up to FetchDepth msgFetch requests
// outstanding; a msgBlock reply carries no reference and is matched to its
// request by position. The worker reads every outstanding reply before it
// writes anything but a request — msgResult, msgDone, msgFail — so a task
// leaves no reply behind for the next, and neither end ever writes while the
// other is blocked writing to it (fetchQueue).
// Pull-based fetching means the worker discovers exactly the blocks the
// fused kernel needs — the same dedup and colocation accounting as the
// simulated backend, because both run the identical executor task body.
//
// Buffer ownership. A block's bytes cross each hop once in user space. The
// sender assembles the frame header, status byte or result header and FME1
// header in the stream's write buffer and sends them and the block's own
// slices with one writev (matrix.AppendViews); the block is immutable, and
// the write returns only once the kernel has the bytes. The receiver reads
// the headers out of a small read buffer, validates the FME1 header against
// the frame length and the stage's block size before it takes any storage
// (matrix.ReadBlock), then reads the payload straight into the block's
// slices. A worker takes that storage from its stream's arena (matrix.Arena):
// the blocks a task fetched live until the task's msgDone or msgFail is
// written — every result block went out before it, synchronously, so a
// result that is a fetched block is already on the wire — and the next task
// reuses the memory. The coordinator decodes
// each msgResult as it arrives into fresh storage, because results live on
// in the stage's sinks; rt.Stage.Collect receives them as blocks.
package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"fuseme/internal/cluster"
	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// Protocol version, checked during the control-connection handshake.
// Version 2 added the block-cache coherence frames (the worker's cache advert
// and the coordinator's invalidation push) and the stage generation in
// taskAssign. Version 3 added distributed tracing: the Trace flag in
// taskAssign, worker span batches in taskDone, and the worker-clock timestamp
// in the pong payload that the coordinator's skew estimator consumes.
// Version 4 added elastic membership: msgJoin/msgLeave on the coordinator's
// join listener so workers register (and drain away) at any time,
// msgMemberUpdate pushing the membership table to workers, and a replica put
// carrying cached blocks to secondary holders. Version 5 added
// record-and-replay prefetch and the work-stealing opt-out. Version 6 made
// task connections persistent streams: msgStage ships the descriptor once per
// (stream, stage generation), msgTask assigns by id, fetch requests are fixed
// binary, result blocks travel as msgResult frames ahead of a small msgDone.
// Version 7 ships multi-aggregation stages (spec.Stage.Group; a v6 worker
// would run the first plan alone): the kind byte of a msgResult header
// carries the output's index above the kind, so the frames of a
// single-output stage are what they were. Version 8 removes what version 5
// added — prefetch hints and pulls, the fetch report, the steal opt-out and
// the release push — and retires frame types 16–18. Version 9 removes the
// cache frames of versions 2 and 4 — the advert, the invalidation push and
// the replica put — and retires frame types 10, 11 and 15: a worker drops
// stale epochs itself, as the stage descriptor names them, and no control
// frame carries a block any more. Version 10 removes the membership push on
// the control connection: msgMemberUpdate is only the join listener's reply,
// and a worker ends a control connection on any frame but msgPing. Version 11
// ships the session's block-cache budget in stageAssign in place of a kernel
// thread count: a worker sizes its kernel pool from its own GOMAXPROCS and
// gives a task its block cache only when the task's stage carries a budget.
// Version 12 drops the worker clock from the pong, which is an empty frame
// now, and ships a task's spans relative to its body's start: the coordinator
// places them in the task's own dispatch window, with no clock estimate.
// Version 13 moves block-cache visibility into the stage descriptor: its
// cache scope names the generation the stage's insertions carry and the ones
// it may hit — its ancestors in its query's plan, and every earlier query —
// so the stages of independent operators can run at once with deterministic
// hits; the generation in stageAssign and taskAssign only names the stage on
// its stream. Version 14 ships a finished task's metering in taskDone as
// the cluster.Stats of that one task, the record both runtimes fold into
// their stage. Version 15 drops the block-cache budget from stageAssign;
// the stage descriptor carries no input epochs or cache scope any more.
const protoVersion = 15

// Frame types.
const (
	msgHello    = byte(1) // coordinator → worker: gob(hello), opens control conn
	msgHelloAck = byte(2) // worker → coordinator: gob(helloAck)
	msgPing     = byte(3) // coordinator → worker: empty
	msgPong     = byte(4) // worker → coordinator: empty
	msgTask     = byte(5) // coordinator → worker: gob(taskAssign), on a task stream after its msgStage
	msgFetch    = byte(6) // worker → coordinator: block reference (appendRef)
	msgBlock    = byte(7) // coordinator → worker: block payload (see below)
	msgDone     = byte(8) // worker → coordinator: gob(taskDone)
	msgFail     = byte(9) // worker → coordinator: gob(taskFail)

	// 10 and 11 were the cache advert and invalidation push; retired, not reused.

	// Elastic-membership frames (proto v4).
	msgJoin         = byte(12) // worker → coordinator: gob(joinReq), on join listener
	msgLeave        = byte(13) // worker → coordinator: gob(leaveReq), on join listener
	msgMemberUpdate = byte(14) // coordinator → worker: gob(memberUpdate); join/leave ack on the join listener

	// 15 was the cache replica put, 16–18 proto v5's prefetch and steal
	// frames; retired, not reused.

	// Persistent-stream frames (proto v6).
	msgStage  = byte(19) // coordinator → worker: gob(stageAssign); opens a task stream, re-sent per stage
	msgResult = byte(20) // worker → coordinator: result header (appendResultHeader) + FME1 block, before msgDone
)

// Block payload status bytes (first byte of a msgBlock payload).
const (
	blockNil   = byte(0) // all-zero block; no data follows
	blockData  = byte(1) // FME1 bytes follow
	blockError = byte(2) // error string follows
)

// maxControlFrame bounds every frame that carries no block. A length prefix
// is checked against the limit of its frame type before anything is
// allocated, and a larger one is ErrFrameTooLarge. Block frames on a task
// stream (msgBlock, msgResult) are bounded by what the shipped stage's
// BlockSize allows; the stream's other frames (descriptors, assignments,
// completion reports) and every frame of the control and join connections
// by maxControlFrame.
const maxControlFrame = 16 << 20

// ErrFrameTooLarge reports a frame whose length prefix exceeds the limit
// for its type on that connection — a corrupt prefix or a hostile peer.
var ErrFrameTooLarge = errors.New("remote: frame exceeds limit")

// blockFrameLimit bounds a frame carrying one block of a stage with block
// size bs: the larger FME1 encoding is a fully populated CSR block
// (29 + 8(bs+1) + 16bs² bytes; dense is 21 + 8bs²), plus the status byte or
// result header in front of it.
func blockFrameLimit(bs int) int {
	return resultHeaderSize + 29 + 8*(bs+1) + 16*bs*bs
}

type hello struct {
	Proto int
}

type helloAck struct {
	Proto int
}

// stageAssign ships a stage to a task stream: the descriptor and Gen, the
// coordinator's number for the stage. It is sent once per (stream, stage);
// every msgTask until the next msgStage names a task of it by id, and the
// worker rebuilds the plan once for all of them. TaskSlots is the per-worker
// slot count the kernel pool's helper budget is sized against.
type stageAssign struct {
	Stage     spec.Stage
	Gen       uint64
	TaskSlots int
}

// taskAssign assigns one task of the stream's current stage. Gen repeats
// the stage's number so a worker never runs a task against a descriptor it
// was not meant for.
type taskAssign struct {
	TaskID int
	Gen    uint64

	// Trace asks the worker to record per-task sub-spans (fetch, kernel,
	// send) and ship them back in taskDone.Spans. Trace context
	// propagation is this one bit plus the task identity already in the
	// assignment — the coordinator rebuilds the global timeline from those.
	Trace bool
}

// taskDone reports a completed task: the worker-side cluster.Task's
// metering as the Stats of that one task (Task.Metrics), with the fetch wait
// and task wall time the worker measured (the result blocks went ahead of it
// as msgResult frames). Spans carries the task body's sub-spans, relative to
// the body's start, when the assignment requested tracing; the coordinator
// places the body, Metrics.TaskSeconds long, inside the dispatch window it
// observed.
type taskDone struct {
	Metrics cluster.Stats
	Spans   []cluster.TaskSpan
}

// taskFail reports a task whose body returned an error. This is an
// application failure, not a transport failure: retrying it on another
// worker re-runs the same deterministic computation.
type taskFail struct {
	Err string
}

// joinReq asks the coordinator to admit a worker listening on Addr. Sent on
// a short-lived connection to the coordinator's join listener; the reply is
// msgMemberUpdate (admitted — the payload is the current membership view)
// or msgFail.
type joinReq struct {
	Proto int
	Addr  string
}

// leaveReq announces a voluntary departure of the worker listening on Addr
// (the drain path). The coordinator stops dispatching to it immediately;
// in-flight tasks finish on their private task connections.
type leaveReq struct {
	Addr string
}

// MemberInfo is one worker's row in a membership update, mirroring
// membership.Member without importing it into the wire format.
type MemberInfo struct {
	ID    int
	Addr  string
	State string
	Epoch uint64
}

// memberUpdate carries the coordinator's membership table: the cluster
// epoch and every member row. It is the join/leave acknowledgement.
type memberUpdate struct {
	Epoch   uint64
	Members []MemberInfo
}

// writeFrame writes one framed message with a single Write. It serves the
// low-rate connections (control, join); task streams assemble frames in
// their own reusable buffer.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	b := make([]byte, frameHeaderSize, frameHeaderSize+len(payload))
	b[0] = typ
	binary.BigEndian.PutUint32(b[1:], uint32(len(payload)))
	_, err := w.Write(append(b, payload...))
	return err
}

const frameHeaderSize = 5

// readFrameHeader reads a frame's type and payload length.
func readFrameHeader(r io.Reader) (typ byte, n int, err error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	return hdr[0], int(binary.BigEndian.Uint32(hdr[1:])), nil
}

// readFrame reads one framed message of at most limit payload bytes into a
// fresh buffer (control and join connections).
func readFrame(r io.Reader, limit int) (typ byte, payload []byte, err error) {
	typ, n, err := readFrameHeader(r)
	if err != nil {
		return 0, nil, err
	}
	if n > limit {
		return 0, nil, fmt.Errorf("%w: type %d, %d bytes, limit %d", ErrFrameTooLarge, typ, n, limit)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, err
		}
	}
	return typ, payload, nil
}

// writeGob writes a gob-encoded framed message with an encoder of its own
// (control and join connections, where messages are rare).
func writeGob(w io.Writer, typ byte, v any) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return err
	}
	return writeFrame(w, typ, b.Bytes())
}

// decodeGob decodes a payload written by writeGob into v.
func decodeGob(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// expectFrame reads a frame and checks its type.
func expectFrame(r io.Reader, want byte, limit int) ([]byte, error) {
	typ, payload, err := readFrame(r, limit)
	if err != nil {
		return nil, err
	}
	if typ != want {
		return nil, fmt.Errorf("remote: expected frame type %d, got %d", want, typ)
	}
	return payload, nil
}

// refSize is the wire size of a block reference: kind, then node, BI and BJ
// as big-endian int64.
const refSize = 1 + 3*8

func appendRef(b []byte, ref spec.BlockRef) []byte {
	b = append(b, ref.Kind)
	b = binary.BigEndian.AppendUint64(b, uint64(ref.Node))
	b = binary.BigEndian.AppendUint64(b, uint64(ref.BI))
	return binary.BigEndian.AppendUint64(b, uint64(ref.BJ))
}

func decodeRef(b []byte) (spec.BlockRef, error) {
	if len(b) != refSize {
		return spec.BlockRef{}, fmt.Errorf("remote: block reference of %d bytes, want %d", len(b), refSize)
	}
	return spec.BlockRef{
		Kind: b[0],
		Node: int(int64(binary.BigEndian.Uint64(b[1:]))),
		BI:   int(int64(binary.BigEndian.Uint64(b[9:]))),
		BJ:   int(int64(binary.BigEndian.Uint64(b[17:]))),
	}, nil
}

// resultHeaderSize is the wire size of what precedes the FME1 bytes in a
// msgResult frame: the output kind, then BI and BJ as big-endian int64.
const resultHeaderSize = 1 + 2*8

func appendResultHeader(b []byte, kind uint8, bi, bj int) []byte {
	b = append(b, kind)
	b = binary.BigEndian.AppendUint64(b, uint64(bi))
	return binary.BigEndian.AppendUint64(b, uint64(bj))
}

// framePool recycles the frame buffers of closed streams: read scratch and
// write buffers, which grow to the largest frame they have carried.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// readBufferSize is the size of a stream's read buffer. Frame headers and
// the small frames are parsed out of it; a block's payload is read through
// it only up to what one socket read brought in with the header, the rest
// straight into the block.
const readBufferSize = 4 << 10

// stream is one persistent task connection, as either end holds it: the
// socket, the reusable frame buffers and the connection's gob stream. One
// goroutine at a time may read and one may write (the worker runs one task
// body on it at a time; the coordinator serves a stream from one lane).
type stream struct {
	conn net.Conn
	r    *bufio.Reader // every read of conn

	// rbuf is read scratch: what payload returns lives here until the next
	// read. wbuf is where a frame is assembled, header first; a block frame
	// goes out as wbuf's bytes followed by the block's own memory (out, one
	// writev). hdr takes the frame and result headers next and readResult
	// read.
	rbuf, wbuf *[]byte
	views      [3][]byte // a block's payload views (matrix.AppendViews)
	out        net.Buffers
	iov        [4][]byte // out's backing array: the frame, then the views
	hdr        [resultHeaderSize]byte

	// arena holds the blocks the worker's current task fetched; the worker
	// resets it once the task's msgDone or msgFail is written. The
	// coordinator decodes results into fresh storage and leaves it empty.
	arena matrix.Arena

	// One gob stream per direction for the connection's lifetime. enc writes
	// into encBuf, whose contents become a frame payload; dec reads the
	// payloads in arrival order through decSrc.
	encBuf bytes.Buffer
	enc    *gob.Encoder
	decSrc bytes.Reader
	dec    *gob.Decoder

	// blockSize is the block size of the stage last shipped on the stream;
	// it bounds block frames and the blocks decoded from them. gen is that
	// stage's generation (0 before the first msgStage).
	blockSize int
	gen       uint64

	// err is the first transport or framing error. It is sticky: after a
	// failed or refused read the byte stream is no longer aligned on frame
	// boundaries, so every later send and read fails with it too.
	err error
}

func newStream(conn net.Conn) *stream {
	s := &stream{conn: conn, r: bufio.NewReaderSize(conn, readBufferSize),
		rbuf: framePool.Get().(*[]byte), wbuf: framePool.Get().(*[]byte)}
	s.enc = gob.NewEncoder(&s.encBuf)
	s.dec = gob.NewDecoder(&s.decSrc)
	return s
}

// close closes the connection and recycles the stream's buffers. The stream
// must not be used afterwards.
func (s *stream) close() {
	s.conn.Close()
	framePool.Put(s.rbuf)
	framePool.Put(s.wbuf)
	s.rbuf, s.wbuf = nil, nil
}

// fail records err as the stream's sticky error, unless it has one already,
// and returns it.
func (s *stream) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return err
}

// begin starts a frame of the given type in the write buffer; the caller
// appends the payload and passes the result to send.
func (s *stream) begin(typ byte) []byte {
	return append((*s.wbuf)[:0], typ, 0, 0, 0, 0)
}

// send fills in the length of the frame begun with begin and writes it.
func (s *stream) send(frame []byte) error {
	return s.sendViews(frame, nil)
}

// sendViews fills in the length of the frame begun with begin, whose payload
// is frame's bytes followed by views, and writes it with one writev.
func (s *stream) sendViews(frame []byte, views [][]byte) error {
	*s.wbuf = frame[:0] // keep whatever growth appending caused
	if s.err != nil {
		return s.err
	}
	n := len(frame) - frameHeaderSize
	for _, v := range views {
		n += len(v)
	}
	binary.BigEndian.PutUint32(frame[1:], uint32(n))
	s.out = append(append(s.iov[:0], frame), views...)
	_, err := s.out.WriteTo(s.conn)
	clear(s.iov[:]) // the views alias a block; hold none past the write
	clear(s.views[:])
	if err != nil {
		return s.fail(err)
	}
	return nil
}

// sendFetches writes one msgFetch frame per reference with one write.
func (s *stream) sendFetches(refs []spec.BlockRef) error {
	b := (*s.wbuf)[:0]
	for _, ref := range refs {
		b = appendRef(binary.BigEndian.AppendUint32(append(b, msgFetch), refSize), ref)
	}
	*s.wbuf = b[:0]
	if s.err != nil {
		return s.err
	}
	if _, err := s.conn.Write(b); err != nil {
		return s.fail(err)
	}
	return nil
}

func (s *stream) writeFrame(typ byte, payload []byte) error {
	return s.send(append(s.begin(typ), payload...))
}

// writeGob sends v through the stream's gob encoder as one frame.
func (s *stream) writeGob(typ byte, v any) error {
	s.encBuf.Reset()
	if err := s.enc.Encode(v); err != nil {
		return s.fail(err) // the encoder may have sent half a type descriptor
	}
	return s.writeFrame(typ, s.encBuf.Bytes())
}

// decodeGob decodes the payload of a frame the peer sent with writeGob. v
// must be zero: gob leaves fields the message omits untouched.
func (s *stream) decodeGob(payload []byte, v any) error {
	s.decSrc.Reset(payload)
	if err := s.dec.Decode(v); err != nil {
		return s.fail(err) // the decoder's type table can no longer be trusted
	}
	return nil
}

// writeBlock sends a msgBlock frame: the block, nil for an all-zero one.
func (s *stream) writeBlock(m matrix.Mat) error {
	if m == nil {
		return s.send(append(s.begin(msgBlock), blockNil))
	}
	return s.sendViews(matrix.AppendViews(append(s.begin(msgBlock), blockData), s.views[:0], m))
}

// writeResult sends one result block of a task. It returns once the block
// is on the wire, so the caller may drop or reuse its memory.
func (s *stream) writeResult(kind uint8, bi, bj int, m matrix.Mat) error {
	b := appendResultHeader(s.begin(msgResult), kind, bi, bj)
	if m == nil {
		return s.send(b)
	}
	return s.sendViews(matrix.AppendViews(b, s.views[:0], m))
}

// next reads the header of the next frame: its type and payload length,
// held to the limit of the type before anything else is read. The caller
// reads the payload — payload, readBlock or readResult — before the next
// call.
func (s *stream) next() (typ byte, n int, err error) {
	if s.err != nil {
		return 0, 0, s.err
	}
	if _, err := io.ReadFull(s.r, s.hdr[:frameHeaderSize]); err != nil {
		return 0, 0, s.fail(err)
	}
	typ, n = s.hdr[0], int(binary.BigEndian.Uint32(s.hdr[1:]))
	limit := maxControlFrame
	switch typ {
	case msgBlock, msgResult:
		limit = blockFrameLimit(s.blockSize)
	case msgFetch:
		limit = refSize
	}
	if n > limit {
		return 0, 0, s.fail(fmt.Errorf("%w: type %d, %d bytes, limit %d", ErrFrameTooLarge, typ, n, limit))
	}
	return typ, n, nil
}

// payload reads a frame's n payload bytes into the stream's scratch, where
// they stay valid until the next read.
func (s *stream) payload(n int) ([]byte, error) {
	*s.rbuf = slices.Grow((*s.rbuf)[:0], n)[:n]
	if _, err := io.ReadFull(s.r, *s.rbuf); err != nil {
		return nil, s.fail(err)
	}
	return *s.rbuf, nil
}

// readFrame reads the next frame whole into the stream's scratch: the
// frames that carry no block. The payload is valid until the next read.
func (s *stream) readFrame() (typ byte, payload []byte, err error) {
	typ, n, err := s.next()
	if err != nil {
		return 0, nil, err
	}
	payload, err = s.payload(n)
	return typ, payload, err
}

// readBlock reads the n-byte payload of a msgBlock frame: the status byte,
// then the block straight into storage taken from a (nil: fresh storage).
// A block larger than the stage's block size is refused before anything is
// taken: nothing the coordinator serves is. A served error keeps the stream
// usable; anything malformed ends it.
func (s *stream) readBlock(n int, a *matrix.Arena) (matrix.Mat, error) {
	if n == 0 {
		return nil, s.fail(errors.New("remote: empty block payload"))
	}
	status, err := s.r.ReadByte()
	if err != nil {
		return nil, s.fail(err)
	}
	switch status {
	case blockNil:
		if n != 1 {
			return nil, s.fail(fmt.Errorf("remote: all-zero block with %d payload bytes", n))
		}
		return nil, nil
	case blockData:
		blk, err := matrix.ReadBlock(s.r, n-1, s.blockSize, a)
		if err != nil {
			return nil, s.fail(err)
		}
		return blk, nil
	case blockError:
		msg, err := s.payload(n - 1)
		if err != nil {
			return nil, err
		}
		return nil, errors.New(string(msg))
	}
	return nil, s.fail(fmt.Errorf("remote: unknown block status %d", status))
}

// readResult reads the n-byte payload of a msgResult frame: the result
// header, then the block into fresh storage — a result outlives the frame,
// in the stage's sinks.
func (s *stream) readResult(n int) (spec.OutBlock, error) {
	if n < resultHeaderSize {
		return spec.OutBlock{}, s.fail(fmt.Errorf("remote: result frame of %d bytes, header needs %d", n, resultHeaderSize))
	}
	if _, err := io.ReadFull(s.r, s.hdr[:]); err != nil {
		return spec.OutBlock{}, s.fail(err)
	}
	ob := spec.OutBlock{
		Kind:      s.hdr[0],
		BI:        int(int64(binary.BigEndian.Uint64(s.hdr[1:]))),
		BJ:        int(int64(binary.BigEndian.Uint64(s.hdr[9:]))),
		WireBytes: n - resultHeaderSize,
	}
	if ob.WireBytes > 0 {
		blk, err := matrix.ReadBlock(s.r, ob.WireBytes, s.blockSize, nil)
		if err != nil {
			return spec.OutBlock{}, s.fail(err)
		}
		ob.Block = blk
	}
	return ob, nil
}
