package remote

import (
	"fmt"
	"slices"

	"fuseme/internal/matrix"
	"fuseme/internal/rt/spec"
)

// FetchDepth is how many block requests a worker keeps outstanding on a task
// stream ahead of the fetch that waits: enough to cover a request's round
// trip with the bytes of the replies before it (measured over depths 1, 2, 4
// and 8 on the benchmark's loopback workloads).
const FetchDepth = 4

// fetchQueue is a worker's task stream seen from its task's fetches. The task
// names, before a loop, the blocks the loop will fetch (exec's read-ahead
// hook, ahead); the queue keeps FetchDepth of those requests on the wire while
// the task works on the blocks that already arrived. The coordinator serves a
// stream's requests in order, so the replies come back in request order and
// carry no reference: the queue matches them by position.
//
// A fetch of a reference not yet requested is one more request at the tail.
// Replies ahead of the one a fetch waits for are read then and kept — in the
// task's arena, like any fetched block — for the fetch that asks for them; a
// served error is kept the same way and returned to that fetch. Nothing is
// dropped or requested twice. Before the worker writes anything but a request
// it reads every outstanding reply (drain): a reply left on the stream would
// meet the worker's next read, and a msgBlock carries nothing to tell it from
// the reply that read expects; and while the coordinator is writing a reply it
// is not reading what the worker writes.
//
// One queue serves a stream for its lifetime, so its slices are reused from
// task to task; the task body is its one goroutine.
type fetchQueue struct {
	s *stream // its arena holds the current task's fetched blocks

	// sent holds the requests on the wire or answered but not yet fetched, in
	// request order; inflight counts those without their reply. want holds
	// the hinted references not yet requested in reverse fetch order, the
	// next one last, so a loop nested in another one's is pushed on top.
	sent     []sentFetch
	inflight int
	want     []spec.BlockRef
	batch    []spec.BlockRef // the requests one write sends
}

// sentFetch is one requested block and, once its reply was read, the reply.
type sentFetch struct {
	ref spec.BlockRef
	got bool
	blk matrix.Mat
	err error
}

// ahead takes the references the task's next loop fetches, in fetch order,
// ahead of any it named earlier and has not fetched yet, and tops the wire up
// to FetchDepth requests. A reference the queue already holds is not taken
// twice.
func (q *fetchQueue) ahead(refs []spec.BlockRef) {
	for i := len(refs) - 1; i >= 0; i-- {
		if !q.holds(refs[i]) {
			q.want = append(q.want, refs[i])
		}
	}
	q.fill() // a failed write fails the fetch that next reads the stream
}

// holds reports whether ref is requested or waiting to be.
func (q *fetchQueue) holds(ref spec.BlockRef) bool {
	for i := range q.sent {
		if q.sent[i].ref == ref {
			return true
		}
	}
	return slices.Contains(q.want, ref)
}

// fetch returns the block ref names: from a reply already read, or after
// reading the replies up to its own — requesting it first at the tail when
// no hint did. The wire is topped up before the wait and after it.
func (q *fetchQueue) fetch(ref spec.BlockRef) (matrix.Mat, error) {
	i := slices.IndexFunc(q.sent, func(f sentFetch) bool { return f.ref == ref })
	if i < 0 {
		if j := slices.Index(q.want, ref); j >= 0 {
			q.want = slices.Delete(q.want, j, j+1)
		}
		i = len(q.sent)
		q.batch = append(q.batch, ref)
	}
	if err := q.fill(); err != nil {
		return nil, err
	}
	for k := 0; !q.sent[i].got; k++ {
		if err := q.receive(k); err != nil {
			return nil, err
		}
	}
	f := q.sent[i]
	q.sent = slices.Delete(q.sent, i, i+1)
	if err := q.fill(); err != nil {
		return nil, err
	}
	return f.blk, f.err
}

// fill sends what q.batch holds and, from want, as many requests as keep
// FetchDepth on the wire, with one write.
func (q *fetchQueue) fill() error {
	for q.inflight+len(q.batch) < FetchDepth && len(q.want) > 0 {
		q.batch = append(q.batch, q.want[len(q.want)-1])
		q.want = q.want[:len(q.want)-1]
	}
	if len(q.batch) == 0 {
		return nil
	}
	for _, ref := range q.batch {
		q.sent = append(q.sent, sentFetch{ref: ref})
	}
	q.inflight += len(q.batch)
	err := q.s.sendFetches(q.batch)
	q.batch = q.batch[:0]
	return err
}

// receive reads the reply to q.sent[k] when it is still on the wire. Replies
// arrive in request order, so every reply before it was read already. A
// served error is kept for the fetch of its reference; a transport or
// framing error is returned, and the stream is dead.
func (q *fetchQueue) receive(k int) error {
	f := &q.sent[k]
	if f.got {
		return nil
	}
	typ, n, err := q.s.next()
	if err != nil {
		return err
	}
	if typ != msgBlock {
		return q.s.fail(fmt.Errorf("remote: expected frame type %d, got %d", msgBlock, typ))
	}
	blk, err := q.s.readBlock(n, &q.s.arena)
	if err != nil && q.s.err != nil {
		return err
	}
	f.got, f.blk, f.err = true, blk, err
	q.inflight--
	return nil
}

// drain reads every outstanding reply, keeping each for its fetch: the
// stream then carries nothing toward the worker, and the worker may write a
// result.
func (q *fetchQueue) drain() error {
	for k := 0; q.inflight > 0; k++ {
		if err := q.receive(k); err != nil {
			return err
		}
	}
	return nil
}

// finish drains the stream at the end of a task, before its msgDone or
// msgFail, and forgets what the task requested or named and did not fetch.
func (q *fetchQueue) finish() error {
	err := q.drain()
	clear(q.sent) // the blocks live in the arena the task's end resets
	q.sent, q.want, q.inflight = q.sent[:0], q.want[:0], 0
	return err
}
