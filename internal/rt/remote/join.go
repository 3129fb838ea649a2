package remote

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// ServeJoin starts the coordinator's join listener on addr (host:port; use
// ":0" for an ephemeral port) and returns the bound address. Workers dial
// it to register (msgJoin) at any time — including workers replacing dead
// ones — and to announce voluntary departure (msgLeave) when draining.
// The listener stops with Coordinator.Close.
func (c *Coordinator) ServeJoin(addr string) (string, error) {
	if c.closed.Load() {
		return "", errors.New("remote: coordinator closed")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	c.joinMu.Lock()
	if c.joinLn != nil {
		c.joinMu.Unlock()
		ln.Close()
		return "", errors.New("remote: join listener already running")
	}
	c.joinLn = ln
	c.joinMu.Unlock()
	c.joinWG.Add(1)
	go func() {
		defer c.joinWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			c.joinWG.Add(1)
			go func() {
				defer c.joinWG.Done()
				c.handleJoin(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// JoinAddr returns the join listener's bound address, or "" when ServeJoin
// has not been called.
func (c *Coordinator) JoinAddr() string {
	c.joinMu.Lock()
	defer c.joinMu.Unlock()
	if c.joinLn == nil {
		return ""
	}
	return c.joinLn.Addr().String()
}

// handleJoin serves one join-listener connection: a single msgJoin or
// msgLeave request, answered with msgMemberUpdate (success — the payload is
// the post-change membership view) or msgFail.
func (c *Coordinator) handleJoin(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(c.rcfg.DialTimeout))
	typ, payload, err := readFrame(conn, maxControlFrame)
	if err != nil {
		return
	}
	switch typ {
	case msgJoin:
		var req joinReq
		if err := decodeGob(payload, &req); err != nil {
			return
		}
		if req.Proto != protoVersion {
			writeGob(conn, msgFail, taskFail{Err: fmt.Sprintf(
				"remote: protocol mismatch (coordinator v%d, worker v%d)", protoVersion, req.Proto)})
			return
		}
		if _, err := c.AddWorker(req.Addr); err != nil {
			writeGob(conn, msgFail, taskFail{Err: err.Error()})
			return
		}
		writeGob(conn, msgMemberUpdate, c.memberUpdateMsg())
	case msgLeave:
		var req leaveReq
		if err := decodeGob(payload, &req); err != nil {
			return
		}
		if err := c.removeWorker(req.Addr); err != nil {
			writeGob(conn, msgFail, taskFail{Err: err.Error()})
			return
		}
		writeGob(conn, msgMemberUpdate, c.memberUpdateMsg())
	}
}

// memberUpdateMsg snapshots the table into the join listener's reply.
func (c *Coordinator) memberUpdateMsg() memberUpdate {
	members := c.mem.Members()
	upd := memberUpdate{Epoch: c.mem.Epoch(), Members: make([]MemberInfo, len(members))}
	for i, m := range members {
		upd.Members[i] = MemberInfo{ID: m.ID, Addr: m.Addr, State: m.State.String(), Epoch: m.Epoch}
	}
	return upd
}

// Register dials a coordinator's join listener and registers the worker
// listening on workerAddr. On success it returns the coordinator's
// post-join membership view. The whole exchange is bounded by timeout.
func Register(joinAddr, workerAddr string, timeout time.Duration) ([]MemberInfo, error) {
	upd, err := joinExchange(joinAddr, timeout, msgJoin, joinReq{Proto: protoVersion, Addr: workerAddr})
	if err != nil {
		return nil, err
	}
	return upd.Members, nil
}

// Leave announces the departure of the worker listening on workerAddr to a
// coordinator's join listener (the drain path). The coordinator stops
// dispatching immediately; the caller should then Worker.Drain before
// exiting.
func Leave(joinAddr, workerAddr string, timeout time.Duration) error {
	_, err := joinExchange(joinAddr, timeout, msgLeave, leaveReq{Addr: workerAddr})
	return err
}

// joinExchange runs one request/response exchange on a fresh join-listener
// connection.
func joinExchange(joinAddr string, timeout time.Duration, typ byte, req any) (memberUpdate, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", joinAddr, timeout)
	if err != nil {
		return memberUpdate{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := writeGob(conn, typ, req); err != nil {
		return memberUpdate{}, err
	}
	rtyp, payload, err := readFrame(conn, maxControlFrame)
	if err != nil {
		return memberUpdate{}, err
	}
	switch rtyp {
	case msgMemberUpdate:
		var upd memberUpdate
		if err := decodeGob(payload, &upd); err != nil {
			return memberUpdate{}, err
		}
		return upd, nil
	case msgFail:
		var fail taskFail
		if err := decodeGob(payload, &fail); err != nil {
			return memberUpdate{}, err
		}
		return memberUpdate{}, errors.New(fail.Err)
	default:
		return memberUpdate{}, fmt.Errorf("remote: unexpected frame type %d from join listener", rtyp)
	}
}
