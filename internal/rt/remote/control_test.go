package remote

import (
	"bytes"
	"encoding/gob"
	"io"
	"net"
	"testing"
	"time"

	"fuseme/internal/cluster"
	"fuseme/internal/obs"
)

func gobBytes(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// joinRequest is what handleJoin makes of data: the first frame's type, and
// for a join or leave request whose payload decodes, the request.
func joinRequest(data []byte) (typ byte, req joinReq, decoded bool) {
	typ, payload, err := readFrame(bytes.NewReader(data), maxControlFrame)
	if err != nil {
		return 0, req, false
	}
	switch typ {
	case msgJoin:
		return typ, req, decodeGob(payload, &req) == nil
	case msgLeave:
		var leave leaveReq
		ok := decodeGob(payload, &leave) == nil
		return typ, joinReq{Addr: leave.Addr}, ok
	}
	return typ, req, false
}

// loopbackLiteral reports whether addr is host:port with a loopback IP
// literal as its host, an address dialling which stays on this machine.
func loopbackLiteral(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	ip := net.ParseIP(host)
	return err == nil && ip != nil && ip.IsLoopback()
}

// FuzzJoinListener: whatever bytes a peer sends the coordinator's join
// listener, handleJoin does not panic and replies with one msgMemberUpdate,
// one msgFail or nothing; a first frame that is not a join or leave request
// whose payload decodes gets no reply and leaves the cluster epoch as it
// was. A join request that would dial anything but a loopback IP literal is
// skipped, so the fuzzer never reaches past this machine.
func FuzzJoinListener(f *testing.F) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { w.Close(); w.Wait() })
	cfg := cluster.Config{Nodes: 1, TasksPerNode: 1, TaskMemBytes: 1 << 20, NetBandwidth: 1, CompBandwidth: 1, BlockSize: 4}
	co, err := NewCoordinatorConfig(cfg, []string{w.Addr()}, Config{DialTimeout: 100 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { co.Close() })

	join := frame(msgJoin, gobBytes(f, joinReq{Proto: protoVersion, Addr: w.Addr()}))
	f.Add([]byte{})
	f.Add(join) // already a member: admitted again as a no-op
	f.Add(join[:len(join)-1])
	f.Add(join[:3])
	f.Add(frame(msgJoin, gobBytes(f, joinReq{Proto: protoVersion - 1, Addr: w.Addr()})))
	f.Add(frame(msgJoin, gobBytes(f, joinReq{Proto: protoVersion, Addr: "127.0.0.1:1"}))) // nobody listens
	f.Add(frame(msgLeave, gobBytes(f, leaveReq{Addr: "127.0.0.1:1"})))                    // not a member
	f.Add(frame(msgJoin, gobBytes(f, leaveReq{Addr: w.Addr()})))                          // another request's payload
	f.Add(frame(msgJoin, []byte{1, 2, 3}))
	f.Add(frame(msgPing, nil))
	f.Add([]byte{msgJoin, 0x01, 0, 0, 1}) // above maxControlFrame
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, req, decoded := joinRequest(data)
		if typ == msgJoin && decoded && req.Proto == protoVersion && !loopbackLiteral(req.Addr) {
			t.Skip("the join would dial beyond loopback")
		}
		epoch := co.ClusterEpoch()
		srv, cli := net.Pipe()
		served := make(chan struct{})
		go func() { co.handleJoin(srv); close(served) }()
		go cli.Write(data) // handleJoin may hang up before reading it all
		reply, _ := io.ReadAll(cli)
		<-served
		cli.Close()

		if !decoded {
			if len(reply) != 0 {
				t.Fatalf("replied %x to a frame that is no request", reply)
			}
			if got := co.ClusterEpoch(); got != epoch {
				t.Fatalf("cluster epoch %d → %d on a frame that is no request", epoch, got)
			}
			return
		}
		if len(reply) == 0 {
			return
		}
		rtyp, payload, err := readFrame(bytes.NewReader(reply), maxControlFrame)
		if err != nil || len(reply) != frameHeaderSize+len(payload) {
			t.Fatalf("reply %x is not one frame (%v)", reply, err)
		}
		switch rtyp {
		case msgMemberUpdate:
			var upd memberUpdate
			err = decodeGob(payload, &upd)
		case msgFail:
			var fail taskFail
			err = decodeGob(payload, &fail)
		default:
			t.Fatalf("replied with frame type %d", rtyp)
		}
		if err != nil {
			t.Fatalf("reply of type %d does not decode: %v", rtyp, err)
		}
	})
}

// TestPingRejectsMalformedPong: a pong is an empty frame. A pong with any
// payload — a version 11 pong's worker clock included — or a reply that is no
// pong fails pingWorker and records no round trip; the empty pong records one.
func TestPingRejectsMalformedPong(t *testing.T) {
	v11Pong := gobBytes(t, struct{ UnixNano int64 }{time.Now().UnixNano()})
	for name, tc := range map[string]struct {
		reply []byte
		ok    bool
	}{
		"empty payload":      {frame(msgPong, nil), true},
		"version 11 pong":    {frame(msgPong, v11Pong), false},
		"garbage payload":    {frame(msgPong, []byte{0xde, 0xad, 0xbe, 0xef}), false},
		"cut payload":        {frame(msgPong, v11Pong[:len(v11Pong)-1]), false},
		"another type's gob": {frame(msgPong, gobBytes(t, hello{Proto: protoVersion})), false},
		"not a pong":         {frame(msgFail, gobBytes(t, taskFail{Err: "no"})), false},
		"above the cap":      {[]byte{msgPong, 0x01, 0, 0, 1}, false},
		"cut frame":          {frame(msgPong, v11Pong)[:frameHeaderSize+2], false},
	} {
		t.Run(name, func(t *testing.T) {
			conn, peer := net.Pipe()
			defer conn.Close()
			defer peer.Close()
			go func() {
				if _, err := expectFrame(peer, msgPing, maxControlFrame); err == nil {
					peer.Write(tc.reply)
				}
				peer.Close()
			}()
			co := &Coordinator{rcfg: DefaultConfig()}
			reg := obs.NewRegistry()
			co.reg.Store(reg)
			w := &workerConn{ctrl: conn}
			err := co.pingWorker(w)
			if (err == nil) != tc.ok {
				t.Fatalf("pingWorker = %v, want accepted %v", err, tc.ok)
			}
			want := int64(0)
			if tc.ok {
				want = 1
			}
			if got := reg.Histogram(obs.MHeartbeatRTT).Snapshot().Count; got != want {
				t.Fatalf("recorded %d round trips, want %d", got, want)
			}
		})
	}
}
