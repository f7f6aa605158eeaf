package backend

import (
	"context"
	"errors"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"dgs/internal/proto"
	"dgs/internal/session"
)

// The session layer itself (version gate, deadlines, heartbeats, redial) is
// tested in internal/session; what follows is what the Collator and the
// StationAgent add on top of it.

func TestCollatorSeqDedup(t *testing.T) {
	c := NewCollator()
	r := &proto.ChunkReport{StationID: 1, Sat: 7, Seq: 1,
		Chunks: []proto.ChunkInfo{{ID: 10, Bits: 100, Received: rxTime}}}
	if !c.Report(r) {
		t.Fatal("first delivery rejected")
	}
	// Replay of the same sequenced report: dropped.
	if c.Report(r) {
		t.Fatal("replay applied")
	}
	if got := c.Receipts(7); !slices.Equal(got, []proto.ChunkInfo{{ID: 10, Received: rxTime}}) {
		t.Fatalf("receipts = %v, want chunk 10 once", got)
	}
	// Same Seq from a different station is independent.
	if !c.Report(&proto.ChunkReport{StationID: 2, Sat: 7, Seq: 1,
		Chunks: []proto.ChunkInfo{{ID: 11, Bits: 50, Received: rxTime}}}) {
		t.Fatal("other station's seq 1 rejected")
	}
	// Unsequenced reports (legacy) always apply.
	if !c.Report(&proto.ChunkReport{StationID: 1, Sat: 7,
		Chunks: []proto.ChunkInfo{{ID: 12, Bits: 25, Received: rxTime}}}) {
		t.Fatal("unsequenced report rejected")
	}
	if got := c.LastSeq(1); got != 1 {
		t.Fatalf("lastSeq(1) = %d, want 1", got)
	}
}

// connLog is a listener that remembers what it accepted, so a test can cut
// the server side of every live session.
type connLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func TestManagedAgentReconnectsAndResumes(t *testing.T) {
	srv := NewServer(nil)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &connLog{Listener: inner}
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	addr := inner.Addr().String()

	a := &StationAgent{
		ID: 21, Name: "managed",
		HeartbeatEvery: 50 * time.Millisecond,
		Backoff:        session.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := a.Connect(ctx, addr); err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	report := func(id uint64) {
		t.Helper()
		err := a.Report(&proto.ChunkReport{StationID: 21, Sat: 5,
			Chunks: []proto.ChunkInfo{{ID: id, Bits: 10, Received: rxTime}}})
		if err != nil {
			t.Fatalf("report %d: %v", id, err)
		}
	}

	report(1)

	// Kill every server-side connection; the managed agent must redial,
	// resume, and carry on.
	ln.mu.Lock()
	for _, c := range ln.conns {
		c.Close()
	}
	ln.mu.Unlock()

	report(2)
	report(3)

	if got := srv.Collator.Receipts(5); len(got) != 3 {
		t.Fatalf("collated receipts %v, want 3", got)
	}
	if got := srv.Collator.LastSeq(21); got != 3 {
		t.Fatalf("lastSeq = %d, want 3", got)
	}
}

func TestConnectFailsFastOnVersionMismatch(t *testing.T) {
	// A managed agent must not retry forever against a backend that speaks
	// a different protocol version — that error is permanent.
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
			go func(c net.Conn) {
				defer c.Close()
				if _, err := proto.Read(c); err != nil {
					return
				}
				_ = proto.Write(c, &proto.Error{Code: proto.CodeVersion, Msg: "incompatible"})
			}(conn)
		}
	}()

	a := &StationAgent{ID: 40, Name: "v?", Backoff: session.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = a.Connect(ctx, ln.Addr().String())
	if !errors.Is(err, proto.ErrVersion) {
		t.Fatalf("connect error = %v, want proto.ErrVersion", err)
	}
	a.Close()
}
