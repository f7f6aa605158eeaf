package session

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/proto"
)

// The layer is tested here once, against the smallest possible owner on
// each end; what the real owners add (collation and replay in
// internal/backend, query correlation and merging in internal/serve) is
// tested where it lives.

// startEcho runs a Server whose handler answers Resume probes with lastSeq
// and ChunkReports (the stand-in request) with OK, unless mute.
func startEcho(t *testing.T, addr string, lastSeq uint64, mute bool, tweak func(*Server)) (*Server, string) {
	t.Helper()
	s := &Server{}
	s.Init("backend", "station", func(c *Conn) (func(proto.Message), func()) {
		return func(msg proto.Message) {
			switch m := msg.(type) {
			case *proto.Resume:
				_ = c.Send(&proto.Resume{StationID: m.StationID, LastSeq: lastSeq})
			case *proto.ChunkReport:
				if !mute {
					_ = c.Send(&proto.OK{})
				}
			default:
				c.Reject(msg)
			}
		}, nil
	})
	if tweak != nil {
		tweak(s)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("address %s not immediately reusable: %v", addr, err)
	}
	s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

// probe is the smallest client-side owner: it forwards the three callbacks
// to channels.
type probe struct {
	*Client
	ups    chan uint64
	frames chan proto.Message
	downs  chan error
	conn   atomic.Pointer[Conn]
}

func newProbe(t *testing.T, addr string, hb time.Duration) *probe {
	p := &probe{ups: make(chan uint64, 8), frames: make(chan proto.Message, 8), downs: make(chan error, 8)}
	p.Client = &Client{
		Dial: func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		Hello:          proto.Hello{StationID: 7, Name: "probe"},
		HeartbeatEvery: hb,
		Backoff:        Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Up:             func(c *Conn, lastSeq uint64) { p.conn.Store(c); p.ups <- lastSeq },
		Frame:          func(m proto.Message) { p.frames <- m },
		Down:           func(_ *Conn, err error) { p.downs <- err },
	}
	t.Cleanup(p.Close)
	return p
}

func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestBackoffDelayGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w*time.Millisecond {
			t.Fatalf("delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Minute, Factor: 2, Jitter: 0.2}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		d := b.Delay(0, rng)
		if d < 80*time.Millisecond || d > 120*time.Millisecond {
			t.Fatalf("jittered delay %v outside ±20%% of 100ms", d)
		}
	}
	// Nil rng: deterministic, no jitter.
	if d := b.Delay(0, nil); d != 100*time.Millisecond {
		t.Fatalf("nil-rng delay = %v", d)
	}
}

// firstReply dials raw, writes one frame, and returns the server's answer.
func firstReply(t *testing.T, addr string, m proto.Message) *proto.Error {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.Write(conn, m); err != nil {
		t.Fatal(err)
	}
	msg, err := proto.Read(conn)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	e, ok := msg.(*proto.Error)
	if !ok {
		t.Fatalf("expected error frame, got type %d", msg.Type())
	}
	return e
}

func TestVersionMismatchRejected(t *testing.T) {
	_, addr := startEcho(t, "127.0.0.1:0", 0, false, nil)
	e := firstReply(t, addr, &proto.Hello{Version: proto.Version + 1, StationID: 1, Name: "old"})
	if !errors.Is(e, proto.ErrVersion) {
		t.Fatalf("error %v does not match proto.ErrVersion", e)
	}
	if want := "station speaks v3, backend speaks v2"; e.Msg != want {
		t.Fatalf("message %q, want %q", e.Msg, want)
	}
}

func TestServerRejectsNonHelloHandshake(t *testing.T) {
	_, addr := startEcho(t, "127.0.0.1:0", 0, false, nil)
	e := firstReply(t, addr, &proto.OK{})
	if e.Code != proto.CodeBadRequest || e.Msg != "expected hello" {
		t.Fatalf("reply = code %d %q", e.Code, e.Msg)
	}
}

func TestRunFailsFastOnVersionMismatch(t *testing.T) {
	// A managed client must not retry forever against a peer that speaks a
	// different protocol version — that error is permanent.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				if _, err := proto.Read(c); err != nil {
					return
				}
				_ = proto.Write(c, &proto.Error{Code: proto.CodeVersion, Msg: "incompatible"})
			}(conn)
		}
	}()

	p := newProbe(t, ln.Addr().String(), 0)
	if err := p.Run(testCtx(t)); !errors.Is(err, proto.ErrVersion) {
		t.Fatalf("run error = %v, want proto.ErrVersion", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials against an incompatible peer, want 1", n)
	}
}

func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	// Server read deadline far shorter than the test; client heartbeats
	// keep the otherwise-idle session open.
	_, addr := startEcho(t, "127.0.0.1:0", 0, false, func(s *Server) { s.ReadTimeout = 200 * time.Millisecond })
	p := newProbe(t, addr, 50*time.Millisecond)
	go p.Run(t.Context())
	recv(t, p.ups, "session up")
	time.Sleep(600 * time.Millisecond) // 3× the server deadline, all idle
	if err := p.conn.Load().Send(&proto.ChunkReport{StationID: 7, Sat: 1, Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1}}}); err != nil {
		t.Fatalf("send after idle period: %v (heartbeats failed to keep the session alive)", err)
	}
	if _, ok := recv(t, p.frames, "reply after idle period").(*proto.OK); !ok {
		t.Fatal("reply after idle period is not OK")
	}
	select {
	case err := <-p.downs:
		t.Fatalf("session dropped while heartbeating: %v", err)
	default:
	}
}

func TestIdleSessionDroppedWithoutHeartbeats(t *testing.T) {
	// Inverse of the above: a client with a huge heartbeat interval gets
	// dropped by the server's read deadline while idle. Guards against the
	// deadline being silently disabled.
	_, addr := startEcho(t, "127.0.0.1:0", 0, false, func(s *Server) { s.ReadTimeout = 100 * time.Millisecond })
	p := newProbe(t, addr, time.Hour)
	go p.Run(t.Context())
	recv(t, p.ups, "session up")
	recv(t, p.downs, "the server to drop a silent client past its read deadline")
}

func TestCloseUnblocksPending(t *testing.T) {
	// A request the peer never answers: Close must deliver Down (which is
	// where owners fail their waiters), end Run, and refuse later use.
	_, addr := startEcho(t, "127.0.0.1:0", 0, true, nil)
	p := newProbe(t, addr, 0)
	ctx, ran := testCtx(t), make(chan error, 1)
	go func() { ran <- p.Run(ctx) }()
	recv(t, p.ups, "session up")
	if err := p.conn.Load().Send(&proto.ChunkReport{StationID: 7, Sat: 1, Chunks: []proto.ChunkInfo{{ID: 1, Bits: 1}}}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	select {
	case <-p.downs:
	default:
		t.Fatal("Close returned before Down was delivered")
	}
	if err := recv(t, ran, "Run to return"); !errors.Is(err, ErrClosed) {
		t.Fatalf("run error = %v, want ErrClosed", err)
	}
	if err := p.Run(testCtx(t)); !errors.Is(err, ErrClosed) {
		t.Fatalf("run after close = %v, want ErrClosed", err)
	}
}

func TestRunRedialsAndResumesAfterServerRestart(t *testing.T) {
	srv, addr := startEcho(t, "127.0.0.1:0", 7, false, nil)
	p := newProbe(t, addr, 0)
	go p.Run(testCtx(t))
	if got := recv(t, p.ups, "first session"); got != 7 {
		t.Fatalf("resume point = %d, want 7", got)
	}
	// Restart the server on the same address with different resume state:
	// the client must notice, redial under backoff, and hand the owner the
	// new server's answer.
	srv.Close()
	recv(t, p.downs, "session down after server shutdown")
	startEcho(t, addr, 3, false, nil)
	if got := recv(t, p.ups, "second session"); got != 3 {
		t.Fatalf("resume point after restart = %d, want 3", got)
	}
}
