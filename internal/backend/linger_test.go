package backend_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"dgs/internal/backend"
	"dgs/internal/proto"
)

// lingerNet is an in-memory network of buffered pipes that pins one
// scheduling order: a client-side Write does not return until the peer's
// answer to it has been read in full by a concurrent reader on the same
// connection — that reader is back in Read, waiting on an empty buffer —
// or grace passes with no answer (a frame that gets none, or one whose
// writer reads the answer itself, as in a handshake). It makes "the reply
// was dispatched before the request's Write returned" deterministic: the
// order under which a client that registers its reply waiter after writing
// loses the reply. Deadlines are accepted and ignored. With zero grace no
// Write waits: it is a plain in-memory network (ExampleStationAgent).
type lingerNet struct {
	grace  time.Duration
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func newLingerNet(grace time.Duration) *lingerNet {
	return &lingerNet{grace: grace, accept: make(chan net.Conn), done: make(chan struct{})}
}

// Dial connects a new pipe to the listener and returns its client end.
func (l *lingerNet) Dial() (net.Conn, error) {
	up, down := newHalfPipe(), newHalfPipe()
	select {
	case l.accept <- &lingerConn{in: up, out: down}:
		return &lingerConn{in: down, out: up, grace: l.grace}, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *lingerNet) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *lingerNet) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *lingerNet) Addr() net.Addr { return lingerAddr{} }

type lingerAddr struct{}

func (lingerAddr) Network() string { return "linger" }
func (lingerAddr) String() string  { return "linger" }

// halfPipe is one direction of a connection: an unbounded byte queue.
type halfPipe struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte
	arrived int  // bytes ever queued
	parked  bool // the reader is blocked on an empty queue
	closed  bool
}

func newHalfPipe() *halfPipe {
	h := &halfPipe{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

type lingerConn struct {
	in, out *halfPipe
	grace   time.Duration // > 0 on the client end
}

func (c *lingerConn) Read(p []byte) (int, error) {
	h := c.in
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.buf) == 0 {
		if h.closed {
			return 0, net.ErrClosed
		}
		h.parked = true
		h.cond.Broadcast() // a lingering Write may be waiting for exactly this
		h.cond.Wait()
	}
	h.parked = false
	n := copy(p, h.buf)
	h.buf = h.buf[n:]
	return n, nil
}

func (c *lingerConn) Write(p []byte) (int, error) {
	in, out := c.in, c.out
	in.mu.Lock()
	before := in.arrived
	in.mu.Unlock()

	out.mu.Lock()
	if out.closed {
		out.mu.Unlock()
		return 0, net.ErrClosed
	}
	out.buf = append(out.buf, p...)
	out.arrived += len(p)
	out.cond.Broadcast()
	out.mu.Unlock()

	if c.grace > 0 {
		expired := false
		t := time.AfterFunc(c.grace, func() {
			in.mu.Lock()
			expired = true
			in.cond.Broadcast()
			in.mu.Unlock()
		})
		defer t.Stop()
		in.mu.Lock()
		for !expired && !in.closed && !(in.arrived > before && len(in.buf) == 0 && in.parked) {
			in.cond.Wait()
		}
		in.mu.Unlock()
	}
	return len(p), nil
}

func (c *lingerConn) Close() error {
	for _, h := range []*halfPipe{c.in, c.out} {
		h.mu.Lock()
		h.closed = true
		h.cond.Broadcast()
		h.mu.Unlock()
	}
	return nil
}

func (c *lingerConn) LocalAddr() net.Addr              { return lingerAddr{} }
func (c *lingerConn) RemoteAddr() net.Addr             { return lingerAddr{} }
func (c *lingerConn) SetDeadline(time.Time) error      { return nil }
func (c *lingerConn) SetReadDeadline(time.Time) error  { return nil }
func (c *lingerConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplyBeforeWriteReturns pins the ordering that used to lose replies
// for a session client: over a connection whose Write returns only after
// the peer's answer has been read and dispatched, every round trip must
// still find its waiter. A client that registers the waiter after writing
// drops the reply as unsolicited and waits forever — the StationAgent did,
// already in its Resume probe.
func TestReplyBeforeWriteReturns(t *testing.T) {
	const trips = 1000
	t.Run("StationAgent", func(t *testing.T) {
		var mu sync.Mutex
		var logged []string
		logf := func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		ln := newLingerNet(20 * time.Millisecond)
		srv := backend.NewServer(nil)
		srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		a := &backend.StationAgent{ID: 8, Name: "eager", TxCapable: true, Logf: logf}
		backend.SetDial(a, func(context.Context) (net.Conn, error) { return ln.Dial() })
		done := make(chan error, 1)
		go func() {
			if err := a.Connect(t.Context(), "linger"); err != nil {
				done <- err
				return
			}
			for i := uint64(1); i <= trips/2; i++ {
				if err := a.Report(&proto.ChunkReport{StationID: 8, Sat: 1,
					Chunks: []proto.ChunkInfo{{ID: i, Bits: 1, Received: backend.RxTime}}}); err != nil {
					done <- fmt.Errorf("report %d: %w", i, err)
					return
				}
				if d, err := a.FetchDigest(1); err != nil || len(d.ChunkIDs) != 1 {
					done <- fmt.Errorf("digest %d: %v, %v", i, d, err)
					return
				}
			}
			done <- nil
		}()
		t.Cleanup(func() { a.Close() })
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("round trips hung: a reply was dispatched before its waiter existed")
		}
		mu.Lock()
		defer mu.Unlock()
		if s := strings.Join(logged, "\n"); strings.Contains(s, "unsolicited") {
			t.Fatalf("replies dropped as unsolicited:\n%s", s)
		}
	})
}
