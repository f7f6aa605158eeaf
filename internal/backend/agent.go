package backend

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"dgs/internal/proto"
	"dgs/internal/session"
)

// DefaultDialTimeout bounds one TCP connect attempt.
const DefaultDialTimeout = 10 * time.Second

// ErrAgentClosed is returned by operations on an agent after Close.
var ErrAgentClosed = errors.New("backend: agent closed")

var errNotConnected = errors.New("backend: not connected")

// StationAgent is the station-side client: it reports received chunks,
// receives schedule broadcasts, and (for TX stations) fetches ack digests.
// The connection underneath is a session.Client; the agent adds what is
// the station's own: replies matched to requests in order, and reports
// replayed by sequence number across reconnects.
//
// Connect establishes a managed session: the agent redials with
// exponential backoff plus jitter whenever the connection fails, then
// resumes — it learns the backend's last collated report sequence number
// and replays only lost reports. Report therefore blocks until the report
// is durably collated (or Connect's context ends), and is safe to retry
// across any number of resets: sequence numbers make re-collation
// impossible.
//
// Requests on one agent are serialized; run one agent per station.
type StationAgent struct {
	// ID and Name identify the station.
	ID   uint32
	Name string
	// TxCapable enables digest fetching.
	TxCapable bool
	// OnSchedule, when set, is invoked for every schedule broadcast.
	OnSchedule func(*proto.Schedule)
	// HeartbeatEvery is the keepalive interval (default 15 s); the read
	// deadline is three heartbeat intervals.
	HeartbeatEvery time.Duration
	// WriteTimeout bounds one frame write (default 10 s).
	WriteTimeout time.Duration
	// Backoff paces reconnects (zero value = defaults).
	Backoff session.Backoff
	// Logf, when set, receives diagnostics (default log.Printf).
	Logf func(format string, args ...any)

	// dial replaces the TCP dialer in tests.
	dial func(ctx context.Context) (net.Conn, error)

	// reqMu serializes requests: replies carry no id, so at most one may
	// be outstanding for the in-order match to hold.
	reqMu sync.Mutex

	mu      sync.Mutex
	changed *sync.Cond // signalled whenever conn, final or closed change
	client  *session.Client
	conn    *session.Conn      // nil while the session is down
	lastSeq uint64             // backend's collated seq when conn came up
	waiter  chan proto.Message // the outstanding request's reply slot
	nextSeq uint64
	err     error // why conn is nil
	final   bool  // no redial will follow
	closed  bool
}

func (a *StationAgent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Connect establishes the agent's managed session: it keeps dialing under
// the backoff policy until the handshake succeeds or ctx ends, and the
// session transparently reconnects and resumes after any later failure.
// ctx bounds the whole session, not just this call.
func (a *StationAgent) Connect(ctx context.Context, addr string) error {
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	dial := a.dial
	if dial == nil {
		d := net.Dialer{Timeout: DefaultDialTimeout}
		dial = func(ctx context.Context) (net.Conn, error) { return d.DialContext(ctx, "tcp", addr) }
	}
	c := &session.Client{
		Dial:           dial,
		Hello:          proto.Hello{StationID: a.ID, TxCapable: a.TxCapable, Name: a.Name},
		HeartbeatEvery: a.HeartbeatEvery,
		WriteTimeout:   a.WriteTimeout,
		Backoff:        a.Backoff,
		Rand:           rand.New(rand.NewSource(int64(a.ID)*7919 + 1)),
		Up:             a.up,
		Frame:          a.frame,
		Down:           a.down,
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return ErrAgentClosed
	}
	a.client, a.final, a.err = c, false, errNotConnected
	a.changed = sync.NewCond(&a.mu)
	a.mu.Unlock()
	go func() {
		err := c.Run(ctx)
		a.mu.Lock()
		a.final, a.err = true, err
		a.changed.Broadcast()
		a.mu.Unlock()
	}()
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.awaitSession()
}

// up records a new session. A restarted agent process adopts the backend's
// sequence state, so its numbers keep rising past what was collated.
func (a *StationAgent) up(c *session.Conn, lastSeq uint64) {
	a.mu.Lock()
	a.conn, a.lastSeq, a.err = c, lastSeq, nil
	a.nextSeq = max(a.nextSeq, lastSeq)
	a.changed.Broadcast()
	a.mu.Unlock()
}

// down fails the outstanding request; rpc then waits for the next session
// and replays it.
func (a *StationAgent) down(_ *session.Conn, err error) {
	a.mu.Lock()
	a.conn, a.err = nil, err
	if a.waiter != nil {
		close(a.waiter)
		a.waiter = nil
	}
	a.changed.Broadcast()
	a.mu.Unlock()
}

// frame dispatches schedule broadcasts to OnSchedule and everything else to
// the waiting request.
func (a *StationAgent) frame(msg proto.Message) {
	if s, ok := msg.(*proto.Schedule); ok {
		if a.OnSchedule != nil {
			a.OnSchedule(s)
		}
		return
	}
	a.mu.Lock()
	w := a.waiter
	a.waiter = nil
	a.mu.Unlock()
	if w == nil {
		a.logf("station %d: unsolicited message type %d", a.ID, msg.Type())
		return
	}
	w <- msg
}

// awaitSession waits, with mu held, until a session is up or none will come.
func (a *StationAgent) awaitSession() error {
	for a.client != nil && a.conn == nil && !a.final && !a.closed {
		a.changed.Wait() // a redial is under way
	}
	switch {
	case a.closed:
		return ErrAgentClosed
	case a.client == nil:
		return errNotConnected
	case a.conn == nil:
		return a.err
	}
	return nil
}

// rpc performs one request/response exchange, retrying across reconnects
// until Connect's context ends (then awaitSession returns why). seq, when
// nonzero, is the request's report sequence number:
// after a reconnect the resume state may show it already collated, in which
// case the lost OK is synthesized instead of re-sending. A refusal from the
// backend comes back as the error. Callers hold reqMu.
func (a *StationAgent) rpc(m proto.Message, seq uint64) (proto.Message, error) {
	for {
		a.mu.Lock()
		if err := a.awaitSession(); err != nil {
			a.mu.Unlock()
			return nil, err
		}
		if seq != 0 && a.lastSeq >= seq {
			a.mu.Unlock()
			return &proto.OK{}, nil // collated before the previous session died
		}
		// The reply slot is registered before the request is written, so
		// however fast the reply comes back it finds its waiter.
		conn, w := a.conn, make(chan proto.Message, 1)
		a.waiter = w
		a.mu.Unlock()
		_ = conn.Send(m) // a failed Send closes the connection, and down closes w
		resp, ok := <-w
		if e, refused := resp.(*proto.Error); refused {
			return nil, e
		}
		if ok {
			return resp, nil
		}
	}
}

// Report sends chunk receipts and waits until the backend has collated
// them. The agent assigns r.Seq when zero; delivery survives arbitrary
// connection failures (at-least-once on the wire, exactly-once in the
// collator).
func (a *StationAgent) Report(r *proto.ChunkReport) error {
	if len(r.Chunks) == 0 {
		return errors.New("backend: empty report (use FetchDigest)")
	}
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	if r.Seq == 0 {
		a.mu.Lock()
		a.nextSeq++
		r.Seq = a.nextSeq
		a.mu.Unlock()
	}
	resp, err := a.rpc(r, r.Seq)
	if err != nil {
		return err
	}
	if _, ok := resp.(*proto.OK); !ok {
		return fmt.Errorf("backend: unexpected response type %d", resp.Type())
	}
	return nil
}

// FetchDigest retrieves (and consumes) the cumulative ack digest for a
// satellite. Only TX-capable stations may call it. Unlike Report, a digest
// lost to a connection failure mid-reply is not replayed (the poll itself
// is retried, but acks consumed by a reply the station never saw surface
// again only through the satellite's nack timeout).
func (a *StationAgent) FetchDigest(sat uint32) (*proto.AckDigest, error) {
	a.reqMu.Lock()
	defer a.reqMu.Unlock()
	resp, err := a.rpc(&proto.ChunkReport{StationID: a.ID, Sat: sat}, 0)
	if err != nil {
		return nil, err
	}
	d, ok := resp.(*proto.AckDigest)
	if !ok {
		return nil, fmt.Errorf("backend: unexpected response type %d", resp.Type())
	}
	return d, nil
}

// Close tears down the agent and any live session; pending and later calls
// return ErrAgentClosed or the connection error.
func (a *StationAgent) Close() error {
	a.mu.Lock()
	a.closed = true
	c := a.client
	a.mu.Unlock()
	if c != nil {
		a.changed.Broadcast()
		c.Close()
	}
	return nil
}
