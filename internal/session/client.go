package session

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"dgs/internal/proto"
)

// ErrClosed is returned by Run after Close.
var ErrClosed = errors.New("session: client closed")

// Client is the dialing end: one managed connection to a Server. The owner
// fills the exported fields, then calls Run, which keeps a session up until
// told to stop. The three callbacks are how it hears back; they run on the
// client's goroutines, never concurrently for one session, and must not
// call Close.
type Client struct {
	// Dial opens the transport; ctx bounds the attempt.
	Dial func(ctx context.Context) (net.Conn, error)
	// Hello introduces the owner; Version is filled in here.
	Hello proto.Hello
	// HeartbeatEvery is the idle keepalive interval
	// (DefaultHeartbeatEvery); ReadTimeout defaults to three of them,
	// WriteTimeout to DefaultWriteTimeout.
	HeartbeatEvery, ReadTimeout, WriteTimeout time.Duration
	// Backoff paces Run's failed attempts; Rand, seeded by the owner,
	// supplies its jitter (nil: none).
	Backoff Backoff
	Rand    *rand.Rand

	// Up announces an established session and the resume point the peer
	// reported for Hello.StationID. Requests go out through c.Send.
	Up func(c *Conn, lastSeq uint64)
	// Frame receives every frame that is neither a heartbeat nor part of
	// the handshake — including ones that arrive during it, before Up.
	Frame func(m proto.Message)
	// Down reports, once per Up, that the session is over and why.
	Down func(c *Conn, err error)

	mu      sync.Mutex
	conn    *Conn // handshaking or live; Close interrupts it
	closed  bool
	closeCh chan struct{}
}

// closing returns the channel Close closes.
func (c *Client) closing() chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closeCh == nil {
		c.closeCh = make(chan struct{})
	}
	return c.closeCh
}

// Close ends the current session, stops Run, and returns once Down has
// been delivered for a session that was up.
func (c *Client) Close() {
	ch := c.closing()
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(ch)
	}
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		conn.nc.Close()
		<-conn.ended
	}
}

// Run keeps a session up until ctx ends, Close, or a version mismatch (an
// error matching proto.ErrVersion), and returns why it stopped. Each
// attempt is dial, Hello→OK, Resume. A session that was established and
// then died is redialed at once; only failed attempts back off.
func (c *Client) Run(ctx context.Context) error {
	closing := c.closing()
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return err
		}
		var pause time.Duration
		conn, err := c.connect(ctx)
		switch {
		case err == nil:
			attempt = 0
			select {
			case <-conn.ended:
			case <-ctx.Done():
				conn.nc.Close()
				<-conn.ended
			}
		case errors.Is(err, proto.ErrVersion) || errors.Is(err, ErrClosed):
			return err // permanent: retrying cannot help
		default:
			pause = c.Backoff.Delay(attempt, c.Rand)
			attempt++
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-closing:
			return ErrClosed
		case <-time.After(pause):
		}
	}
}

// connect makes one attempt. On success the session is up and serves in
// the background until the connection dies or Close; ctx bounds the
// handshake.
func (c *Client) connect(ctx context.Context) (*Conn, error) {
	nc, err := c.Dial(ctx)
	if err != nil {
		return nil, err
	}
	hb := orDefault(c.HeartbeatEvery, DefaultHeartbeatEvery)
	conn := &Conn{
		nc:           nc,
		readTimeout:  orDefault(c.ReadTimeout, 3*hb),
		writeTimeout: orDefault(c.WriteTimeout, DefaultWriteTimeout),
		ended:        make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClosed
	}
	c.conn = conn
	c.mu.Unlock()

	// ctx bounds the handshake by closing the connection under it.
	stop := context.AfterFunc(ctx, func() { nc.Close() })
	lastSeq, err := c.handshake(conn)
	if !stop() || err != nil {
		nc.Close()
		close(conn.ended)
		return nil, cmp.Or(ctx.Err(), err)
	}
	c.Up(conn, lastSeq)
	go c.serve(conn, hb)
	return conn, nil
}

// handshake introduces the client and learns the peer's resume point.
func (c *Client) handshake(conn *Conn) (lastSeq uint64, err error) {
	hello := c.Hello
	hello.Version = proto.Version
	if err := conn.Send(&hello); err != nil {
		return 0, err
	}
	if _, err := c.await(conn, proto.TypeOK); err != nil {
		return 0, err
	}
	if err := conn.Send(&proto.Resume{StationID: hello.StationID}); err != nil {
		return 0, err
	}
	m, err := c.await(conn, proto.TypeResume)
	if err != nil {
		return 0, err
	}
	return m.(*proto.Resume).LastSeq, nil
}

// await reads up to the handshake reply of type want. An Error frame is the
// peer refusing the handshake; anything else is a push that overtook the
// reply (a schedule broadcast, an epoch change) and belongs to the owner.
func (c *Client) await(conn *Conn, want proto.MsgType) (proto.Message, error) {
	for {
		msg, err := conn.next()
		if err != nil {
			return nil, err
		}
		if e, ok := msg.(*proto.Error); ok {
			return nil, e
		}
		if msg.Type() == want {
			return msg, nil
		}
		c.Frame(msg)
	}
}

// serve runs one established session: a pinger beside the read loop.
func (c *Client) serve(conn *Conn, hb time.Duration) {
	defer close(conn.ended)
	done, pinger := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pinger)
		t := time.NewTicker(hb)
		defer t.Stop()
		for seq := uint64(1); ; seq++ {
			select {
			case <-done:
				return
			case <-t.C:
				if conn.Send(&proto.Heartbeat{Seq: seq}) != nil {
					return // Send closed the connection; the read loop ends next
				}
			}
		}
	}()
	err := conn.pump(c.Frame)
	conn.nc.Close()
	close(done)
	<-pinger
	c.Down(conn, err)
}
