// Package session is the managed wire session the station↔backend
// internal/proto hop (internal/backend) runs on. It owns the connection's
// life and nothing of what the two ends say to each other.
//
// Both ends put a deadline around every frame in either direction and
// serialize writers on one lock. The accepting end (Server) gates each
// connection on a Hello of the current protocol version, answers OK, and
// keeps a registry of admitted connections. The dialing end (Client) dials,
// handshakes (Hello→OK, then a Resume probe whose reply carries the peer's
// resume point), pings while idle so both read deadlines hold, and redials
// with caller-seeded exponential backoff whenever the connection dies. A version mismatch is permanent and never retried.
// Heartbeats are absorbed here in both directions; every other frame is
// handed to the owner.
//
// Reply correlation is deliberately not here: stations match replies in
// FIFO order and replay by sequence number across reconnects. The one rule
// an owner follows is to register the reply's waiter before handing the
// request to Conn.Send, so a reply can never arrive ahead of whoever waits
// for it.
package session

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dgs/internal/proto"
)

// Default session timings. A read deadline must comfortably exceed the
// peer's heartbeat interval.
const (
	// DefaultReadTimeout bounds a server's wait for the next frame;
	// heartbeats keep healthy idle peers inside it.
	DefaultReadTimeout = 90 * time.Second
	// DefaultWriteTimeout bounds any single frame write on either end.
	DefaultWriteTimeout = 10 * time.Second
	// DefaultHeartbeatEvery is the client's idle keepalive interval; its
	// own read deadline defaults to three of them.
	DefaultHeartbeatEvery = 15 * time.Second
)

func orDefault(v, def time.Duration) time.Duration {
	if v > 0 {
		return v
	}
	return def
}

// Conn is one framed connection.
type Conn struct {
	// Hello is the peer's introduction on a server-side connection.
	Hello proto.Hello

	nc           net.Conn
	wmu          sync.Mutex // serializes frames on the connection
	readTimeout  time.Duration
	writeTimeout time.Duration
	ended        chan struct{} // client side: closed once the session is over and Down has run
}

// Send writes one frame under the write lock and deadline. A failed write
// may have left a partial frame on the stream, so it closes the connection:
// the reader fails next and the owner hears about it there.
func (c *Conn) Send(m proto.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	err := proto.Write(c.nc, m)
	if err != nil {
		c.nc.Close()
	}
	return err
}

// Reject answers a frame the owner has no use for.
func (c *Conn) Reject(m proto.Message) {
	_ = c.Send(&proto.Error{
		Code: proto.CodeBadRequest,
		Msg:  fmt.Sprintf("unexpected message type %d", m.Type()),
	})
}

// recv waits for the next frame under the read deadline.
func (c *Conn) recv() (proto.Message, error) {
	c.nc.SetReadDeadline(time.Now().Add(c.readTimeout))
	return proto.Read(c.nc)
}

// next returns the next frame that is not a heartbeat: pings are echoed,
// pongs only refresh the deadline. Any error — deadline, reset, garbage on
// the stream — may mean the framing is desynced, so the only recovery is a
// fresh connection; Resume makes that cheap.
func (c *Conn) next() (proto.Message, error) {
	for {
		msg, err := c.recv()
		if err != nil {
			return nil, err
		}
		hb, ok := msg.(*proto.Heartbeat)
		if !ok {
			return msg, nil
		}
		if !hb.Ack {
			if err := c.Send(&proto.Heartbeat{Seq: hb.Seq, Ack: true}); err != nil {
				return nil, err
			}
		}
	}
}

// pump hands every frame next returns to f until the connection fails, and
// reports why it did.
func (c *Conn) pump(f func(proto.Message)) error {
	for {
		msg, err := c.next()
		if err != nil {
			return err
		}
		f(msg)
	}
}
