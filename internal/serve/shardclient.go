package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"dgs/internal/proto"
	"dgs/internal/session"
)

// shardClient is the front tier's end of one shard session. The connection
// underneath is a session.Client under Run (dial, handshake, heartbeats,
// seeded-backoff redial; the Resume reply's LastSeq carries the shard's
// world epoch, which makes the handshake double as the rejoin path); the
// shardClient adds what is the front tier's own: ShardQuery/ShardReply
// pairs correlated by ID, failing fast while the session is down so the
// Federator degrades rather than blocks. Connectivity transitions and epoch
// pushes kick onEvent so the Federator can rebuild its merged world.
type shardClient struct {
	idx     int
	addr    string
	logf    func(format string, args ...any)
	onEvent func()
	sess    *session.Client

	mu      sync.Mutex
	conn    *session.Conn // nil while the session is down
	pending map[uint64]chan *proto.ShardReply
	nextID  uint64
	fatal   error // why no session will ever come up again
}

func newShardClient(idx int, addr string, cfg FederatorConfig, logf func(string, ...any), onEvent func()) *shardClient {
	dial := cfg.Dial
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.DialTimeout("tcp", a, 5*time.Second) }
	}
	c := &shardClient{
		idx:     idx,
		addr:    addr,
		logf:    logf,
		onEvent: onEvent,
		pending: make(map[uint64]chan *proto.ShardReply),
	}
	c.sess = &session.Client{
		Dial:           func(context.Context) (net.Conn, error) { return dial(addr) },
		Hello:          proto.Hello{StationID: uint32(idx), Name: fmt.Sprintf("front/%d", idx)},
		HeartbeatEvery: cfg.Heartbeat,
		// A shard busy planning still answers pings, but give a reply as
		// long as a query gets before calling the session dead.
		ReadTimeout:  max(3*cfg.Heartbeat, cfg.CallTimeout),
		WriteTimeout: cfg.CallTimeout,
		Backoff:      cfg.Backoff,
		// Seeded by the shard index, so a chaos schedule replays the same
		// reconnect cadence every run.
		Rand:  rand.New(rand.NewSource(0x5eed<<8 | int64(idx))),
		Up:    c.up,
		Frame: c.frame,
		Down:  c.down,
	}
	go func() {
		err := c.sess.Run(context.Background())
		if !errors.Is(err, session.ErrClosed) {
			c.logf("serve: shard %d (%s): giving up: %v", idx, addr, err)
		}
		c.mu.Lock()
		c.fatal = err
		c.mu.Unlock()
		onEvent()
	}()
	return c
}

// Alive reports whether the session is currently established.
func (c *shardClient) Alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil
}

// Close ends the session for good; in-flight calls fail as lost mid-call.
func (c *shardClient) Close() { c.sess.Close() }

func (c *shardClient) up(conn *session.Conn, _ uint64) {
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
	c.onEvent()
}

// down fails every in-flight call: the reply can never arrive on a new
// session (the server's state died with the connection).
func (c *shardClient) down(*session.Conn, error) {
	c.mu.Lock()
	c.conn = nil
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	c.onEvent()
}

func (c *shardClient) frame(msg proto.Message) {
	switch m := msg.(type) {
	case *proto.ShardReply:
		c.mu.Lock()
		ch, ok := c.pending[m.ID]
		delete(c.pending, m.ID)
		c.mu.Unlock()
		if ok {
			ch <- m
		}
	case *proto.ShardEpoch:
		c.onEvent()
	default:
		c.logf("serve: shard %d: unsolicited message type %d", c.idx, msg.Type())
	}
}

// call issues one correlated query and waits for its reply. Fails fast
// when the session is down — the Federator degrades rather than blocks.
func (c *shardClient) call(kind uint8, body []byte, timeout time.Duration) ([]byte, error) {
	ch := make(chan *proto.ShardReply, 1)
	c.mu.Lock()
	conn, fatal := c.conn, c.fatal
	if conn == nil {
		c.mu.Unlock()
		if fatal != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", c.idx, fatal)
		}
		return nil, fmt.Errorf("serve: shard %d unreachable", c.idx)
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch // before the query is written: the reply cannot beat it
	c.mu.Unlock()

	drop := func() {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
	}
	if err := conn.Send(&proto.ShardQuery{ID: id, Kind: kind, Body: body}); err != nil {
		drop()
		return nil, fmt.Errorf("serve: shard %d: %w", c.idx, err)
	}
	select {
	case reply, ok := <-ch:
		if !ok {
			return nil, fmt.Errorf("serve: shard %d session lost mid-call", c.idx)
		}
		if reply.Err != "" {
			return nil, fmt.Errorf("serve: shard %d: %s", c.idx, reply.Err)
		}
		return reply.Body, nil
	case <-time.After(timeout):
		drop()
		return nil, fmt.Errorf("serve: shard %d query timed out", c.idx)
	}
}
