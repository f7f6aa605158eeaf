package serve

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dgs/internal/proto"
)

// skewConn rewrites the Hello it carries to claim the next protocol version
// — a front tier built from a newer tree.
type skewConn struct {
	net.Conn
	done bool
}

func (c *skewConn) Write(p []byte) (int, error) {
	if c.done {
		return c.Conn.Write(p)
	}
	c.done = true
	msg, err := proto.Read(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	hello := msg.(*proto.Hello)
	hello.Version++
	var buf bytes.Buffer
	if err := proto.Write(&buf, hello); err != nil {
		return 0, err
	}
	if _, err := c.Conn.Write(buf.Bytes()); err != nil {
		return 0, err
	}
	return len(p), nil
}

// TestFederationVersionMismatchFailsFast: a shard refuses a front tier on
// another protocol version with CodeVersion, and NewFederator reports that
// at once instead of redialing until StartTimeout.
func TestFederationVersionMismatchFailsFast(t *testing.T) {
	sh := startTestShard(t, 0, 1, "")
	var dials atomic.Int32
	t0 := time.Now()
	fed, err := NewFederator([]string{sh.addr}, FederatorConfig{
		StartTimeout: 30 * time.Second,
		Logf:         t.Logf,
		Dial: func(addr string) (net.Conn, error) {
			dials.Add(1)
			c, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return &skewConn{Conn: c}, nil
		},
	})
	if err == nil {
		fed.Close()
		t.Fatal("federator started against a shard on another protocol version")
	}
	if !errors.Is(err, proto.ErrVersion) {
		t.Fatalf("error = %v, want proto.ErrVersion", err)
	}
	if !strings.Contains(err.Error(), "front tier speaks v3, shard speaks v2") {
		t.Fatalf("error %q does not carry the shard's refusal", err)
	}
	if n, took := dials.Load(), time.Since(t0); n != 1 || took > 10*time.Second {
		t.Fatalf("%d dials over %v, want one and a prompt failure", n, took)
	}
}
