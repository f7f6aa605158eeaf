package session

import (
	"fmt"
	"net"
	"sync"
	"time"

	"dgs/internal/proto"
)

// Handler takes over a connection the Server has admitted (Hello checked,
// OK sent). It may greet the peer with c.Send, and returns frame, which
// receives every later frame except heartbeats, one at a time, and an
// optional closed, run once the connection has ended.
type Handler func(c *Conn) (frame func(proto.Message), closed func())

// Server is the accepting end: owners embed it, Init it with their names
// and Handler, and get Listen/Serve/Close plus the connection registry.
type Server struct {
	// ReadTimeout and WriteTimeout override the per-frame I/O deadlines
	// (DefaultReadTimeout, DefaultWriteTimeout). Chaos tests shrink them.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// Logf, when set, receives diagnostic messages.
	Logf func(format string, args ...any)

	self, peer string // "backend", "station"
	handler    Handler

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*Conn]struct{}
	closed bool
}

// Init names the two ends (for the version-mismatch reply and the log) and
// sets the handler. Call it once, before Listen or Serve.
func (s *Server) Init(self, peer string, h Handler) {
	s.self, s.peer, s.handler = self, peer, h
	s.conns = make(map[*Conn]struct{})
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Listen starts accepting on addr ("127.0.0.1:0" for tests) and returns
// the bound address.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts from an existing listener — the seam chaos tests use to
// interpose a faultnet.Listener. It returns immediately; the accept loop
// runs in the background until the listener closes.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			go s.serve(nc)
		}
	}()
}

// track adds or removes a connection from the registry; adding fails once
// the server is closed.
func (s *Server) track(c *Conn, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !add {
		delete(s.conns, c)
	} else if !s.closed {
		s.conns[c] = struct{}{}
	}
	return !s.closed
}

func (s *Server) serve(nc net.Conn) {
	defer nc.Close()
	c := &Conn{
		nc:           nc,
		readTimeout:  orDefault(s.ReadTimeout, DefaultReadTimeout),
		writeTimeout: orDefault(s.WriteTimeout, DefaultWriteTimeout),
	}
	msg, err := c.recv()
	if err != nil {
		s.logf("%s: handshake read: %v", s.self, err)
		return
	}
	hello, ok := msg.(*proto.Hello)
	if !ok {
		_ = c.Send(&proto.Error{Code: proto.CodeBadRequest, Msg: "expected hello"})
		return
	}
	if hello.Version != proto.Version {
		_ = c.Send(&proto.Error{
			Code: proto.CodeVersion,
			Msg:  fmt.Sprintf("%s speaks v%d, %s speaks v%d", s.peer, hello.Version, s.self, proto.Version),
		})
		s.logf("%s: rejected %s: protocol v%d != v%d", s.self, hello.Name, hello.Version, proto.Version)
		return
	}
	c.Hello = *hello
	if !s.track(c, true) {
		return
	}
	defer s.track(c, false)
	if c.Send(&proto.OK{}) != nil {
		return
	}
	frame, closed := s.handler(c)
	if closed != nil {
		defer closed()
	}
	_ = c.pump(frame)
}

// Conns snapshots the admitted connections, for broadcasts.
func (s *Server) Conns() []*Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]*Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// Close stops the listener and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range s.Conns() {
		c.nc.Close()
	}
	return err
}
