package backend

import (
	"sync"
	"time"

	"dgs/internal/proto"
	"dgs/internal/session"
)

// Server is the backend's TCP listener. Stations connect over a managed
// session (internal/session: Hello version gate, heartbeats, per-frame
// deadlines — Listen, Serve, Close, ReadTimeout, WriteTimeout and Logf are
// the embedded session.Server's), then stream ChunkReports;
// transmit-capable stations receive AckDigests on request (a report with
// zero chunks acts as a digest poll in this minimal RPC). Schedules are
// broadcast to every connected station. Resume probes are answered from the
// Collator's per-station sequence state so reconnecting stations can replay
// exactly the reports that were lost.
type Server struct {
	session.Server
	Collator *Collator

	mu       sync.Mutex
	schedule *proto.Schedule
}

// NewServer creates a server around a collator (a fresh one when nil).
func NewServer(c *Collator) *Server {
	if c == nil {
		c = NewCollator()
	}
	s := &Server{Collator: c}
	s.Init("backend", "station", s.admit)
	return s
}

// admit greets a station with the current schedule (late joiners need not
// wait for the next broadcast) and serves its frames.
func (s *Server) admit(c *session.Conn) (func(proto.Message), func()) {
	s.mu.Lock()
	sched := s.schedule
	s.mu.Unlock()
	if sched != nil {
		_ = c.Send(sched)
	}
	return func(msg proto.Message) { s.frame(c, msg) }, nil
}

// frame answers one station frame. Send errors need no handling: a failed
// Send closes the connection, which ends the session's read loop.
func (s *Server) frame(c *session.Conn, msg proto.Message) {
	switch m := msg.(type) {
	case *proto.Resume:
		_ = c.Send(&proto.Resume{StationID: m.StationID, LastSeq: s.Collator.LastSeq(m.StationID)})
	case *proto.ChunkReport:
		switch {
		case len(m.Chunks) > 0:
			// Replays are acked like originals: the station only needs to
			// know the report is collated, however many times it was
			// delivered.
			s.Collator.Report(m)
			_ = c.Send(&proto.OK{})
		case !c.Hello.TxCapable:
			_ = c.Send(&proto.Error{
				Code: proto.CodeBadRequest,
				Msg:  "receive-only stations cannot fetch digests",
			})
		default:
			// Zero-chunk report = digest poll (TX stations fetching the
			// cumulative acks they should upload next pass).
			ids, _ := s.Collator.Digest(m.Sat, time.Now().Add(time.Hour), -1)
			_ = c.Send(&proto.AckDigest{Sat: m.Sat, ChunkIDs: ids})
		}
	default:
		c.Reject(msg)
	}
}

// Broadcast distributes a schedule to all connected stations and retains it
// for late joiners.
func (s *Server) Broadcast(sched *proto.Schedule) {
	s.mu.Lock()
	s.schedule = sched
	s.mu.Unlock()
	for _, c := range s.Conns() {
		if err := c.Send(sched); err != nil && s.Logf != nil {
			s.Logf("backend: broadcast to %s: %v", c.Hello.Name, err)
		}
	}
}
