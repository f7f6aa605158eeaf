// Package proto defines the wire protocol between DGS ground stations and
// the backend scheduler (paper Fig. 1: every station has an Internet
// connection to the backend). It carries the three flows the hybrid design
// needs:
//
//   - chunk receipt reports from receive-only stations (the raw material
//     for delayed acks, §3.3),
//   - collated ack digests pushed to transmit-capable stations for upload,
//   - downlink schedule distribution to all stations.
//
// Framing is length-prefixed binary with a magic, a type byte, and a CRC-32
// trailer; payloads are fixed-layout big-endian fields. Frames are capped
// at MaxFrameSize so a corrupt peer cannot balloon allocations.
//
// The payload layout is versioned: Hello carries a protocol version byte
// and the backend rejects mismatches with an Error frame carrying
// CodeVersion (ErrVersion client-side), so future frame changes fail fast
// instead of silently desyncing old stations. Heartbeat and Resume are the
// session-control messages: heartbeats keep idle connections alive across
// I/O deadlines, and Resume lets a reconnecting station learn the highest
// ChunkReport sequence number the backend has collated so it can replay
// only unacknowledged reports (at-least-once delivery, exactly-once
// collation).
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Message types.
const (
	// TypeHello introduces a station to the backend.
	TypeHello MsgType = iota + 1
	// TypeChunkReport carries received-chunk metadata to the backend.
	TypeChunkReport
	// TypeAckDigest carries collated acks for one satellite.
	TypeAckDigest
	// TypeSchedule carries a downlink plan.
	TypeSchedule
	// TypeOK is a generic positive response.
	TypeOK
	// TypeError is a generic failure response with a message.
	TypeError
	// TypeHeartbeat is an application-level keepalive ping/pong.
	TypeHeartbeat
	// TypeResume carries session-resume state: a station asks, the backend
	// answers with the last collated report sequence number.
	TypeResume
)

// Version is the current wire protocol version, carried in Hello. Bump it
// whenever a frame layout changes; the backend refuses mismatched
// stations during the handshake.
const Version uint8 = 2

// Error codes carried in Error frames.
const (
	// CodeGeneric is an unclassified failure.
	CodeGeneric uint8 = iota
	// CodeVersion marks a protocol version mismatch during the handshake.
	CodeVersion
	// CodeBadRequest marks a request the backend refuses (e.g. a
	// receive-only station polling for digests).
	CodeBadRequest
)

// Framing constants.
const (
	// Magic begins every frame.
	Magic uint16 = 0xD65
	// MaxFrameSize bounds a payload (16 MiB).
	MaxFrameSize = 16 << 20
	headerSize   = 2 + 1 + 4 // magic + type + length
	trailerSize  = 4         // crc32
)

// Framing errors.
var (
	ErrBadMagic   = errors.New("proto: bad magic")
	ErrTooLarge   = errors.New("proto: frame exceeds MaxFrameSize")
	ErrBadCRC     = errors.New("proto: crc mismatch")
	ErrTruncated  = errors.New("proto: truncated payload")
	ErrUnknownMsg = errors.New("proto: unknown message type")
	// ErrVersion reports a protocol version mismatch. Error frames with
	// CodeVersion match it under errors.Is.
	ErrVersion = errors.New("proto: version mismatch")
)

// Message is anything that can live in a frame.
type Message interface {
	// Type returns the frame type byte.
	Type() MsgType
	// appendPayload serializes the message body.
	appendPayload(b []byte) []byte
	// decodePayload parses the message body.
	decodePayload(b []byte) error
}

// Hello introduces a station. Version must be proto.Version; the backend
// rejects anything else with CodeVersion during the handshake.
type Hello struct {
	Version   uint8
	StationID uint32
	TxCapable bool
	Name      string
}

// Type implements Message.
func (*Hello) Type() MsgType { return TypeHello }

func (h *Hello) appendPayload(b []byte) []byte {
	b = append(b, h.Version)
	b = be32(b, h.StationID)
	if h.TxCapable {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return str(b, h.Name)
}

func (h *Hello) decodePayload(b []byte) error {
	d := dec{b: b}
	h.Version = d.u8()
	h.StationID = d.u32()
	h.TxCapable = d.u8() != 0
	h.Name = d.str()
	return d.err()
}

// ChunkInfo is one received chunk's metadata.
type ChunkInfo struct {
	ID       uint64
	Bits     uint64
	Captured time.Time
	Received time.Time
}

// ChunkReport tells the backend which chunks a station received from a
// satellite. Seq, when nonzero, is the station's monotonic report sequence
// number: the backend collates each sequence number at most once, making
// post-reconnect replays harmless (Seq zero opts out of deduplication).
type ChunkReport struct {
	StationID uint32
	Sat       uint32
	Seq       uint64
	Chunks    []ChunkInfo
}

// Type implements Message.
func (*ChunkReport) Type() MsgType { return TypeChunkReport }

func (r *ChunkReport) appendPayload(b []byte) []byte {
	b = be32(b, r.StationID)
	b = be32(b, r.Sat)
	b = be64(b, r.Seq)
	b = be32(b, uint32(len(r.Chunks)))
	for _, c := range r.Chunks {
		b = be64(b, c.ID)
		b = be64(b, c.Bits)
		b = be64(b, uint64(c.Captured.UnixNano()))
		b = be64(b, uint64(c.Received.UnixNano()))
	}
	return b
}

func (r *ChunkReport) decodePayload(b []byte) error {
	d := dec{b: b}
	r.StationID = d.u32()
	r.Sat = d.u32()
	r.Seq = d.u64()
	n := d.u32()
	if d.e == nil && uint64(n)*32 > uint64(len(d.b)-d.off) {
		return ErrTruncated
	}
	r.Chunks = make([]ChunkInfo, 0, n)
	for i := uint32(0); i < n; i++ {
		c := ChunkInfo{
			ID:   d.u64(),
			Bits: d.u64(),
		}
		c.Captured = time.Unix(0, int64(d.u64())).UTC()
		c.Received = time.Unix(0, int64(d.u64())).UTC()
		r.Chunks = append(r.Chunks, c)
	}
	return d.err()
}

// AckDigest is the backend's collated cumulative ack set for one satellite,
// handed to a transmit-capable station for upload.
type AckDigest struct {
	Sat      uint32
	ChunkIDs []uint64
}

// Type implements Message.
func (*AckDigest) Type() MsgType { return TypeAckDigest }

func (a *AckDigest) appendPayload(b []byte) []byte {
	b = be32(b, a.Sat)
	b = be32(b, uint32(len(a.ChunkIDs)))
	for _, id := range a.ChunkIDs {
		b = be64(b, id)
	}
	return b
}

func (a *AckDigest) decodePayload(b []byte) error {
	d := dec{b: b}
	a.Sat = d.u32()
	n := d.u32()
	if d.e == nil && uint64(n)*8 > uint64(len(d.b)-d.off) {
		return ErrTruncated
	}
	a.ChunkIDs = make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		a.ChunkIDs = append(a.ChunkIDs, d.u64())
	}
	return d.err()
}

// Assignment is one planned link inside a schedule slot.
type Assignment struct {
	Sat, Station uint32
	RateBps      uint64
}

// Slot is one schedule slot.
type Slot struct {
	Assignments []Assignment
}

// Schedule is a distributed downlink plan.
type Schedule struct {
	Version uint32
	Issued  time.Time
	SlotDur time.Duration
	Slots   []Slot
}

// Type implements Message.
func (*Schedule) Type() MsgType { return TypeSchedule }

func (s *Schedule) appendPayload(b []byte) []byte {
	b = be32(b, s.Version)
	b = be64(b, uint64(s.Issued.UnixNano()))
	b = be64(b, uint64(s.SlotDur))
	b = be32(b, uint32(len(s.Slots)))
	for _, sl := range s.Slots {
		b = be32(b, uint32(len(sl.Assignments)))
		for _, a := range sl.Assignments {
			b = be32(b, a.Sat)
			b = be32(b, a.Station)
			b = be64(b, a.RateBps)
		}
	}
	return b
}

func (s *Schedule) decodePayload(b []byte) error {
	d := dec{b: b}
	s.Version = d.u32()
	s.Issued = time.Unix(0, int64(d.u64())).UTC()
	s.SlotDur = time.Duration(d.u64())
	n := d.u32()
	if d.e == nil && uint64(n)*4 > uint64(len(d.b)-d.off) {
		return ErrTruncated
	}
	s.Slots = make([]Slot, 0, n)
	for i := uint32(0); i < n; i++ {
		m := d.u32()
		if d.e == nil && uint64(m)*16 > uint64(len(d.b)-d.off) {
			return ErrTruncated
		}
		sl := Slot{Assignments: make([]Assignment, 0, m)}
		for j := uint32(0); j < m; j++ {
			sl.Assignments = append(sl.Assignments, Assignment{
				Sat:     d.u32(),
				Station: d.u32(),
				RateBps: d.u64(),
			})
		}
		s.Slots = append(s.Slots, sl)
	}
	return d.err()
}

// OK is a positive acknowledgement of a request frame.
type OK struct{}

// Type implements Message.
func (*OK) Type() MsgType { return TypeOK }

func (*OK) appendPayload(b []byte) []byte { return b }
func (*OK) decodePayload(b []byte) error {
	if len(b) != 0 {
		return ErrTruncated
	}
	return nil
}

// Error is a failure response. Code classifies the failure (CodeGeneric,
// CodeVersion, CodeBadRequest) so clients can react without parsing Msg.
type Error struct {
	Code uint8
	Msg  string
}

// Type implements Message.
func (*Error) Type() MsgType { return TypeError }

func (e *Error) appendPayload(b []byte) []byte {
	b = append(b, e.Code)
	return str(b, e.Msg)
}
func (e *Error) decodePayload(b []byte) error {
	d := dec{b: b}
	e.Code = d.u8()
	e.Msg = d.str()
	return d.err()
}

// Error implements the error interface so responses can be returned
// directly.
func (e *Error) Error() string { return "proto: remote error: " + e.Msg }

// Is lets errors.Is(err, ErrVersion) recognize remote version rejections.
func (e *Error) Is(target error) bool {
	return target == ErrVersion && e.Code == CodeVersion
}

// Heartbeat is an application-level keepalive. A peer sends Seq with
// Ack=false; the other side echoes the same Seq with Ack=true. The traffic
// keeps both ends inside their read deadlines across idle stretches.
type Heartbeat struct {
	Seq uint64
	Ack bool
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return TypeHeartbeat }

func (h *Heartbeat) appendPayload(b []byte) []byte {
	b = be64(b, h.Seq)
	if h.Ack {
		return append(b, 1)
	}
	return append(b, 0)
}

func (h *Heartbeat) decodePayload(b []byte) error {
	d := dec{b: b}
	h.Seq = d.u64()
	h.Ack = d.u8() != 0
	return d.err()
}

// Resume is the session-resume exchange. A reconnecting station sends
// {StationID} right after the handshake; the backend replies with the same
// StationID plus LastSeq, the highest ChunkReport sequence number it has
// collated for that station. The station then replays only reports with
// greater sequence numbers.
type Resume struct {
	StationID uint32
	LastSeq   uint64
}

// Type implements Message.
func (*Resume) Type() MsgType { return TypeResume }

func (r *Resume) appendPayload(b []byte) []byte {
	b = be32(b, r.StationID)
	return be64(b, r.LastSeq)
}

func (r *Resume) decodePayload(b []byte) error {
	d := dec{b: b}
	r.StationID = d.u32()
	r.LastSeq = d.u64()
	return d.err()
}

// Write frames and writes a message.
func Write(w io.Writer, m Message) error {
	payload := m.appendPayload(nil)
	if len(payload) > MaxFrameSize {
		return ErrTooLarge
	}
	buf := make([]byte, 0, headerSize+len(payload)+trailerSize)
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, byte(m.Type()))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[:headerSize+len(payload)]))
	_, err := w.Write(buf)
	return err
}

// Read reads and decodes one frame.
func Read(r io.Reader) (Message, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return nil, ErrBadMagic
	}
	typ := MsgType(hdr[2])
	n := binary.BigEndian.Uint32(hdr[3:7])
	if n > MaxFrameSize {
		return nil, ErrTooLarge
	}
	body := make([]byte, n+trailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	payload := body[:n]
	wantCRC := binary.BigEndian.Uint32(body[n:])
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != wantCRC {
		return nil, ErrBadCRC
	}
	var m Message
	switch typ {
	case TypeHello:
		m = &Hello{}
	case TypeChunkReport:
		m = &ChunkReport{}
	case TypeAckDigest:
		m = &AckDigest{}
	case TypeSchedule:
		m = &Schedule{}
	case TypeOK:
		m = &OK{}
	case TypeError:
		m = &Error{}
	case TypeHeartbeat:
		m = &Heartbeat{}
	case TypeResume:
		m = &Resume{}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownMsg, typ)
	}
	if err := m.decodePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- little encoding helpers ----

func be32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func be64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func str(b []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// dec is a bounds-checked big-endian reader.
type dec struct {
	b   []byte
	off int
	e   error
}

func (d *dec) need(n int) bool {
	if d.e != nil {
		return false
	}
	if d.off+n > len(d.b) {
		d.e = ErrTruncated
		return false
	}
	return true
}

func (d *dec) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) str() string {
	if !d.need(2) {
		return ""
	}
	n := int(binary.BigEndian.Uint16(d.b[d.off:]))
	d.off += 2
	if !d.need(n) {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) err() error {
	if d.e != nil {
		return d.e
	}
	if d.off != len(d.b) {
		return fmt.Errorf("proto: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}
