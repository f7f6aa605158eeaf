package proto

import (
	"bytes"
	"testing"
	"time"
)

// rawMsg is a frame of any type number with a verbatim payload.
type rawMsg struct {
	typ  MsgType
	body []byte
}

func (m rawMsg) Type() MsgType                 { return m.typ }
func (m rawMsg) appendPayload(b []byte) []byte { return append(b, m.body...) }
func (m rawMsg) decodePayload(b []byte) error  { return nil }

// FuzzRead throws arbitrary bytes at the frame decoder: it must never
// panic, never allocate unboundedly, and either return a valid message or
// an error. Run with `go test -fuzz FuzzRead ./internal/proto` for a real
// fuzzing session; the seed corpus below runs in ordinary test mode.
func FuzzRead(f *testing.F) {
	// Seed with valid frames of every type plus targeted corruptions.
	seed := func(m Message) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := [][]byte{
		seed(&Hello{Version: Version, StationID: 1, TxCapable: true, Name: "x"}),
		seed(&ChunkReport{StationID: 1, Sat: 2, Seq: 7, Chunks: []ChunkInfo{{ID: 3, Bits: 4, Captured: time.Unix(0, 5), Received: time.Unix(0, 6)}}}),
		seed(&AckDigest{Sat: 9, ChunkIDs: []uint64{1, 2}}),
		seed(&Schedule{Version: 1, Issued: time.Unix(0, 0), SlotDur: time.Minute, Slots: []Slot{{Assignments: []Assignment{{Sat: 1, Station: 2, RateBps: 3}}}}}),
		seed(&OK{}),
		seed(&Error{Code: CodeVersion, Msg: "boom"}),
		seed(&Heartbeat{Seq: 5, Ack: true}),
		seed(&Resume{StationID: 3, LastSeq: 11}),
		// Well-formed frames of the retired type numbers 9–11, which Read
		// must refuse as unknown.
		seed(rawMsg{9, []byte{0, 0, 0, 4, 4, '{', '}'}}),
		seed(rawMsg{10, []byte{0, 0, 0, 4, '[', ']'}}),
		seed(rawMsg{11, []byte{0, 0, 0, 0, 0, 0, 0, 12}}),
	}
	for _, v := range valid {
		f.Add(v)
		// Truncations and bit flips of each valid frame.
		f.Add(v[:len(v)/2])
		flip := append([]byte(nil), v...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte{0x0D, 0x65})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded message must re-encode and re-decode.
		var buf bytes.Buffer
		if err := Write(&buf, msg); err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		if _, err := Read(&buf); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
	})
}
