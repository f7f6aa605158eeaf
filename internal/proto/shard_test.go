package proto

import (
	"bytes"
	"testing"
)

func TestShardQueryRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte(`{"k":"v"}`), 10000) // ~90 KiB, past str's u16 cap
	in := &ShardQuery{ID: 42, Kind: ShardKindPlanAt, Body: body}
	got := roundTrip(t, in).(*ShardQuery)
	if got.ID != 42 || got.Kind != ShardKindPlanAt || !bytes.Equal(got.Body, body) {
		t.Fatalf("round trip mangled query: id=%d kind=%d body %d bytes", got.ID, got.Kind, len(got.Body))
	}
}

func TestShardQueryEmptyBody(t *testing.T) {
	got := roundTrip(t, &ShardQuery{ID: 1, Kind: ShardKindInfo}).(*ShardQuery)
	if got.ID != 1 || got.Kind != ShardKindInfo || got.Body != nil {
		t.Fatalf("empty-body query round trip: %+v", got)
	}
}

func TestShardReplyRoundTrip(t *testing.T) {
	in := &ShardReply{ID: 42, Err: "no such satellite", Body: []byte(`{"windows":[]}`)}
	got := roundTrip(t, in).(*ShardReply)
	if got.ID != in.ID || got.Err != in.Err || !bytes.Equal(got.Body, in.Body) {
		t.Fatalf("round trip mangled reply: %+v", got)
	}
}

func TestShardEpochRoundTrip(t *testing.T) {
	got := roundTrip(t, &ShardEpoch{Epoch: 1 << 40}).(*ShardEpoch)
	if got.Epoch != 1<<40 {
		t.Fatalf("epoch = %d, want %d", got.Epoch, uint64(1<<40))
	}
}

func TestShardBlobTruncationRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &ShardQuery{ID: 1, Kind: ShardKindPlan, Body: []byte("0123456789")}); err != nil {
		t.Fatal(err)
	}
	// Shrink the declared blob length's payload: chop bytes out of the
	// middle so the CRC stays over what we serve but the blob runs past
	// the payload end... simpler: corrupt the blob length field itself and
	// expect either ErrBadCRC or ErrTruncated, never a bogus decode.
	raw := buf.Bytes()
	for i := headerSize; i < len(raw)-trailerSize; i++ {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xFF
		m, err := Read(bytes.NewReader(mut))
		if err == nil {
			if q, ok := m.(*ShardQuery); !ok || len(q.Body) > MaxFrameSize {
				t.Fatalf("byte %d: corrupt frame decoded as %T", i, m)
			}
		}
	}
}
