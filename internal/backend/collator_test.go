package backend

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"dgs/internal/proto"
)

// TestCollatorRedigestsAfterLostDigest: a digest whose reply never reaches
// the satellite leaves the chunk in flight on board, so the satellite
// re-sends it after its nack timeout. The second reception must be
// digested again, or the chunk is never acked.
func TestCollatorRedigestsAfterLostDigest(t *testing.T) {
	c := NewCollator()
	c.Report(&proto.ChunkReport{StationID: 1, Sat: 7,
		Chunks: []proto.ChunkInfo{{ID: 10, Bits: 100, Received: rxTime}}})
	if d, _ := c.Digest(7, rxTime, -1); !slices.Equal(d.ChunkIDs, []uint64{10}) {
		t.Fatalf("first digest = %v, want [10]", d.ChunkIDs)
	}
	// That digest is lost; the re-sent chunk lands at another station.
	c.Report(&proto.ChunkReport{StationID: 2, Sat: 7,
		Chunks: []proto.ChunkInfo{{ID: 10, Bits: 100, Received: rxTime.Add(time.Hour)}}})
	if d, _ := c.Digest(7, rxTime.Add(time.Hour), -1); !slices.Equal(d.ChunkIDs, []uint64{10}) {
		t.Fatalf("redigest = %v, want [10]", d.ChunkIDs)
	}
}

// TestCollatorMemoryBoundedByInFlight: receipts leave the collator with the
// digest that carries them, so a long run of report+digest cycles holds no
// more than the chunks awaiting a digest, and every chunk is digested.
func TestCollatorMemoryBoundedByInFlight(t *testing.T) {
	c := NewCollator()
	digested := 0
	for k := uint64(0); k < 1000; k++ {
		c.Report(&proto.ChunkReport{StationID: 1, Sat: 7,
			Chunks: []proto.ChunkInfo{{ID: k, Bits: 1, Received: rxTime}}})
		if held := len(c.receipts[7]); held != 1 {
			t.Fatalf("cycle %d: %d receipts held, want 1 (the one in flight)", k, held)
		}
		d, _ := c.Digest(7, rxTime, -1)
		digested += len(d.ChunkIDs)
		if held := len(c.receipts[7]); held != 0 {
			t.Fatalf("cycle %d: %d receipts held after the digest, want 0", k, held)
		}
	}
	if digested != 1000 {
		t.Fatalf("digested %d chunks, want 1000", digested)
	}
}

// FuzzCollator drives random Report sequences (sequenced, unsequenced,
// duplicate chunks, replayed reports) and Digest calls (cutoff, limit)
// against a plain map model of the receipts not yet digested. Each op is
// four bytes: kind and time, satellite, then two operands.
func FuzzCollator(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x10, 1, 0, 129, 5})
	f.Add([]byte{
		0, 1, 0xe2, 0x13, 6, 1, 0x41, 0x20, // reports at minutes 0 and 3
		6, 1, 0x41, 0x20, 1, 1, 2, 3, // a replayed report, a limited digest
		9, 1, 100, 1, 0, 2, 0x21, 0, // a digest with limit 0, an unsequenced report
		3, 2, 129, 0, 2, 1, 0xff, 0xff, // an unlimited digest, a large report
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewCollator()
		model := map[uint32]map[uint64]time.Time{}
		lastSeq := map[uint32]uint64{}
		received := map[uint32]int{}
		digested := map[uint32]int{}
		for ; len(ops) >= 4; ops = ops[4:] {
			op, sat, a, b := ops[0], uint32(ops[1]%3), ops[2], ops[3]
			if op%2 == 0 {
				// Report 1..8 chunks from a 16-ID space at minute op/2.
				station, seq := uint32(a%3), uint64(b>>4)
				r := &proto.ChunkReport{StationID: station, Sat: sat, Seq: seq}
				for k := 0; k <= int(a>>5); k++ {
					id := uint64(int(b&15)+k) % 16
					r.Chunks = append(r.Chunks, proto.ChunkInfo{ID: id, Bits: id + 1,
						Received: rxTime.Add(time.Duration(op/2) * time.Minute)})
				}
				apply := seq == 0 || seq > lastSeq[station]
				if got := c.Report(r); got != apply {
					t.Fatalf("Report(seq %d from %d) = %v, want %v", seq, station, got, apply)
				}
				if !apply {
					continue
				}
				if seq != 0 {
					lastSeq[station] = seq
				}
				if model[sat] == nil {
					model[sat] = map[uint64]time.Time{}
				}
				for _, ch := range r.Chunks {
					if _, dup := model[sat][ch.ID]; !dup {
						model[sat][ch.ID] = ch.Received
						received[sat]++
					}
				}
			} else {
				// Digest up to minute a%130 with limit b%12-2 (< 0: none).
				cutoff := rxTime.Add(time.Duration(a%130) * time.Minute)
				limit := int(b%12) - 2
				d, left := c.Digest(sat, cutoff, limit)
				if !slices.IsSorted(d.ChunkIDs) || (limit >= 0 && len(d.ChunkIDs) > limit) {
					t.Fatalf("digest %v unsorted or over limit %d", d.ChunkIDs, limit)
				}
				var want []uint64
				for id, at := range model[sat] {
					if !at.After(cutoff) {
						want = append(want, id)
					}
				}
				slices.Sort(want)
				wantLeft := 0
				if limit >= 0 && len(want) > limit {
					want, wantLeft = want[:limit], len(want)-limit
				}
				if !slices.Equal(d.ChunkIDs, want) || left != wantLeft {
					t.Fatalf("digest = %v left %d, want %v left %d", d.ChunkIDs, left, want, wantLeft)
				}
				for _, id := range d.ChunkIDs {
					delete(model[sat], id)
				}
				digested[sat] += len(d.ChunkIDs)
			}
			for s, m := range c.receipts {
				if len(m) > len(model[s]) {
					t.Fatalf("sat %d: %d receipts held, %d not yet digested", s, len(m), len(model[s]))
				}
			}
			var want []proto.ChunkInfo
			for id, at := range model[sat] {
				want = append(want, proto.ChunkInfo{ID: id, Received: at})
			}
			slices.SortFunc(want, func(x, y proto.ChunkInfo) int { return cmp.Compare(x.ID, y.ID) })
			if got := c.Receipts(sat); !slices.Equal(got, want) {
				t.Fatalf("sat %d: receipts %v, want %v", sat, got, want)
			}
		}
		// Drain: every reception is digested exactly once.
		for sat := uint32(0); sat < 3; sat++ {
			d, left := c.Digest(sat, rxTime.Add(24*time.Hour), -1)
			if left != 0 {
				t.Fatalf("sat %d: unlimited digest left %d behind", sat, left)
			}
			digested[sat] += len(d.ChunkIDs)
			if digested[sat] != received[sat] {
				t.Fatalf("sat %d: %d receptions, %d digested", sat, received[sat], digested[sat])
			}
		}
	})
}
