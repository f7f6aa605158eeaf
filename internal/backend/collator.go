package backend

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"dgs/internal/proto"
)

// Collator is the backend's ack-collation state: the chunk receipts the
// stations reported that no ack digest has carried yet. It is safe for
// concurrent use. A digest removes the receipts it carries, so memory is
// bounded by the chunks received but not yet digested, and a chunk the
// satellite re-sends because its digest was lost is digested afresh.
//
// Reports carrying a nonzero Seq are deduplicated per station: a report
// whose sequence number is not greater than the station's last applied one
// is dropped as a replay. Combined with the agents' replay-after-reconnect
// discipline this collates every receipt exactly once no matter how often
// the underlying connections fail.
type Collator struct {
	mu sync.Mutex
	// receipts[sat][chunk] = ground reception time, until digested.
	receipts map[uint32]map[uint64]time.Time
	// lastSeq[station] is the highest applied report sequence number.
	lastSeq map[uint32]uint64
}

// NewCollator returns an empty collator.
func NewCollator() *Collator {
	return &Collator{
		receipts: make(map[uint32]map[uint64]time.Time),
		lastSeq:  make(map[uint32]uint64),
	}
}

// Report records chunk receipts from a station. It returns false when the
// report is a replay (its Seq was already applied) and was dropped. A
// chunk whose receipt still awaits a digest is a duplicate.
func (c *Collator) Report(r *proto.ChunkReport) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Seq != 0 {
		if r.Seq <= c.lastSeq[r.StationID] {
			return false
		}
		c.lastSeq[r.StationID] = r.Seq
	}
	m := c.receipts[r.Sat]
	if m == nil {
		m = make(map[uint64]time.Time)
		c.receipts[r.Sat] = m
	}
	for _, ch := range r.Chunks {
		if _, dup := m[ch.ID]; !dup {
			m[ch.ID] = ch.Received
		}
	}
	return true
}

// LastSeq returns the highest report sequence number applied for a
// station — the resume point handed to reconnecting agents.
func (c *Collator) LastSeq(station uint32) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSeq[station]
}

// Digest returns the acks for a satellite's next uplink: the receipts
// received at or before cutoff that no digest has carried yet, sorted by
// chunk ID and cut to the lowest limit of them (limit < 0: no limit). The
// digested receipts leave the collator; left counts the eligible receipts
// the limit held back.
func (c *Collator) Digest(sat uint32, cutoff time.Time, limit int) (d *proto.AckDigest, left int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.receipts[sat]
	d = &proto.AckDigest{Sat: sat}
	for id, at := range m {
		if !at.After(cutoff) {
			d.ChunkIDs = append(d.ChunkIDs, id)
		}
	}
	slices.Sort(d.ChunkIDs)
	if limit >= 0 && len(d.ChunkIDs) > limit {
		left = len(d.ChunkIDs) - limit
		d.ChunkIDs = d.ChunkIDs[:limit]
	}
	for _, id := range d.ChunkIDs {
		delete(m, id)
	}
	return d, left
}

// Received reports whether chunk id of sat has reached the ground and no
// digest has carried it yet.
func (c *Collator) Received(sat uint32, id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.receipts[sat][id]
	return ok
}

// Receipts lists sat's receipts that no digest has carried yet, sorted by
// chunk ID. Only ID and Received are set.
func (c *Collator) Receipts(sat uint32) []proto.ChunkInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []proto.ChunkInfo
	for id, at := range c.receipts[sat] {
		out = append(out, proto.ChunkInfo{ID: id, Received: at})
	}
	slices.SortFunc(out, func(a, b proto.ChunkInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
