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
	// receipts[sat] holds sat's receipts until digested.
	receipts map[uint32]*pending
	// lastSeq[station] is the highest applied report sequence number.
	lastSeq map[uint32]uint64
}

// pending is one satellite's receipts that no digest has carried yet.
type pending struct {
	// at[chunk] = ground reception time.
	at map[uint64]time.Time
	// oldest is the earliest reception time in at, while at is not empty:
	// a digest whose cutoff is before it carries nothing, and returns
	// without a scan of at.
	oldest time.Time
}

// NewCollator returns an empty collator.
func NewCollator() *Collator {
	return &Collator{
		receipts: make(map[uint32]*pending),
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
	p := c.receipts[r.Sat]
	if p == nil {
		p = &pending{at: make(map[uint64]time.Time)}
		c.receipts[r.Sat] = p
	}
	for _, ch := range r.Chunks {
		if _, dup := p.at[ch.ID]; dup {
			continue
		}
		if len(p.at) == 0 || ch.Received.Before(p.oldest) {
			p.oldest = ch.Received
		}
		p.at[ch.ID] = ch.Received
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

// Digest returns the chunk IDs of a satellite's next ack digest: the
// receipts received at or before cutoff that no digest has carried yet,
// sorted by chunk ID and cut to the lowest limit of them (limit < 0: no
// limit). The digested receipts leave the collator; left counts the
// eligible receipts the limit held back. With no receipt due it returns
// nil at the cost of a map lookup: the simulator asks at every TX contact.
func (c *Collator) Digest(sat uint32, cutoff time.Time, limit int) (ids []uint64, left int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.receipts[sat]
	if p == nil || len(p.at) == 0 || p.oldest.After(cutoff) {
		return nil, 0
	}
	for id, at := range p.at {
		if !at.After(cutoff) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	if limit >= 0 && len(ids) > limit {
		left = len(ids) - limit
		ids = ids[:limit]
	}
	for _, id := range ids {
		delete(p.at, id)
	}
	first := true
	for _, at := range p.at {
		if first || at.Before(p.oldest) {
			p.oldest, first = at, false
		}
	}
	return ids, left
}

// Received reports whether chunk id of sat has reached the ground and no
// digest has carried it yet.
func (c *Collator) Received(sat uint32, id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.receipts[sat]
	if p == nil {
		return false
	}
	_, ok := p.at[id]
	return ok
}

// Receipts lists sat's receipts that no digest has carried yet, sorted by
// chunk ID. Only ID and Received are set.
func (c *Collator) Receipts(sat uint32) []proto.ChunkInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []proto.ChunkInfo
	p := c.receipts[sat]
	if p == nil {
		return nil
	}
	for id, at := range p.at {
		out = append(out, proto.ChunkInfo{ID: id, Received: at})
	}
	slices.SortFunc(out, func(a, b proto.ChunkInfo) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
