package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded only by benchmark code,
// around calls into a layer; Parent is the span that caused this one (0 =
// root), so the spans of one request or one simulation step form a tree.
// Start and End are nanoseconds since the tracer was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs pay nothing for the call sites.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer's clock: nanoseconds since it was created.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, t.now(), -1)
}

// add records a span whose interval the caller measured on the tracer's
// clock (an observer hook learns of a plan only when it has ended).
func (t *tracer) add(name string, parent int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// all returns the recorded spans, not a copy (a minute of serve_live is a
// million of them): call it once the workload's goroutines have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.all())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanTotals sums, per span name, the duration and the self time: a span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once, and a child is clipped to its
// parent's interval).
func spanTotals(spans []span) (total, self map[string]time.Duration, count map[string]int) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	count = map[string]int{}
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			continue // never closed
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		total[s.Name] += time.Duration(dur)
		self[s.Name] += time.Duration(dur - covered)
		count[s.Name]++
	}
	return total, self, count
}
