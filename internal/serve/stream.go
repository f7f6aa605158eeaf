package serve

import (
	"net/http"
	"strconv"
	"sync"
)

// subBuffer is each plan-stream subscriber's event buffer: a subscriber
// that falls this many events behind is disconnected rather than allowed
// to stall the writer.
const subBuffer = 16

// sseEvent formats one server-sent event: the event name, the world epoch
// (or job sequence number) as the event id, and a single-line JSON payload.
// The payload can be a whole plan, so it is copied once, into a buffer
// sized for the event up front.
func sseEvent(event string, id uint64, data []byte) []byte {
	const head, mid, tail, maxID = "event: ", "\nid: ", "\ndata: ", len("18446744073709551615")
	b := make([]byte, 0, len(head)+len(event)+len(mid)+maxID+len(tail)+len(data)+2)
	b = append(append(b, head...), event...)
	b = strconv.AppendUint(append(b, mid...), id, 10)
	b = append(append(b, tail...), data...)
	return append(b, "\n\n"...)
}

// serveSSE is the one event-stream writer behind /v2/plan/stream and
// /v2/optimize/{id}/stream: the stream headers, the initial event, then
// every event the subscription delivers until its channel closes (the
// source shut down, the job finished, or the subscriber was evicted) or
// the client goes away. A nil channel ends the stream after the initial
// event. The caller owns the subscription and removes it when this
// returns.
func serveSSE(w http.ResponseWriter, r *http.Request, initial []byte, events <-chan []byte) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errInternal, "streaming unsupported by this connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	ev := initial
	for {
		if _, err := w.Write(ev); err != nil {
			return
		}
		fl.Flush()
		if events == nil {
			return
		}
		select {
		case next, open := <-events:
			if !open {
				return
			}
			ev = next
		case <-r.Context().Done():
			return
		}
	}
}

// subHub is the subscriber registry behind the plan stream and the
// optimizer's job streams: non-blocking broadcast with slow-consumer
// eviction.
type subHub struct {
	mu   sync.Mutex
	subs map[int]chan []byte
	next int
	buf  int
}

func newSubHub(buf int) *subHub {
	return &subHub{subs: make(map[int]chan []byte), buf: buf}
}

// add registers a subscriber; ok is false after closeAll.
func (h *subHub) add() (id int, ch chan []byte, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.subs == nil {
		return 0, nil, false
	}
	c := make(chan []byte, h.buf)
	id = h.next
	h.next++
	h.subs[id] = c
	return id, c, true
}

// remove drops a subscriber. Safe after eviction or closeAll.
func (h *subHub) remove(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.subs[id]; ok {
		delete(h.subs, id)
		close(c)
	}
}

func (h *subHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// broadcast delivers an event to every subscriber without blocking the
// writer: a subscriber with a full buffer is evicted (closed), because a
// stalled consumer must not delay the epoch swap.
func (h *subHub) broadcast(ev []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, c := range h.subs {
		select {
		case c <- ev:
		default:
			delete(h.subs, id)
			close(c)
		}
	}
}

// closeAll closes every subscriber channel and refuses further adds.
func (h *subHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, c := range h.subs {
		delete(h.subs, id)
		close(c)
	}
	h.subs = nil
}
