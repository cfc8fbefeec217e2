package serve

import (
	"context"
	"sync"
	"time"
)

// Event is one NDJSON/SSE progress record. Every completed run — live or
// served from the job's run store — emits exactly one run event, after the
// run is durable in that store, the record that makes jobs
// crash-resumable.
type Event struct {
	// Seq is the job-local sequence number (monotonic from 1); resumed
	// subscriptions pass the last seen Seq to continue without gaps.
	Seq int `json:"seq"`
	// Job is the owning job ID.
	Job string `json:"job"`
	// Kind is "state" (lifecycle transition), "run" (one completed
	// injection/program), or "log" (operational annotation).
	Kind string `json:"kind"`
	// At is the emission time.
	At time.Time `json:"at"`

	// State accompanies kind "state".
	State State `json:"state,omitempty"`

	// Index/Total/Site/Outcome/Served/Reason accompany kind "run".
	Index   int    `json:"index,omitempty"`
	Total   int    `json:"total,omitempty"`
	Site    string `json:"site,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	// Served says where the result came from: cold, warm, forked,
	// fast-forward (live execution paths), or cache (a run-store hit, which
	// is how a resumed job's finished runs come back).
	Served string `json:"served,omitempty"`
	// Reason says why a campaign run took its path (sim.RunProgress.Reason).
	Reason string `json:"reason,omitempty"`

	// Detail carries free-form text for "log" and failure states.
	Detail string `json:"detail,omitempty"`
}

// eventBufferCap bounds each job's in-memory replay buffer. A 16-site
// campaign fits trivially; a 100k-program fuzz job keeps its most recent
// window and reports the overflow, so memory stays bounded per job.
const eventBufferCap = 4096

// hub is one job's event fan-out: an append-only capped buffer plus a
// condition variable. Subscribers replay the buffer from any sequence
// number and then block for new events, so a client that reconnects after
// a server restart resumes its stream mid-job.
type hub struct {
	mu      sync.Mutex
	cond    *sync.Cond
	events  []Event // most recent eventBufferCap events
	first   int     // Seq of events[0]
	nextSeq int
	dropped int
	closed  bool
}

func newHub() *hub {
	h := &hub{nextSeq: 1, first: 1}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish appends an event, stamping its sequence number.
func (h *hub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = h.nextSeq
	h.nextSeq++
	h.events = append(h.events, e)
	if len(h.events) > eventBufferCap {
		over := len(h.events) - eventBufferCap
		h.events = h.events[over:]
		h.first += over
		h.dropped += over
	}
	h.cond.Broadcast()
}

// close wakes all subscribers; next returns ok=false once drained.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// nextCtx blocks until an event with Seq > after exists, returning it, or
// until the hub closes with nothing further or the context cancels
// (ok=false) — a disconnected streaming client stops blocking as soon as
// its request context cancels. A subscriber that fell behind the buffer
// skips to the oldest retained event (the skip is visible as a sequence
// gap).
func (h *hub) nextCtx(ctx context.Context, after int) (Event, bool) {
	stop := context.AfterFunc(ctx, func() {
		h.mu.Lock()
		h.cond.Broadcast()
		h.mu.Unlock()
	})
	defer stop()
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return Event{}, false
		}
		if after+1 < h.first {
			after = h.first - 1
		}
		if idx := after + 1 - h.first; idx < len(h.events) {
			return h.events[idx], true
		}
		if h.closed {
			return Event{}, false
		}
		h.cond.Wait()
	}
}

// snapshot returns the buffered events with Seq > after (for catch-up
// reads that must not block).
func (h *hub) snapshot(after int) []Event {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after+1 < h.first {
		after = h.first - 1
	}
	idx := after + 1 - h.first
	if idx >= len(h.events) {
		return nil
	}
	out := make([]Event, len(h.events)-idx)
	copy(out, h.events[idx:])
	return out
}
