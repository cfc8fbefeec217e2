package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one op share its ID; parent is the index of the
// enclosing span (-1 for a root).
type span struct {
	name       string
	op         int
	parent     int
	tid        int
	start, end time.Duration // since the tracer's origin
	n          int64         // work done in the span (instructions, ...)
}

// tracer keeps a run's spans in memory; they are written out and reduced
// to per-layer metrics when the run ends. A nil *tracer records nothing, so
// untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) start(name string, op, parent, tid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, tid: tid, start: now, end: -1})
	return len(t.spans) - 1
}

// finish closes a span opened by start, recording n units of work.
func (t *tracer) finish(id int, n int64) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.spans[id].n = n
}

// record adds a span whose bounds were observed elsewhere (event
// timestamps), clipped to its parent when the parent is already closed.
func (t *tracer) record(name string, op, parent, tid int, from, to time.Time, n int64) int {
	if t == nil {
		return -1
	}
	s := span{name: name, op: op, parent: parent, tid: tid, start: from.Sub(t.t0), end: to.Sub(t.t0), n: n}
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 && t.spans[parent].end >= 0 {
		p := t.spans[parent]
		s.start = min(max(s.start, p.start), p.end)
		s.end = min(max(s.end, s.start), p.end)
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// layerTotals is the reduction of every span of one name.
type layerTotals struct {
	count int
	total time.Duration // sum of span durations
	self  time.Duration // total minus the time covered by child spans
	n     int64
}

// mean is the average span duration in seconds (0 when none ran).
func (l *layerTotals) mean() float64 {
	if l == nil || l.count == 0 {
		return 0
	}
	return l.total.Seconds() / float64(l.count)
}

// rate is work per second of span time (0 when none ran).
func (l *layerTotals) rate() float64 {
	if l == nil || l.total <= 0 {
		return 0
	}
	return float64(l.n) / l.total.Seconds()
}

// totals reduces the spans by name. Children of one span never overlap (one
// goroutine issues them in turn), so self time is the span's duration
// minus the sum of its children's.
func (t *tracer) totals() map[string]*layerTotals {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		l := out[s.name]
		if l == nil {
			l = &layerTotals{}
			out[s.name] = l
		}
		l.count++
		l.total += s.end - s.start
		l.self += s.end - s.start - covered[i]
		l.n += s.n
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON, the
// {"traceEvents":[...]} shape Perfetto and chrome://tracing open: one
// complete ("X") event per span, on the track of the goroutine that made
// the call, with the op ID and work count as arguments.
func (t *tracer) writeChrome(path, process string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":%q}}", process)
	for _, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"cat\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,\"tid\":%d,\"args\":{\"op\":%d,\"n\":%d}}",
			s.name, layer, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.tid, s.op, s.n)
	}
	fmt.Fprintf(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
