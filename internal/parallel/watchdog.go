package parallel

import (
	"sync"
	"time"
)

// Watchdog detects hung workers in a batch fan-out. Workers bracket each
// item with Begin/End; a monitor goroutine scans the live items and counts
// each item that has been running longer than the threshold once.
// The watchdog observes only — Go offers no safe way to kill a goroutine —
// so the cure for a detected hang is the per-run budget (context deadline)
// threaded into the simulation loop; the watchdog is the layer that notices
// when even that failed, or when no budget was configured.
//
// Stall counts are wall-clock driven and therefore intentionally kept OUT
// of the deterministic metrics registries: they go to the Stalls counter
// (typically reported as a stderr note).
type Watchdog struct {
	stall time.Duration

	mu     sync.Mutex
	slots  map[int]*wdSlot
	stalls int

	stop chan struct{}
	done chan struct{}
}

type wdSlot struct {
	start    time.Time
	active   bool
	reported bool
}

// NewWatchdog starts a monitor that counts any item running longer than
// stall (positive), at most once per Begin. Call Stop to shut the monitor
// down.
func NewWatchdog(stall time.Duration) *Watchdog {
	w := &Watchdog{
		stall: stall,
		slots: make(map[int]*wdSlot),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go w.loop()
	return w
}

// Begin marks the worker as running a new item.
func (w *Watchdog) Begin(worker int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.slots[worker]
	if s == nil {
		s = &wdSlot{}
		w.slots[worker] = s
	}
	s.start = time.Now()
	s.active = true
	s.reported = false
}

// End marks the worker as idle.
func (w *Watchdog) End(worker int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if s := w.slots[worker]; s != nil {
		s.active = false
		s.reported = false
	}
}

// Stalls returns how many stalled items have been counted so far.
func (w *Watchdog) Stalls() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

// Stop shuts the monitor down and returns the final stall count. The
// watchdog must not be reused after Stop.
func (w *Watchdog) Stop() int {
	close(w.stop)
	<-w.done
	return w.Stalls()
}

func (w *Watchdog) loop() {
	defer close(w.done)
	period := w.stall / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			w.scan(now)
		}
	}
}

func (w *Watchdog) scan(now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.slots {
		if s.active && !s.reported && now.Sub(s.start) > w.stall {
			s.reported = true
			w.stalls++
		}
	}
}
