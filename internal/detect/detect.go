// Package detect defines the error-detection events raised by the redundancy
// checkers (SRT store compare, LVQ/BOQ validation, BlackJack's dependence and
// program-order checks) and a sink that collects them.
//
// In a fault-free run, any event is a simulator bug: integration tests assert
// an empty sink. In a fault-injection run the first event marks successful
// detection of the injected hard error.
package detect

import (
	"fmt"
	"slices"
)

// Checker identifies which redundancy mechanism raised an event.
type Checker uint8

// The checkers, in the order the paper introduces them.
const (
	// CheckStoreAddr fires when leading and trailing stores disagree on
	// address (SRT's output-comparison check, Section 3).
	CheckStoreAddr Checker = iota
	// CheckStoreValue fires when leading and trailing stores disagree on
	// data.
	CheckStoreValue
	// CheckStorePairing fires when store streams lose one-to-one pairing
	// (e.g. a trailing store commits with an empty store buffer): a
	// program-order error became visible at the memory interface.
	CheckStorePairing
	// CheckLVQAddr fires when a trailing load's computed address disagrees
	// with the Load Value Queue entry captured from the leading thread.
	CheckLVQAddr
	// CheckBOQOutcome fires when trailing branch execution disagrees with
	// the leading outcome it consumed as a prediction (SRT, Section 3;
	// BlackJack inherits the idea through its program-order check).
	CheckBOQOutcome
	// CheckDependence fires when BlackJack's second, program-order rename
	// table disagrees with the physical sources the trailing thread actually
	// used (Section 4.4): the dependence information borrowed from the
	// leading thread was corrupt, or the trailing rename path failed.
	CheckDependence
	// CheckPCOrder fires when the program counters of committed trailing
	// instructions do not follow sequential/branch-target order
	// (Section 4.4): instructions were dropped, added or reordered.
	CheckPCOrder

	NumCheckers
)

var checkerNames = [NumCheckers]string{
	CheckStoreAddr:    "store-addr",
	CheckStoreValue:   "store-value",
	CheckStorePairing: "store-pairing",
	CheckLVQAddr:      "lvq-addr",
	CheckBOQOutcome:   "boq-outcome",
	CheckDependence:   "dependence",
	CheckPCOrder:      "pc-order",
}

// String returns the checker's name.
func (c Checker) String() string {
	if int(c) < len(checkerNames) {
		return checkerNames[c]
	}
	return fmt.Sprintf("checker(%d)", uint8(c))
}

// Event is one detection.
type Event struct {
	Cycle   int64
	Checker Checker
	PC      int
	Detail  string
}

// String formats the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("cycle %d: %s at pc %d: %s", e.Cycle, e.Checker, e.PC, e.Detail)
}

// Sink collects events. The zero value is ready to use.
type Sink struct {
	events []Event
	// Limit caps stored events (0 means DefaultLimit); counting continues
	// past the cap.
	Limit int
	// Observer, when set, sees every reported event as it happens — the
	// observability layer's detection hook. It is not copied by Clone and
	// survives Reset: like trace state, it belongs to the harness driving
	// the run, not to the machine state.
	Observer func(Event)
	total    uint64
}

// DefaultLimit is the default maximum number of stored events.
const DefaultLimit = 64

// Report records an event.
func (s *Sink) Report(e Event) {
	s.total++
	limit := s.Limit
	if limit == 0 {
		limit = DefaultLimit
	}
	if len(s.events) < limit {
		s.events = append(s.events, e)
	}
	if s.Observer != nil {
		s.Observer(e)
	}
}

// Reportf formats and records an event.
func (s *Sink) Reportf(cycle int64, c Checker, pc int, format string, args ...any) {
	s.Report(Event{Cycle: cycle, Checker: c, PC: pc, Detail: fmt.Sprintf(format, args...)})
}

// Total returns the number of events reported (including uncached ones).
func (s *Sink) Total() uint64 { return s.total }

// Events returns the stored events (up to Limit).
func (s *Sink) Events() []Event { return s.events }

// First returns the earliest stored event; ok is false when none occurred.
func (s *Sink) First() (Event, bool) {
	if len(s.events) == 0 {
		return Event{}, false
	}
	return s.events[0], true
}

// Empty reports whether no events were recorded.
func (s *Sink) Empty() bool { return s.total == 0 }

// Reset clears the sink for reuse, keeping Limit and the stored-event backing
// array. Injection campaigns reset one sink per worker between runs instead
// of allocating one per run.
func (s *Sink) Reset() {
	s.events = s.events[:0]
	s.total = 0
}

// Clone returns an independent copy of the sink.
func (s *Sink) Clone() *Sink {
	c := &Sink{Limit: s.Limit, total: s.total}
	if len(s.events) > 0 {
		c.events = append([]Event(nil), s.events...)
	}
	return c
}

// Equal reports whether s and o recorded the same events under the same
// limit. The Observer is harness state and is not compared.
func (s *Sink) Equal(o *Sink) bool {
	return s.total == o.total && s.Limit == o.Limit && slices.Equal(s.events, o.events)
}
