// Package redundancy implements the SRT coupling mechanisms between the
// leading and trailing threads (Section 3 of the paper): the Branch Outcome
// Queue (BOQ), the Load Value Queue (LVQ), the checking store buffer, and the
// committed-stream queue that models the trailing thread's never-mispredicting
// fetch. BlackJack reuses the LVQ and store buffer; the BOQ is SRT-only
// (BlackJack's trailing thread fetches pre-resolved packets from the DTQ).
package redundancy

import (
	"blackjack/internal/detect"
	"blackjack/internal/isa"
	"blackjack/internal/queues"
)

// BranchOutcome is one leading-thread branch result passed to the trailing
// thread as a "prediction" it must validate by execution.
type BranchOutcome struct {
	Seq    uint64 // per-thread branch ordinal, program order
	PC     int
	Taken  bool
	Target int
}

// BOQ is the Branch Outcome Queue. Entries are pushed at leading branch
// commit and consumed, in order, at trailing branch commit.
type BOQ struct {
	ring queues.Ring[BranchOutcome]
}

// NewBOQ builds a BOQ with the given capacity (Table 1: 96).
func NewBOQ(capacity int) *BOQ {
	q := &BOQ{}
	q.Init(capacity)
	return q
}

// Init empties q and sets its capacity, reusing its storage.
func (q *BOQ) Init(capacity int) { q.ring.Init(capacity) }

// Full reports whether the BOQ can accept no more outcomes (leading branch
// commit must stall).
func (q *BOQ) Full() bool { return q.ring.Full() }

// Len returns the number of queued outcomes.
func (q *BOQ) Len() int { return q.ring.Len() }

// Push records a leading branch outcome; it reports false when full.
func (q *BOQ) Push(o BranchOutcome) bool { return q.ring.Push(o) }

// Validate consumes the head outcome and compares it against the trailing
// thread's own execution of the same branch. Disagreement — or a missing
// outcome, which means the threads lost branch pairing — is reported to the
// sink. It returns true when the check passed.
func (q *BOQ) Validate(sink *detect.Sink, cycle int64, seq uint64, pc int, taken bool, target int) bool {
	o, ok := q.ring.Pop()
	if !ok {
		sink.Reportf(cycle, detect.CheckBOQOutcome, pc, "trailing branch seq %d has no BOQ entry", seq)
		return false
	}
	if o.Seq != seq || o.PC != pc {
		sink.Reportf(cycle, detect.CheckBOQOutcome, pc,
			"branch pairing lost: BOQ has seq %d pc %d, trailing executed seq %d pc %d", o.Seq, o.PC, seq, pc)
		return false
	}
	if o.Taken != taken || (taken && o.Target != target) {
		sink.Reportf(cycle, detect.CheckBOQOutcome, pc,
			"branch outcome mismatch: leading (taken=%v target=%d) trailing (taken=%v target=%d)",
			o.Taken, o.Target, taken, target)
		return false
	}
	return true
}

// CopyFrom makes q an independent deep copy of src, reusing q's storage.
func (q *BOQ) CopyFrom(src *BOQ) { q.ring.CopyFrom(&src.ring) }

// Equal reports whether q and o hold the same outcomes (nil-safe).
func (q *BOQ) Equal(o *BOQ) bool {
	if q == nil || o == nil {
		return q == o
	}
	return queues.Equal(&q.ring, &o.ring)
}

// LoadValue is one leading load result forwarded to the trailing thread.
type LoadValue struct {
	Seq   uint64 // per-thread load ordinal, program order
	PC    int
	Addr  uint64
	Value uint64
}

// LVQ is the Load Value Queue. Entries are pushed in load program order at
// leading load commit; the trailing thread reads them (possibly out of order,
// under BlackJack's issue-order fetch) by load ordinal and retires them in
// order at trailing load commit.
type LVQ struct {
	ring    queues.Ring[LoadValue]
	headSeq uint64 // Seq of the entry at the ring head
}

// NewLVQ builds an LVQ with the given capacity (Table 1: 128).
func NewLVQ(capacity int) *LVQ {
	q := &LVQ{}
	q.Init(capacity)
	return q
}

// Init empties q and sets its capacity, reusing its storage.
func (q *LVQ) Init(capacity int) {
	q.ring.Init(capacity)
	q.headSeq = 0
}

// Full reports whether the LVQ can accept no more values (leading load commit
// must stall).
func (q *LVQ) Full() bool { return q.ring.Full() }

// Free returns the number of unused LVQ slots.
func (q *LVQ) Free() int { return q.ring.Free() }

// Len returns the number of queued values.
func (q *LVQ) Len() int { return q.ring.Len() }

// Push appends a leading load value; entries must arrive in consecutive Seq
// order. It reports false when full.
func (q *LVQ) Push(v LoadValue) bool {
	if q.ring.Empty() {
		if q.ring.Push(v) {
			q.headSeq = v.Seq
			return true
		}
		return false
	}
	return q.ring.Push(v)
}

// Lookup returns the entry for the given load ordinal without consuming it.
// ok is false when the entry is not (or no longer) present — under correct
// operation that cannot happen, because the trailing thread only executes
// loads the leading thread has committed.
func (q *LVQ) Lookup(seq uint64) (LoadValue, bool) {
	if seq < q.headSeq {
		return LoadValue{}, false
	}
	off := int(seq - q.headSeq)
	if off >= q.ring.Len() {
		return LoadValue{}, false
	}
	return q.ring.At(off), true
}

// Retire pops the head entry, which must have the given ordinal, at trailing
// load commit. It reports false on pairing loss.
func (q *LVQ) Retire(seq uint64) bool {
	v, ok := q.ring.Peek()
	if !ok || v.Seq != seq {
		return false
	}
	q.ring.Pop()
	q.headSeq = seq + 1
	return true
}

// ValidateAddr compares a trailing load's self-computed address against the
// LVQ entry (the SRT address check) and returns the value to forward. A
// missing entry or an address mismatch is reported to the sink.
func (q *LVQ) ValidateAddr(sink *detect.Sink, cycle int64, seq uint64, pc int, addr uint64) (value uint64, ok bool) {
	v, found := q.Lookup(seq)
	if !found {
		sink.Reportf(cycle, detect.CheckLVQAddr, pc, "trailing load seq %d has no LVQ entry", seq)
		return 0, false
	}
	if v.Addr != addr {
		sink.Reportf(cycle, detect.CheckLVQAddr, pc,
			"load address mismatch: leading %#x trailing %#x (seq %d)", v.Addr, addr, seq)
		return v.Value, false
	}
	return v.Value, true
}

// CopyFrom makes q an independent deep copy of src, reusing q's storage.
func (q *LVQ) CopyFrom(src *LVQ) {
	q.ring.CopyFrom(&src.ring)
	q.headSeq = src.headSeq
}

// Equal reports whether q and o hold the same load values (nil-safe).
func (q *LVQ) Equal(o *LVQ) bool {
	if q == nil || o == nil {
		return q == o
	}
	return q.headSeq == o.headSeq && queues.Equal(&q.ring, &o.ring)
}

// PendingStore is a committed leading store awaiting its trailing copy.
type PendingStore struct {
	Seq   uint64 // per-thread store ordinal, program order
	PC    int
	Addr  uint64
	Value uint64
}

// StoreBuffer holds committed leading stores until the corresponding trailing
// stores commit and the comparison passes; only then is the store released to
// the memory image (SRT's output comparison, Section 3).
type StoreBuffer struct {
	ring queues.Ring[PendingStore]
}

// NewStoreBuffer builds a store buffer with the given capacity (Table 1: 64).
func NewStoreBuffer(capacity int) *StoreBuffer {
	b := &StoreBuffer{}
	b.Init(capacity)
	return b
}

// Init empties b and sets its capacity, reusing its storage.
func (b *StoreBuffer) Init(capacity int) { b.ring.Init(capacity) }

// Full reports whether the buffer can accept no more stores (leading store
// commit must stall).
func (b *StoreBuffer) Full() bool { return b.ring.Full() }

// Free returns the number of unused store-buffer slots.
func (b *StoreBuffer) Free() int { return b.ring.Free() }

// Len returns the number of pending stores.
func (b *StoreBuffer) Len() int { return b.ring.Len() }

// Push records a committed leading store; it reports false when full.
func (b *StoreBuffer) Push(s PendingStore) bool { return b.ring.Push(s) }

// MatchYoungest returns the value of the youngest pending store to addr, for
// store-to-load forwarding from the (committed, unreleased) store buffer.
func (b *StoreBuffer) MatchYoungest(addr uint64) (value uint64, ok bool) {
	for i := b.ring.Len() - 1; i >= 0; i-- {
		if s := b.ring.At(i); s.Addr == addr {
			return s.Value, true
		}
	}
	return 0, false
}

// CheckRelease pairs the head pending store with a committed trailing store
// and compares address and value. The head entry is always consumed (the
// hardware releases or flags it either way). Mismatches are reported to the
// sink; released is the store to apply to memory and ok reports whether every
// check passed.
func (b *StoreBuffer) CheckRelease(sink *detect.Sink, cycle int64, seq uint64, pc int, addr, value uint64) (released PendingStore, ok bool) {
	lead, found := b.ring.Pop()
	if !found {
		sink.Reportf(cycle, detect.CheckStorePairing, pc,
			"trailing store seq %d committed with empty store buffer", seq)
		return PendingStore{}, false
	}
	ok = true
	if lead.Seq != seq {
		sink.Reportf(cycle, detect.CheckStorePairing, pc,
			"store pairing lost: buffer head seq %d, trailing seq %d", lead.Seq, seq)
		ok = false
	}
	if lead.Addr != addr {
		sink.Reportf(cycle, detect.CheckStoreAddr, pc,
			"store address mismatch: leading %#x trailing %#x (seq %d)", lead.Addr, addr, seq)
		ok = false
	}
	if lead.Value != value {
		sink.Reportf(cycle, detect.CheckStoreValue, pc,
			"store value mismatch: leading %#x trailing %#x (seq %d)", lead.Value, value, seq)
		ok = false
	}
	return lead, ok
}

// CopyFrom makes b an independent deep copy of src, reusing b's storage.
func (b *StoreBuffer) CopyFrom(src *StoreBuffer) { b.ring.CopyFrom(&src.ring) }

// Equal reports whether b and o hold the same pending stores (nil-safe).
func (b *StoreBuffer) Equal(o *StoreBuffer) bool {
	if b == nil || o == nil {
		return b == o
	}
	return queues.Equal(&b.ring, &o.ring)
}

// StreamEntry is one committed leading instruction, as fed to the SRT
// trailing thread's fetch. It carries the leading thread's resource usage so
// coverage can be computed when the pair completes.
type StreamEntry struct {
	Seq      uint64 // leading commit (program) order
	PC       int
	Inst     isa.Inst // raw instruction bits as fetched from the I-cache
	FrontWay int
	BackWay  int
	Class    isa.UnitClass
	LoadSeq  uint64 // valid when Inst is a load
	StoreSeq uint64 // valid when Inst is a store
	Halt     bool
}

// Stream is the committed-instruction queue the SRT trailing thread fetches
// from. It models BOQ-steered, never-mispredicting fetch of the leading
// thread's dynamic instruction stream (see DESIGN.md).
type Stream struct {
	ring queues.Ring[StreamEntry]
	// scratch backs the slice FetchGroup returns; the trailing frontend polls
	// every cycle, so the backing array is reused instead of reallocated.
	scratch []StreamEntry
}

// NewStream builds a stream queue with the given capacity.
func NewStream(capacity int) *Stream {
	s := &Stream{}
	s.Init(capacity)
	return s
}

// Init empties s and sets its capacity, reusing its storage.
func (s *Stream) Init(capacity int) { s.ring.Init(capacity) }

// Full reports whether the stream can accept no more entries.
func (s *Stream) Full() bool { return s.ring.Full() }

// Len returns the number of queued instructions.
func (s *Stream) Len() int { return s.ring.Len() }

// Push appends a committed leading instruction; it reports false when full.
func (s *Stream) Push(e StreamEntry) bool { return s.ring.Push(e) }

// PeekAt returns the i-th queued entry (0 = oldest) for fetch-group
// formation. It panics when out of range.
func (s *Stream) PeekAt(i int) StreamEntry { return s.ring.At(i) }

// Pop consumes the oldest entry.
func (s *Stream) Pop() (StreamEntry, bool) { return s.ring.Pop() }

// CopyFrom makes s an independent deep copy of src, reusing s's storage.
// The FetchGroup scratch buffer is not copied; it is transient per-call
// state.
func (s *Stream) CopyFrom(src *Stream) { s.ring.CopyFrom(&src.ring) }

// Equal reports whether s and o hold the same committed entries
// (nil-safe). The fetch-group scratch is not compared.
func (s *Stream) Equal(o *Stream) bool {
	if s == nil || o == nil {
		return s == o
	}
	return queues.Equal(&s.ring, &o.ring)
}

// FetchGroup pops up to width consecutive entries that lie in the same
// width-aligned I-cache block with sequential PCs — the same group formation
// the leading thread's fetch uses, so the trailing thread's frontend-way
// assignment (PC mod width) is identical to the leading thread's. This is
// exactly the zero-frontend-diversity property of SRT (Section 4.1). The
// returned slice shares a scratch backing array and is only valid until the
// next FetchGroup call.
func (s *Stream) FetchGroup(width int) []StreamEntry {
	n := s.ring.Len()
	if n == 0 {
		return nil
	}
	first := s.ring.At(0)
	group := s.scratch[:0]
	block := first.PC / width
	for i := 0; i < n && len(group) < width; i++ {
		e := s.ring.At(i)
		if e.PC/width != block {
			break
		}
		if len(group) > 0 && e.PC != group[len(group)-1].PC+1 {
			break
		}
		group = append(group, e)
	}
	for range group {
		s.ring.Drop()
	}
	s.scratch = group
	return group
}
