// Package core implements the paper's primary contribution: the BlackJack
// mechanisms that make SRT's redundant threads spatially diverse so hard
// errors are detected.
//
//   - The Dependence Trace Queue (DTQ, Section 4.2.1) records issued leading
//     instructions in issue order, grouped into packets of co-issued (hence
//     independent) instructions, together with their rename maps, pipeline
//     way usage and — at commit — their virtual active-list/load-store-queue
//     ordinals.
//   - Safe-shuffle (Section 4.2.2) reorders each committed packet so every
//     trailing instruction is fetched to a different frontend way and issued
//     to a different backend way than its leading copy, inserting typed NOPs
//     and splitting packets when the greedy allocation cannot place an
//     instruction.
//   - The trailing thread's double rename (Section 4.3.1) renames the
//     *leading thread's physical registers*, and the commit checks
//     (Section 4.4) validate the borrowed dependence and program-order
//     information with a second, program-order rename table and a program
//     counter sequence check.
package core

import (
	"blackjack/internal/isa"
	"blackjack/internal/queues"
	"blackjack/internal/rename"
)

// Entry is the DTQ record for one issued leading instruction.
type Entry struct {
	// Seq is the leading thread's fetch-order (program-order) sequence
	// number, used to drop squashed wrong-path entries.
	Seq uint64
	// PacketID groups instructions co-issued in the same leading cycle.
	PacketID uint64
	PC       int
	// RawInst is the undecoded instruction as fetched from the I-cache (not
	// the possibly fault-corrupted decoded form): the trailing thread
	// re-decodes it on a different frontend way.
	RawInst isa.Inst

	// Leading resource usage, for enforcing spatial diversity.
	FrontWay int
	BackWay  int
	Class    isa.UnitClass

	// Leading rename maps: the trailing thread renames these physical names
	// instead of logical registers (double rename).
	PSrc1, PSrc2, PDest rename.PhysReg

	// Program-order information, recorded at leading commit.
	Committed bool
	VirtAL    uint64 // virtual active-list ordinal (program order)
	VirtLSQ   uint64 // virtual load/store-queue ordinal (valid for memory ops)
	LoadSeq   uint64 // load ordinal, for LVQ pairing (valid for loads)
	StoreSeq  uint64 // store ordinal, for store-buffer pairing (valid for stores)
	Halt      bool
}

// DTQ is the Dependence Trace Queue. Entries are allocated at leading issue
// (in issue order; any order within a packet), updated at leading commit, and
// consumed packet-at-a-time by safe-shuffle once every instruction of the
// head packet has committed. Squashed wrong-path entries are removed so the
// DTQ holds only instructions that will commit.
type DTQ struct {
	ring *queues.Ring[*Entry]
	// bySeq finds an entry by Seq for commit-time updates: entry e sits at
	// bySeq[e.Seq&seqMask] unless a later allocation took the slot. Only
	// uncommitted entries are looked up, and their Seqs lie within one
	// active-list window, so they collide only when the active list exceeds
	// the table (a power of two >= capacity); a lookup that misses falls
	// back to a ring scan.
	bySeq   []*Entry
	seqMask uint64
	// scratch backs the slice HeadPacket returns; the queue is polled every
	// cycle, so the backing array is reused instead of reallocated.
	scratch []*Entry
}

// NewDTQ builds a DTQ with the given capacity (Table 1: 1024 instructions).
func NewDTQ(capacity int) *DTQ {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &DTQ{
		ring:    queues.NewRing[*Entry](capacity),
		bySeq:   make([]*Entry, n),
		seqMask: uint64(n - 1),
	}
}

// Free returns the number of unallocated slots; leading instructions may only
// issue when a slot is available.
func (q *DTQ) Free() int { return q.ring.Free() }

// Len returns the number of allocated entries.
func (q *DTQ) Len() int { return q.ring.Len() }

// Allocate records an issued leading instruction. It reports false when the
// DTQ is full (the caller must have reserved space before issuing).
func (q *DTQ) Allocate(e *Entry) bool {
	if !q.ring.Push(e) {
		return false
	}
	q.bySeq[e.Seq&q.seqMask] = e
	return true
}

// forget clears e's lookup slot if e still holds it.
func (q *DTQ) forget(e *Entry) {
	if i := e.Seq & q.seqMask; q.bySeq[i] == e {
		q.bySeq[i] = nil
	}
}

// find returns the queued entry with the given Seq, or nil.
func (q *DTQ) find(seq uint64) *Entry {
	if e := q.bySeq[seq&q.seqMask]; e != nil && e.Seq == seq {
		return e
	}
	for i := 0; i < q.ring.Len(); i++ {
		if e := q.ring.At(i); e.Seq == seq {
			return e
		}
	}
	return nil
}

// MarkCommitted fills in the program-order information when the leading
// instruction commits. It reports false when the entry does not exist
// (indicating a bookkeeping bug).
func (q *DTQ) MarkCommitted(seq, virtAL, virtLSQ, loadSeq, storeSeq uint64, halt bool) bool {
	e := q.find(seq)
	if e == nil {
		return false
	}
	e.Committed = true
	e.VirtAL = virtAL
	e.VirtLSQ = virtLSQ
	e.LoadSeq = loadSeq
	e.StoreSeq = storeSeq
	e.Halt = halt
	return true
}

// SquashYounger removes entries with Seq > seq (wrong-path instructions
// squashed by a leading branch misprediction) and returns how many were
// dropped. The queue is in issue order, and an older instruction may issue
// after a younger wrong-path one, so the younger entries need not form a
// suffix: the survivors are compacted in place and the tail truncated.
func (q *DTQ) SquashYounger(seq uint64) int {
	n := q.ring.Len()
	w := 0
	for i := 0; i < n; i++ {
		e := q.ring.At(i)
		if e.Seq > seq {
			q.forget(e)
			continue
		}
		if w != i {
			q.ring.SetAt(w, e)
		}
		w++
	}
	q.ring.Truncate(w)
	return n - w
}

// Clone returns an independent deep copy of the DTQ (nil-safe). Entries are
// owned by the machine, so the caller supplies remap to translate each entry
// pointer into its copy; the Seq table is rebuilt from the remapped ring.
func (q *DTQ) Clone(remap func(*Entry) *Entry) *DTQ {
	if q == nil {
		return nil
	}
	c := &DTQ{ring: q.ring.Clone(), bySeq: make([]*Entry, len(q.bySeq)), seqMask: q.seqMask}
	for i := 0; i < c.ring.Len(); i++ {
		e := remap(c.ring.At(i))
		c.ring.SetAt(i, e)
		c.bySeq[e.Seq&c.seqMask] = e
	}
	return c
}

// HeadPacket returns the instructions of the oldest-issued packet if every
// one of them has committed, without consuming them. It returns nil while the
// packet is incomplete or the queue is empty. The returned slice shares a
// scratch backing array and is only valid until the next HeadPacket call.
func (q *DTQ) HeadPacket() []*Entry {
	n := q.ring.Len()
	if n == 0 {
		return nil
	}
	id := q.ring.At(0).PacketID
	pkt := q.scratch[:0]
	for i := 0; i < n; i++ {
		e := q.ring.At(i)
		if e.PacketID != id {
			break
		}
		if !e.Committed {
			return nil
		}
		pkt = append(pkt, e)
	}
	q.scratch = pkt
	return pkt
}

// HeadPackets returns up to n consecutive fully-committed packets from the
// head, stopping at the first incomplete packet. Used by the merging shuffle
// (Section 6.2's suggested extension) to consider adjacent packets together.
func (q *DTQ) HeadPackets(n int) [][]*Entry {
	var out [][]*Entry
	total := q.ring.Len()
	i := 0
	for len(out) < n && i < total {
		id := q.ring.At(i).PacketID
		var pkt []*Entry
		for i < total {
			e := q.ring.At(i)
			if e.PacketID != id {
				break
			}
			if !e.Committed {
				return out
			}
			pkt = append(pkt, e)
			i++
		}
		out = append(out, pkt)
	}
	return out
}

// PopPacket consumes n entries from the head (the packet previously returned
// by HeadPacket).
func (q *DTQ) PopPacket(n int) {
	for i := 0; i < n; i++ {
		e, ok := q.ring.Pop()
		if !ok {
			return
		}
		q.forget(e)
	}
}
