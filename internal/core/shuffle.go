package core

import "blackjack/internal/isa"

// Slot is one lane of a shuffled trailing packet. Exactly one of the three
// states holds: an instruction (Entry != nil), a typed NOP (Entry == nil,
// IsNOP), or a hole (Entry == nil, !IsNOP — the fetch lane stays idle).
type Slot struct {
	Entry    *Entry
	IsNOP    bool
	NopClass isa.UnitClass
}

// Empty reports whether the slot carries neither an instruction nor a NOP.
func (s Slot) Empty() bool { return s.Entry == nil && !s.IsNOP }

// Packet is one shuffled trailing fetch packet. Slot index i maps directly to
// frontend way i when the packet is fetched; the planned backend way of the
// instruction in slot i is the number of same-class slots (instructions or
// typed NOPs) at lower indices.
type Packet struct {
	ID    uint64
	Slots []Slot
}

// Equal reports whether p and o have the same ID and slots, comparing the
// slots' entries by value.
func (p *Packet) Equal(o *Packet) bool {
	if p.ID != o.ID || len(p.Slots) != len(o.Slots) {
		return false
	}
	for i := range p.Slots {
		a, b := &p.Slots[i], &o.Slots[i]
		if a.IsNOP != b.IsNOP || a.NopClass != b.NopClass || !entryEqual(a.Entry, b.Entry) {
			return false
		}
	}
	return true
}

// Insts returns the number of real instructions in the packet.
func (p Packet) Insts() int {
	n := 0
	for _, s := range p.Slots {
		if s.Entry != nil {
			n++
		}
	}
	return n
}

// NOPs returns the number of typed NOPs in the packet.
func (p Packet) NOPs() int {
	n := 0
	for _, s := range p.Slots {
		if s.Entry == nil && s.IsNOP {
			n++
		}
	}
	return n
}

// PlannedBackWay returns the backend way slot i's content will receive if the
// packet co-issues whole and alone under oldest-first, lowest-free-index
// mapping: the count of same-class content at lower slots.
func (p Packet) PlannedBackWay(i int) int {
	class, ok := p.slotClass(i)
	if !ok {
		return -1
	}
	n := 0
	for j := 0; j < i; j++ {
		if c, ok := p.slotClass(j); ok && c == class {
			n++
		}
	}
	return n
}

func (p Packet) slotClass(i int) (isa.UnitClass, bool) {
	s := p.Slots[i]
	switch {
	case s.Entry != nil:
		return s.Entry.Class, true
	case s.IsNOP:
		return s.NopClass, true
	default:
		return 0, false
	}
}

// Shuffler runs safe-shuffle over committed DTQ packets.
type Shuffler struct {
	// Width is the fetch width (number of slots per output packet).
	Width int
	// Units is the number of backend ways per unit class; classes with fewer
	// than two ways cannot be made spatially diverse (the paper doubles the
	// integer multipliers and dividers for exactly this reason), so for them
	// only frontend diversity is enforced.
	Units [isa.NumUnitClasses]int
	// Disabled turns safe-shuffle off (the BlackJack-NS configuration of
	// Section 6.2): packets pass through unshuffled, with no NOPs and no
	// splitting.
	Disabled bool

	nextID uint64
	// slotFree recycles consumed packets' slot arrays (see RecycleSlots);
	// outScratch backs the packet slice Shuffle returns.
	slotFree   [][]Slot
	outScratch []Packet
	// statistics
	inputPackets  uint64
	outputPackets uint64
	splits        uint64
	nops          uint64
}

// CopyFrom makes s a copy of src: configuration, packet-ID counter and
// statistics. The slot-array free list and output scratch are transient
// per-call state; s keeps its own, the free slot arrays only while they
// have src's width.
func (s *Shuffler) CopyFrom(src *Shuffler) {
	free, scratch := s.slotFree, s.outScratch
	if s.Width != src.Width {
		free = nil
	}
	*s = *src
	s.slotFree, s.outScratch = free, scratch
}

// Equal reports whether s and o have the same configuration, packet-ID
// counter and statistics (nil-safe). The slot free list and output scratch
// are not compared.
func (s *Shuffler) Equal(o *Shuffler) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Width == o.Width && s.Units == o.Units && s.Disabled == o.Disabled &&
		s.nextID == o.nextID && s.inputPackets == o.inputPackets &&
		s.outputPackets == o.outputPackets && s.splits == o.splits && s.nops == o.nops
}

// NewSlots returns a zeroed Width-sized slot array, reusing a recycled one
// when available.
func (s *Shuffler) NewSlots() []Slot {
	n := len(s.slotFree)
	if n == 0 {
		return make([]Slot, s.Width)
	}
	sl := s.slotFree[n-1]
	s.slotFree = s.slotFree[:n-1]
	for i := range sl {
		sl[i] = Slot{}
	}
	return sl
}

// RecycleSlots returns a consumed packet's slot array for reuse. Callers
// guarantee the packet's contents have been copied out (trailing fetch builds
// value-typed fetch items from the slots).
func (s *Shuffler) RecycleSlots(slots []Slot) {
	if len(slots) == s.Width {
		s.slotFree = append(s.slotFree, slots)
	}
}

// Stats returns (input packets, output packets, packet splits, NOPs
// inserted).
func (s *Shuffler) Stats() (in, out, splits, nops uint64) {
	return s.inputPackets, s.outputPackets, s.splits, s.nops
}

// Shuffle maps one committed input packet to one or more output packets using
// the paper's greedy algorithm (Section 4.2.2):
//
//   - Each instruction, in input order, grabs the first usable output slot. A
//     slot is usable when the slot number differs from the instruction's
//     leading frontend way, the implied backend way differs from the leading
//     backend way, and the implied backend way actually exists.
//   - Passing over an empty slot it cannot use (frontend or backend
//     conflict), the instruction leaves a NOP marked with its own class,
//     freezing the backend-way arithmetic below already-placed instructions
//     (see place).
//   - An instruction may claim a slot holding a NOP of its own class.
//   - When no slot fits, the output packet is closed and the remaining
//     instructions start a new one (a packet split, which costs performance
//     but preserves coverage).
//
// The returned slice shares a scratch backing array and is only valid until
// the next Shuffle call; callers copy the packets out (the machine pushes
// them into its packet queue in the same cycle).
func (s *Shuffler) Shuffle(in []*Entry) []Packet {
	if len(in) == 0 {
		return nil
	}
	s.inputPackets++
	if s.Disabled {
		out := s.outScratch[:0]
		p := Packet{ID: s.nextID, Slots: s.NewSlots()}
		s.nextID++
		i := 0
		for _, e := range in {
			if i >= s.Width {
				// Cannot happen when issue width equals fetch width; guard
				// against misconfiguration by splitting.
				out = append(out, p)
				s.outputPackets++
				p = Packet{ID: s.nextID, Slots: s.NewSlots()}
				s.nextID++
				i = 0
			}
			p.Slots[i] = Slot{Entry: e}
			i++
		}
		out = append(out, p)
		s.outputPackets++
		s.outScratch = out
		return out
	}

	out := s.outScratch[:0]
	cur := Packet{ID: s.nextID, Slots: s.NewSlots()}
	s.nextID++
	for _, e := range in {
		if !s.place(&cur, e) {
			// Split: close the current packet and start a new one. The fresh
			// packet always has room (see the termination argument in
			// DESIGN.md).
			out = append(out, cur)
			s.outputPackets++
			s.splits++
			cur = Packet{ID: s.nextID, Slots: s.NewSlots()}
			s.nextID++
			if !s.place(&cur, e) {
				// Unreachable for width >= 3; tolerate by dropping diversity
				// and placing at the first free slot.
				for i := range cur.Slots {
					if cur.Slots[i].Empty() {
						cur.Slots[i] = Slot{Entry: e}
						break
					}
				}
			}
		}
	}
	out = append(out, cur)
	s.outputPackets++
	s.outScratch = out
	return out
}

// place tries to allocate e into p per the greedy rules, returning success.
//
// Every empty slot the instruction passes over receives a NOP marked with the
// instruction's own class (the paper's rule). This is load-bearing: the NOP
// freezes the same-class count below every already-placed instruction, so
// later placements can never retroactively shift an earlier instruction's
// planned backend way — only a same-class instruction may replace a NOP,
// which keeps the counts identical. The cost is that a packet can end up
// planning more same-class ops (instructions plus NOPs) than there are ways,
// in which case the hardware splits it at issue; that shows up as (rare)
// trailing-trailing interference, not as a correctness problem.
func (s *Shuffler) place(p *Packet, e *Entry) bool {
	diversifiable := s.Units[e.Class] >= 2
	for i := 0; i < len(p.Slots); i++ {
		slot := p.Slots[i]
		if slot.Entry != nil {
			continue
		}
		bw := s.impliedBackWay(p, i, e.Class)
		feOK := i != e.FrontWay
		beOK := !diversifiable || bw != e.BackWay
		if slot.IsNOP {
			if slot.NopClass == e.Class && feOK && beOK {
				p.Slots[i] = Slot{Entry: e}
				s.nops-- // replaced
				return true
			}
			continue
		}
		// Empty slot.
		if feOK && beOK {
			p.Slots[i] = Slot{Entry: e}
			return true
		}
		// Pass over: mark the slot with a NOP. A NOP (of any class) freezes
		// the backend-way arithmetic; the class choice only matters for what
		// it occupies at issue. A backend conflict needs a NOP of the
		// instruction's own class to shift the count past the leading way;
		// a frontend conflict does not, so the NOP takes the class with the
		// most spare ways to avoid oversubscribing a narrow class (which
		// would force the packet to split at issue).
		cls := e.Class
		if !feOK {
			cls = s.sparestClass(p)
		}
		p.Slots[i] = Slot{IsNOP: true, NopClass: cls}
		s.nops++
	}
	return false
}

// sparestClass returns the unit class with the most ways left unclaimed by
// the packet's current content.
func (s *Shuffler) sparestClass(p *Packet) isa.UnitClass {
	best := isa.UnitIntALU
	bestSpare := -1 << 30
	for cls := isa.UnitClass(0); cls < isa.NumUnitClasses; cls++ {
		count := 0
		for j := range p.Slots {
			if c, ok := p.slotClass(j); ok && c == cls {
				count++
			}
		}
		if spare := s.Units[cls] - count; spare > bestSpare {
			best, bestSpare = cls, spare
		}
	}
	return best
}

// impliedBackWay counts same-class content below slot i.
func (s *Shuffler) impliedBackWay(p *Packet, i int, class isa.UnitClass) int {
	n := 0
	for j := 0; j < i; j++ {
		if c, ok := p.slotClass(j); ok && c == class {
			n++
		}
	}
	return n
}
