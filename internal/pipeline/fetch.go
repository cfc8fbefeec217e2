package pipeline

import (
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// fetchStage gives the single-ported fetch unit to one thread per cycle. In
// redundant modes the trailing thread gets priority once the leading thread
// is far enough ahead (the slack policy of Section 3); otherwise the leading
// thread fetches. If the preferred thread cannot fetch this cycle, the other
// thread gets the slot opportunistically.
func (m *Machine) fetchStage() {
	if !m.mode.Redundant() {
		m.fetchLeading(m.threads[leadThread])
		return
	}
	lead, trail := m.threads[leadThread], m.threads[trailThread]
	slack := int64(lead.committed) - int64(trail.fetched)
	var preferTrailing bool
	switch {
	case m.leadStopped:
		preferTrailing = true
	case slack < int64(m.cfg.Slack):
		preferTrailing = false
	case m.mode.UsesDTQ():
		// BlackJack: the one-packet-per-cycle trailing fetch is the
		// narrower pipe; once the slack target is met the trailing thread
		// takes every fetch slot it can use and the leading thread fills
		// the leftovers.
		preferTrailing = true
	default:
		// SRT: both threads fetch efficiently, so share the port by
		// alternating priority — the threads stay interleaved in the
		// backend instead of executing in phases.
		preferTrailing = m.cycle%2 == 0
	}
	if preferTrailing {
		if m.fetchTrailing(trail) == 0 {
			m.fetchLeading(lead)
		}
		return
	}
	if m.fetchLeading(lead) == 0 {
		m.fetchTrailing(trail)
	}
}

// fetchLeading fetches up to one aligned block's worth of instructions for
// the leading/single thread, following branch predictions. The frontend way
// of each instruction is its PC offset within the aligned block (the paper's
// direct fetch mapping).
func (m *Machine) fetchLeading(t *thread) int {
	if t.fetchStopped || t.halted {
		return 0
	}
	pc := t.fetchPC
	width := m.cfg.FetchWidth
	n := 0
	block := -1
	for n < width {
		if pc < 0 || pc >= len(m.prog.Code) {
			// Wrong-path fetch ran off the program; stall until redirected.
			t.fetchStopped = true
			break
		}
		if block == -1 {
			block = pc / width
		} else if pc/width != block {
			break // aligned-block boundary
		}
		if t.fetchQ.Full() {
			break
		}
		raw := m.prog.Code[pc]
		item := m.pushFetch(t, pc, raw, pc%width)
		next := pc + 1
		stop := false
		switch {
		case raw.Op == isa.OpHalt:
			t.fetchStopped = true
			stop = true
		case raw.Op == isa.OpJmp:
			item.predTaken = true
			next = int(raw.Imm)
			stop = true // taken branch ends the fetch group
		case raw.IsCondBranch():
			l := m.pred.Predict(pc)
			item.predTaken = l.Taken
			item.predLookup = l
			if item.predTaken {
				next = int(raw.Imm)
				stop = true
			}
		}
		t.fetched++
		m.stats.Fetched[t.id] = t.fetched
		n++
		pc = next
		if stop {
			break
		}
	}
	t.fetchPC = pc
	return n
}

// fetchTrailing dispatches to the mode's trailing fetch mechanism.
func (m *Machine) fetchTrailing(t *thread) int {
	if t.halted {
		return 0
	}
	if m.mode.UsesDTQ() {
		return m.fetchTrailingPacket(t)
	}
	return m.fetchTrailingStream(t)
}

// fetchTrailingStream models SRT trailing fetch: the committed leading stream
// is fetched with the same aligned-block grouping and PC-offset way mapping
// the leading thread used — hence zero frontend diversity.
func (m *Machine) fetchTrailingStream(t *thread) int {
	if t.fetchQ.Free() < m.cfg.FetchWidth {
		return 0
	}
	group := m.stream.FetchGroup(m.cfg.FetchWidth)
	for i := range group {
		e := &group[i]
		item := m.pushFetch(t, e.PC, e.Inst, e.PC%m.cfg.FetchWidth)
		item.pairValid = true
		item.leadFrontWay = e.FrontWay
		item.leadBackWay = e.BackWay
		item.leadClass = e.Class
		item.loadSeq = e.LoadSeq
		item.storeSeq = e.StoreSeq
		item.halt = e.Halt
		t.fetched++
		m.stats.Fetched[t.id] = t.fetched
	}
	return len(group)
}

// pushFetch appends the fetch item of instruction raw at pc, fetched on
// frontend way `way` this cycle, to t's fetch buffer and returns it; the
// caller fills in the fields its source supplies. The item is filled in
// place in its zeroed ring slot; callers have checked there is room.
func (m *Machine) pushFetch(t *thread, pc int, raw isa.Inst, way int) *fetchItem {
	item := t.fetchQ.PushRef()
	item.pc = pc
	item.raw = raw
	item.way = way
	item.fetchCycle = m.cycle
	return item
}

// fetchTrailingPacket fetches at most ONE shuffled packet per cycle
// (Section 4.3.1): fetching multiple packets could remap instructions to
// unintended frontend ways and lose spatial diversity. Slot index i maps to
// frontend way i.
func (m *Machine) fetchTrailingPacket(t *thread) int {
	pkt, ok := m.packets.Peek()
	if !ok {
		return 0
	}
	need := 0
	for _, s := range pkt.Slots {
		if !s.Empty() {
			need++
		}
	}
	if t.fetchQ.Free() < need {
		return 0
	}
	m.packets.Drop()
	m.stats.TrailingPackets++
	n := 0
	for i, s := range pkt.Slots {
		switch {
		case s.Entry != nil:
			e := s.Entry
			item := m.pushFetch(t, e.PC, e.RawInst, i)
			item.pairValid = true
			item.leadFrontWay = e.FrontWay
			item.leadBackWay = e.BackWay
			item.leadClass = e.Class
			item.loadSeq = e.LoadSeq
			item.storeSeq = e.StoreSeq
			item.halt = e.Halt
			item.leadPSrc1, item.leadPSrc2, item.leadPDest = e.PSrc1, e.PSrc2, e.PDest
			item.virtAL = e.VirtAL
			item.virtLSQ = e.VirtLSQ
			item.packetID = pkt.ID
			t.fetched++
			m.stats.Fetched[t.id] = t.fetched
			n++
			m.recycleEntry(e)
		case s.IsNOP:
			item := m.pushFetch(t, -1, isa.Inst{Op: isa.OpNop}, i)
			item.isNOP = true
			item.nopClass = s.NopClass
			item.packetID = pkt.ID
			// NOPs carry no rename state.
			item.leadPSrc1, item.leadPSrc2, item.leadPDest = rename.None, rename.None, rename.None
			t.fetchedNOPs++
			n++
		}
	}
	// Every slot's contents are now value-copied into the fetch queue; the
	// packet's slot array goes back to the shuffler.
	m.shuffler.RecycleSlots(pkt.Slots)
	return n
}
