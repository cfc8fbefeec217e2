package pipeline

import (
	"math/bits"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// dispatchStage decodes, renames and dispatches up to RenameWidth
// instructions per cycle from the threads' fetch buffers into the unified
// issue queue. Threads share the bandwidth; the starting thread alternates
// each cycle. Each thread dispatches in order and stops at its first stalled
// instruction.
func (m *Machine) dispatchStage() {
	budget := m.cfg.RenameWidth
	order := [2]int{leadThread, trailThread}
	n := 1
	if m.mode.Redundant() {
		n = 2
		if m.cycle%2 != 0 {
			order = [2]int{trailThread, leadThread}
		}
	}
	for _, id := range order[:n] {
		t := m.threads[id]
		// The BlackJack trailing frontend handles one shuffled packet per
		// cycle as a unit (mirroring the one-packet-per-cycle fetch of
		// Section 4.3.1): a packet is never split across dispatch cycles,
		// because a split would stagger its members' issue and undo
		// safe-shuffle's backend way plan.
		if m.mode.UsesDTQ() && id == trailThread {
			n := m.headPacketSize(t)
			if n == 0 || budget < n || m.cfg.IssueQueue-m.iqLen() < n {
				continue
			}
			for i := 0; i < n; i++ {
				if !m.dispatchOne(t, t.fetchQ.PeekRef()) {
					break
				}
				t.fetchQ.Drop()
				budget--
			}
			continue
		}
		for budget > 0 {
			item := t.fetchQ.PeekRef()
			if item == nil {
				break
			}
			if !m.dispatchOne(t, item) {
				break
			}
			t.fetchQ.Drop()
			budget--
		}
	}
}

// headPacketSize counts the contiguous fetch-queue items belonging to the
// packet at the head of the trailing thread's fetch buffer.
func (m *Machine) headPacketSize(t *thread) int {
	if t.fetchQ.Empty() {
		return 0
	}
	id := t.fetchQ.PeekRef().packetID
	n := 0
	for i := 0; i < t.fetchQ.Len(); i++ {
		if t.fetchQ.AtRef(i).packetID != id {
			break
		}
		n++
	}
	return n
}

// iqLen returns the number of uops in the issue queue.
func (m *Machine) iqLen() int {
	free := 0
	for _, w := range m.iqFree {
		free += bits.OnesCount64(w)
	}
	return m.cfg.IssueQueue - free
}

// freeSlot reports whether the issue queue has a free entry and returns the
// lowest free payload slot to use.
func (m *Machine) freeSlot() (slot int, ok bool) {
	for i, w := range m.iqFree {
		if w != 0 {
			return i<<6 | bits.TrailingZeros64(w), true
		}
	}
	return 0, false
}

// dispatchOne attempts to rename and dispatch one fetch item, returning false
// when a structural hazard stalls the thread this cycle. The item is read in
// place; the caller pops it after a successful dispatch.
func (m *Machine) dispatchOne(t *thread, item *fetchItem) bool {
	if m.mode.UsesDTQ() && t.id == trailThread {
		return m.dispatchTrailingBJ(t, item)
	}
	return m.dispatchInOrder(t, item)
}

// dispatchInOrder handles the leading, single and SRT-trailing threads:
// conventional in-order rename against the thread's architectural map.
func (m *Machine) dispatchInOrder(t *thread, item *fetchItem) bool {
	// Deadlock avoidance (BlackJack modes): a leading instruction may only
	// enter the issue queue if the DTQ can absorb every leading instruction
	// already there plus this one. Otherwise DTQ-blocked leading
	// instructions could fill the unified IQ, blocking trailing dispatch —
	// and the trailing side is what ultimately drains the DTQ (shuffle →
	// packet queue → trailing fetch → dispatch).
	if m.mode.UsesDTQ() && t.id == leadThread && m.dtq.Free() <= m.leadInIQ {
		return false
	}
	// Leading memory operations reserve their commit-side queue slot at
	// dispatch (see the lvqInFlight/sbInFlight comment in Machine): a
	// leading load/store never enters the window unless the LVQ / store
	// buffer is guaranteed to absorb it at commit.
	if m.mode.Redundant() && t.id == leadThread {
		if item.raw.IsLoad() && m.lvq.Free()-m.lvqInFlight < 1 {
			return false
		}
		if item.raw.IsStore() && m.sb.Free()-m.sbInFlight < 1 {
			return false
		}
	}
	// Decode happens on the item's frontend way; a hard fault there corrupts
	// the decoded form for any thread using that way.
	inst := item.raw
	if m.watches(fault.HookDecode, 0, item.way) {
		inst = m.inj.CorruptDecode(item.way, inst)
	}

	slot, ok := m.freeSlot()
	if !ok {
		return false
	}
	if t.rob.full() {
		return false
	}
	if inst.IsMem() && t.lsq.full() {
		return false
	}
	if inst.WritesRd() && m.freeList.Len() == 0 {
		return false
	}

	u := m.newUOp(t, item, inst, inst.Class())
	u.PredTaken = item.predTaken
	u.PredLookup = item.predLookup
	u.Halt = inst.Op == isa.OpHalt || item.halt
	if inst.ReadsRs1() {
		u.PSrc1 = t.rmap.Get(int(inst.Rs1))
	}
	if inst.ReadsRs2() {
		u.PSrc2 = t.rmap.Get(int(inst.Rs2))
	}
	if inst.WritesRd() {
		p, _ := m.freeList.Alloc()
		u.PDest = p
		u.POld = t.rmap.Set(int(inst.Rd), p)
		m.rf.MarkPending(p)
	}
	switch {
	case inst.IsBranch():
		u.BranchSeq = t.nextBranchSeq
		t.nextBranchSeq++
	case inst.IsLoad():
		u.LoadSeq = t.nextLoadSeq
		t.nextLoadSeq++
	case inst.IsStore():
		u.StoreSeq = t.nextStoreSeq
		t.nextStoreSeq++
	}
	// The SRT trailing thread pairs with leading queues via the ordinals
	// recorded in the stream (identical to its own counters on the fault-free
	// path, but the stream is authoritative).
	if item.pairValid {
		u.PairValid = true
		u.LeadFrontWay = item.leadFrontWay
		u.LeadBackWay = item.leadBackWay
		u.LeadClass = item.leadClass
		if inst.IsLoad() {
			u.LoadSeq = item.loadSeq
		}
		if inst.IsStore() {
			u.StoreSeq = item.storeSeq
		}
	}
	u.VirtAL = t.rob.pushTail(u)
	if inst.IsMem() {
		u.VirtLSQ = t.lsq.pushTail(u)
	}
	if m.mode.Redundant() && t.id == leadThread {
		if inst.IsLoad() {
			m.lvqInFlight++
		}
		if inst.IsStore() {
			m.sbInFlight++
		}
	}
	m.traceFetchDispatch(item, u)
	m.enqueueIQ(u, slot)
	return true
}

// traceFetchDispatch emits the fetch (back-dated to the fetch cycle) and
// dispatch events for a uop entering the issue queue.
func (m *Machine) traceFetchDispatch(item *fetchItem, u *UOp) {
	if m.tracer == nil && m.otr == nil {
		return
	}
	m.traceAt(item.fetchCycle, TraceFetch, u)
	m.traceAt(m.cycle, TraceDispatch, u)
}

// dispatchTrailingBJ handles the BlackJack trailing thread: double rename
// (leading physical -> trailing physical) and virtual-to-physical active
// list / LSQ index translation; NOPs occupy only an issue-queue slot.
func (m *Machine) dispatchTrailingBJ(t *thread, item *fetchItem) bool {
	slot, ok := m.freeSlot()
	if !ok {
		return false
	}
	if item.isNOP {
		// NOPs execute on a backend way of their marked class but carry no
		// operands or destination.
		u := m.newUOp(t, item, item.raw, item.nopClass)
		u.IsNOP = true
		m.traceFetchDispatch(item, u)
		m.enqueueIQ(u, slot)
		m.stats.NOPsExecuted++
		return true
	}

	// Trailing decode runs on the slot's frontend way — by construction a
	// different way than the leading copy used.
	inst := item.raw
	if m.watches(fault.HookDecode, 0, item.way) {
		inst = m.inj.CorruptDecode(item.way, inst)
	}
	if !t.rob.canPlace(item.virtAL) {
		return false // window stall: virtual index too far ahead
	}
	if inst.IsMem() && !t.lsq.canPlace(item.virtLSQ) {
		return false
	}
	if inst.WritesRd() && m.freeList.Len() == 0 {
		return false
	}

	u := m.newUOp(t, item, inst, inst.Class())
	u.PairValid = true
	u.LeadFrontWay = item.leadFrontWay
	u.LeadBackWay = item.leadBackWay
	u.LeadClass = item.leadClass
	u.LeadPSrc1, u.LeadPSrc2, u.LeadPDest = item.leadPSrc1, item.leadPSrc2, item.leadPDest
	u.LoadSeq = item.loadSeq
	u.StoreSeq = item.storeSeq
	u.VirtAL = item.virtAL
	u.VirtLSQ = item.virtLSQ
	u.Halt = item.halt
	// Double rename: translate the leading physical sources. A failed lookup
	// can only arise from fault corruption upstream; use the zero register's
	// value and let the commit checks flag the damage.
	if inst.ReadsRs1() {
		u.PSrc1 = m.doubleLookup(item.leadPSrc1)
	}
	if inst.ReadsRs2() {
		u.PSrc2 = m.doubleLookup(item.leadPSrc2)
	}
	if inst.WritesRd() {
		p, _ := m.freeList.Alloc()
		u.PDest = p
		m.rf.MarkPending(p)
		if item.leadPDest != rename.None {
			m.dr.Bind(item.leadPDest, p)
		}
	}
	t.rob.place(item.virtAL, u)
	if inst.IsMem() {
		t.lsq.place(item.virtLSQ, u)
	}
	m.traceFetchDispatch(item, u)
	m.enqueueIQ(u, slot)
	return true
}

// newUOp takes a record for thread t's next dispatched instruction, decoded
// as inst of the given unit class, and fills the fields every dispatch path
// takes from its fetch item: sequence numbers, PC, raw form, frontend way
// and packet, with no backend way and no physical registers yet. The caller
// fills in the rest. The record is zeroed in place first, so nothing of a
// recycled record survives and no temporary is copied into it.
func (m *Machine) newUOp(t *thread, item *fetchItem, inst isa.Inst, class isa.UnitClass) *UOp {
	t.nextSeq++
	u := m.allocUOp()
	*u = UOp{}
	u.Seq = t.nextSeq
	u.Thread = t.id
	u.PC = item.pc
	u.Raw = item.raw
	u.Inst = inst
	u.Class = class
	u.FrontWay = item.way
	u.BackWay = -1
	u.PSrc1, u.PSrc2 = rename.None, rename.None
	u.PDest, u.POld = rename.None, rename.None
	u.PacketID = item.packetID
	return u
}

func (m *Machine) doubleLookup(leadP rename.PhysReg) rename.PhysReg {
	if leadP == rename.None {
		return rename.PhysReg(isa.NumArchRegs) // trailing copy of r0 (zero)
	}
	if p, ok := m.dr.Lookup(leadP); ok {
		return p
	}
	return rename.PhysReg(isa.NumArchRegs)
}

// enqueueIQ inserts the uop into payload slot `slot` of the unified issue
// queue, stamps its dispatch order and wires it into the wakeup machinery.
func (m *Machine) enqueueIQ(u *UOp, slot int) {
	m.gseq++
	u.GSeq = m.gseq
	u.InIQ = true
	u.IQSlot = slot
	m.iq[slot] = u
	m.slotGSeq[slot] = u.GSeq
	m.iqFree[slot>>6] &^= 1 << (uint(slot) & 63)
	if u.Thread == leadThread {
		m.leadInIQ++
	}
	m.registerWakeup(u)
}

// leaveIQ releases u's issue-queue entry and payload slot, at issue or on a
// squash.
func (m *Machine) leaveIQ(u *UOp) {
	u.InIQ = false
	m.iq[u.IQSlot] = nil
	m.slotGSeq[u.IQSlot] = 0
	m.iqFree[u.IQSlot>>6] |= 1 << (uint(u.IQSlot) & 63)
	if u.Thread == leadThread {
		m.leadInIQ--
	}
}
