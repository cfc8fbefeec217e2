package pipeline

import (
	"slices"

	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// This file implements event-driven issue-queue wakeup. The previous design
// rescanned every queued uop's source ready-cycles each cycle (O(IQ) per
// cycle, with an additional O(IQ) packetReady scan per trailing candidate).
// Instead, each uop tracks how many of its sources still await a producer
// (WaitN); writeback walks the per-physical-register waiter list and moves
// uops whose last operand was produced into a calendar keyed by their ready
// cycle; issueStage drains exactly the calendar bucket of the current cycle
// into a per-slot ready bitmask. Wakeup work is O(uops woken), and the gang
// condition for trailing packets is a counter lookup instead of a scan.

// initWakeup sizes the waiter lists and the two calendar rings: wakeup and
// completion. A ring must span strictly more cycles than the largest gap
// between an insertion cycle and the target cycle; that gap is bounded by the
// worst-case execution latency (a ready cycle is always some producer's
// DoneCycle, set at most one full latency after the current cycle). Buckets
// are drained every cycle, so a ring larger than the horizon means a bucket
// can never hold entries for two different cycles.
func (m *Machine) initWakeup() {
	maxLat := m.cfg.FDivLat
	if m.cfg.LVQLat > maxLat {
		maxLat = m.cfg.LVQLat
	}
	for cl := isa.UnitClass(0); cl < isa.NumUnitClasses; cl++ {
		if m.cfg.ClassLat[cl] > maxLat {
			maxLat = m.cfg.ClassLat[cl]
		}
	}
	if memLat := m.cfg.Cache.L1Lat + m.cfg.Cache.L2Lat + m.cfg.Cache.MemLat; memLat > maxLat {
		maxLat = memLat
	}
	size := int64(1)
	for size < int64(maxLat)+2 {
		size <<= 1
	}
	m.calMask = size - 1
	m.cal = carveLists(make([][]*UOp, size), bucketCap, nil)
	m.doneCal = carveLists(make([][]*UOp, size), bucketCap, nil)
	m.regWaiters = carveLists(make([][]*UOp, m.cfg.PhysRegs), waiterCap, nil)
}

// Initial capacities of a calendar bucket (buckets rarely hold more than two
// issue widths of uops) and of a register's waiter list.
const (
	bucketCap = 8
	waiterCap = 4
)

// carveLists copies lists, each uop mapped through cu, into one fresh
// backing array that gives every list its old capacity, and at least minCap.
// A list that outgrows its share reallocates individually, and a drained
// list is reused via l[:0].
func carveLists(lists [][]*UOp, minCap int, cu func(*UOp) *UOp) [][]*UOp {
	total := 0
	for _, l := range lists {
		total += max(cap(l), minCap)
	}
	backing := make([]*UOp, total)
	out := make([][]*UOp, len(lists))
	for i, l := range lists {
		n := max(cap(l), minCap)
		out[i] = backing[:len(l):n]
		backing = backing[n:]
		for j, u := range l {
			out[i][j] = cu(u)
		}
	}
	return out
}

func (m *Machine) setSlotReady(slot int)   { m.readyMask[slot>>6] |= 1 << (uint(slot) & 63) }
func (m *Machine) clearSlotReady(slot int) { m.readyMask[slot>>6] &^= 1 << (uint(slot) & 63) }

// registerWakeup wires a freshly dispatched uop into the wakeup machinery.
// Called from enqueueIQ; dispatch runs after issue within a Tick, so "ready
// now" here matches the cycle the old rescan would first have seen the uop
// ready.
func (m *Machine) registerWakeup(u *UOp) {
	u.WaitN = 0
	u.InCal = false
	rc := int64(0)
	for _, p := range [2]rename.PhysReg{u.PSrc1, u.PSrc2} {
		if p == rename.None {
			continue
		}
		if at := m.rf.ReadyAt(p); at == rename.FarFuture {
			u.WaitN++
			m.regWaiters[p] = append(m.regWaiters[p], u)
		} else if at > rc {
			rc = at
		}
	}
	if u.WaitN > 0 {
		u.ReadyCycle = rename.FarFuture
		m.notePacketNotReady(u)
		return
	}
	u.ReadyCycle = rc
	if rc <= m.cycle {
		m.setSlotReady(u.IQSlot)
		return
	}
	m.notePacketNotReady(u)
	m.calInsert(rc, u)
}

// wakeRegister drains the waiter list of a physical register whose producer
// just issued with the given availability cycle. Waiters whose last pending
// operand this was move to the calendar (readyAt is strictly in the future:
// every latency is at least one cycle).
func (m *Machine) wakeRegister(p rename.PhysReg) {
	ws := m.regWaiters[p]
	if len(ws) == 0 {
		return
	}
	for _, u := range ws {
		u.WaitN--
		if u.WaitN > 0 {
			continue
		}
		rc := int64(0)
		if u.PSrc1 != rename.None {
			if at := m.rf.ReadyAt(u.PSrc1); at > rc {
				rc = at
			}
		}
		if u.PSrc2 != rename.None {
			if at := m.rf.ReadyAt(u.PSrc2); at > rc {
				rc = at
			}
		}
		u.ReadyCycle = rc
		m.calInsert(rc, u)
	}
	m.regWaiters[p] = ws[:0]
}

// calInsert queues u to become issue-eligible at the given cycle.
func (m *Machine) calInsert(cycle int64, u *UOp) {
	if cycle-m.cycle > m.calMask {
		m.internalError("wakeup calendar horizon exceeded")
	}
	u.InCal = true
	idx := cycle & m.calMask
	m.cal[idx] = append(m.cal[idx], u)
}

// drainWakeups flips the ready bit of every uop whose operands become
// available this cycle. Runs at the top of issueStage; calendar entries are
// always inserted for strictly later cycles, so the current bucket is
// complete by then.
func (m *Machine) drainWakeups() {
	idx := m.cycle & m.calMask
	lst := m.cal[idx]
	if len(lst) == 0 {
		return
	}
	for _, u := range lst {
		u.InCal = false
		m.setSlotReady(u.IQSlot)
		m.notePacketReady(u)
	}
	m.cal[idx] = lst[:0]
}

// notePacketNotReady counts a trailing DTQ-mode packet member entering the
// queue not yet operand-ready.
func (m *Machine) notePacketNotReady(u *UOp) {
	if m.packetPending == nil || u.Thread != trailThread {
		return
	}
	m.packetPending.inc(u.PacketID)
}

// notePacketReady reverses notePacketNotReady when the member becomes ready
// (or leaves the queue on a squash).
func (m *Machine) notePacketReady(u *UOp) {
	if m.packetPending == nil || u.Thread != trailThread {
		return
	}
	m.packetPending.dec(u.PacketID)
}

// unwireWakeup removes a squashed, still-queued uop from every wakeup
// structure. Squash recycles un-issued uops immediately, so leaving a stale
// pointer in a waiter list or calendar bucket would corrupt a later run.
func (m *Machine) unwireWakeup(u *UOp) {
	switch {
	case u.WaitN > 0:
		// Still watching at least one pending source: remove every occurrence
		// from the watched registers' waiter lists. A source whose ready
		// cycle is concrete was never watched (or its list was drained when
		// the producer issued).
		for _, p := range [2]rename.PhysReg{u.PSrc1, u.PSrc2} {
			if p == rename.None || m.rf.ReadyAt(p) != rename.FarFuture {
				continue
			}
			ws := m.regWaiters[p]
			w := ws[:0]
			for _, x := range ws {
				if x != u {
					w = append(w, x)
				}
			}
			m.regWaiters[p] = w
		}
		u.WaitN = 0
		m.notePacketReady(u)
	case u.InCal:
		idx := u.ReadyCycle & m.calMask
		lst := m.cal[idx]
		w := lst[:0]
		for _, x := range lst {
			if x != u {
				w = append(w, x)
			}
		}
		m.cal[idx] = w
		u.InCal = false
		m.notePacketReady(u)
	default:
		// Already operand-ready: just clear the slot's bit (the packet
		// counter was decremented when it became ready, or never incremented).
		m.clearSlotReady(u.IQSlot)
	}
}

// pendTable counts not-yet-ready members per in-flight trailing packet. At
// most IssueQueue distinct packets have queued members at once, so a linear
// scan over a handful of hot ids beats a map on both lookup and
// allocation cost.
type pendTable struct {
	ids    []uint64
	counts []int32
}

func (t *pendTable) inc(id uint64) {
	for i, v := range t.ids {
		if v == id {
			t.counts[i]++
			return
		}
	}
	t.ids = append(t.ids, id)
	t.counts = append(t.counts, 1)
}

func (t *pendTable) dec(id uint64) {
	for i, v := range t.ids {
		if v != id {
			continue
		}
		t.counts[i]--
		if t.counts[i] == 0 {
			last := len(t.ids) - 1
			t.ids[i] = t.ids[last]
			t.counts[i] = t.counts[last]
			t.ids = t.ids[:last]
			t.counts = t.counts[:last]
		}
		return
	}
}

// pending reports whether the packet still has a not-ready queued member.
func (t *pendTable) pending(id uint64) bool {
	for _, v := range t.ids {
		if v == id {
			return true
		}
	}
	return false
}

// clone deep-copies the table preserving entry order (swap-remove order is
// part of deterministic machine state).
func (t *pendTable) clone() *pendTable {
	return &pendTable{
		ids:    append([]uint64(nil), t.ids...),
		counts: append([]int32(nil), t.counts...),
	}
}

// equal compares two tables entry by entry, in order (nil-safe).
func (t *pendTable) equal(o *pendTable) bool {
	if t == nil || o == nil {
		return t == o
	}
	return slices.Equal(t.ids, o.ids) && slices.Equal(t.counts, o.counts)
}
