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

// initWakeup sizes the waiter lists and the two calendar rings, wakeup and
// completion, all empty, reusing st's when they have the sizes. A ring must span strictly more cycles than the largest gap
// between an insertion cycle and the target cycle; that gap is bounded by the
// worst-case execution latency (a ready cycle is always some producer's
// DoneCycle, set at most one full latency after the current cycle). Buckets
// are drained every cycle, so a ring larger than the horizon means a bucket
// can never hold entries for two different cycles.
func (m *Machine) initWakeup(st *Machine) {
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
	m.cal = emptyLists(st.cal, int(size), bucketCap)
	m.doneCal = emptyLists(st.doneCal, int(size), bucketCap)
	m.regWaiters = emptyLists(st.regWaiters, m.cfg.PhysRegs, waiterCap)
}

// emptyLists returns n empty lists: lists itself, each truncated, when it
// has n, else lists carved fresh.
func emptyLists(lists [][]*UOp, n, minCap int) [][]*UOp {
	if len(lists) != n {
		return carveLists(n, minCap, nil)
	}
	for i := range lists {
		lists[i] = lists[i][:0]
	}
	return lists
}

// Initial capacities of a calendar bucket (buckets rarely hold more than two
// issue widths of uops) and of a register's waiter list.
const (
	bucketCap = 8
	waiterCap = 4
)

// carveLists returns n empty lists carved from one fresh backing array,
// list i with room for max(room(i), minCap) uops (room nil: 0). A list that
// outgrows its share reallocates individually, and a drained list is
// reused via l[:0].
func carveLists(n, minCap int, room func(i int) int) [][]*UOp {
	size := func(i int) int {
		if room == nil {
			return minCap
		}
		return max(room(i), minCap)
	}
	total := 0
	for i := 0; i < n; i++ {
		total += size(i)
	}
	backing := make([]*UOp, total)
	out := make([][]*UOp, n)
	for i := range out {
		k := size(i)
		out[i] = backing[:0:k]
		backing = backing[k:]
	}
	return out
}

// listsLen returns the total length of lists.
func listsLen(lists [][]*UOp) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// frozenLists holds a checkpoint's wakeup and calendar lists (doneCal, cal
// and regWaiters, in that order) in one backing array: list i is
// uops[ends[i-1]:ends[i]], from 0 for the first. A checkpoint is never run,
// so a list needs no room to grow, and an offset is a sixth of a slice
// header.
type frozenLists struct {
	uops []*UOp
	ends []uint32
}

// freeze makes f a copy of groups of lists, each uop mapped through cu,
// reusing f's storage.
func (f *frozenLists) freeze(cu func(*UOp) *UOp, groups ...[][]*UOp) {
	n, total := 0, 0
	for _, g := range groups {
		n += len(g)
		total += listsLen(g)
	}
	f.uops, f.ends = resize(f.uops, total)[:0], resize(f.ends, n)[:0]
	for _, g := range groups {
		for _, l := range g {
			for _, u := range l {
				f.uops = append(f.uops, cu(u))
			}
			f.ends = append(f.ends, uint32(len(f.uops)))
		}
	}
}

// list returns list i.
func (f *frozenLists) list(i int) []*UOp { return f.uops[f.start(i):f.ends[i]] }

// start returns the offset of list i in uops: the total length of the
// lists before it.
func (f *frozenLists) start(i int) int {
	if i == 0 {
		return 0
	}
	return int(f.ends[i-1])
}

// thaw copies the n lists from first, each uop mapped through cu, into
// dst's lists when dst has n (a list that outgrows its storage reallocates
// alone), else into lists carved fresh with room for their uops and at
// least minCap.
func (f *frozenLists) thaw(dst [][]*UOp, first, n, minCap int, cu func(*UOp) *UOp) [][]*UOp {
	if len(dst) != n {
		dst = carveLists(n, minCap, func(i int) int { return len(f.list(first + i)) })
	}
	for i := range dst {
		d := dst[i][:0]
		for _, u := range f.list(first + i) {
			d = append(d, cu(u))
		}
		dst[i] = d
	}
	return dst
}

// equal reports whether f holds groups of lists equal by value, in order.
func (f *frozenLists) equal(groups ...[][]*UOp) bool {
	i := 0
	for _, g := range groups {
		for _, l := range g {
			if i == len(f.ends) || !uopsEqual(l, f.list(i)) {
				return false
			}
			i++
		}
	}
	return i == len(f.ends)
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

// reset empties the table, keeping its storage.
func (t *pendTable) reset() {
	t.ids, t.counts = t.ids[:0], t.counts[:0]
}

// copyFrom makes t a deep copy of src preserving entry order (swap-remove
// order is part of deterministic machine state), reusing t's storage.
func (t *pendTable) copyFrom(src *pendTable) {
	t.ids = append(t.ids[:0], src.ids...)
	t.counts = append(t.counts[:0], src.counts...)
}

// equal compares two tables entry by entry, in order (nil-safe).
func (t *pendTable) equal(o *pendTable) bool {
	if t == nil || o == nil {
		return t == o
	}
	return slices.Equal(t.ids, o.ids) && slices.Equal(t.counts, o.counts)
}
