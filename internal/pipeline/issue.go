package pipeline

import (
	"math/bits"

	"blackjack/internal/core"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/rename"
)

// issueStage wakes and selects up to IssueWidth ready instructions from the
// unified issue queue, oldest (dispatch order) first, and maps each to the
// lowest free backend way of its class — the deterministic policies
// safe-shuffle plans against (Section 4.2.2). Issue-cycle classification for
// Figures 5 and 6 happens here.
func (m *Machine) issueStage() {
	var (
		selected      int
		leadIssued    int
		trailIssued   int
		trailViolated bool // a trailing instruction lost backend diversity
		dtqReserved   int
		gangID        uint64 // PacketID of the trailing packet issuing this cycle
		gangActive    bool
	)
	usesDTQ := m.mode.UsesDTQ()

	m.drainWakeups()
	for _, slot := range m.readySlots() {
		if selected >= m.cfg.IssueWidth {
			break
		}
		u := m.iq[slot]
		// Trailing packets wake as a gang: a member (or typed NOP, which has
		// no operands of its own) becomes eligible only when every member of
		// its packet still in the queue is ready. Without this, NOPs and
		// early-ready members would issue ahead, splitting the packet and
		// undoing safe-shuffle's backend way plan. (Way or width shortage
		// can still split a ready packet; that is the residual
		// trailing-trailing interference of Section 4.3.2.)
		if usesDTQ && u.Thread == trailThread {
			if gangActive && u.PacketID != gangID {
				continue // at most one trailing packet issues per cycle
			}
			if m.packetPending.pending(u.PacketID) {
				continue
			}
		}
		// Leading instructions in BlackJack modes need a DTQ slot
		// (Section 4.2.1: entries are allocated for all issued leading
		// instructions in issue order).
		if usesDTQ && u.Thread == leadThread {
			if m.dtq.Free()-dtqReserved < 1 {
				continue
			}
		}
		// Loads in cache-accessing threads wait until every older store in
		// the LSQ has a known address, and until any older same-address
		// store can actually forward its data.
		var fwd forwarding
		if u.Inst.IsLoad() && m.accessesCache(u) {
			var ready bool
			if ready, fwd = m.loadReady(u); !ready {
				continue
			}
		}
		way, ok := m.freeWay(u.Class)
		if !ok {
			continue
		}
		m.issueUOp(u, way, fwd)
		selected++
		if usesDTQ && u.Thread == leadThread {
			dtqReserved++
		}
		if u.Thread == leadThread {
			leadIssued++
		} else {
			trailIssued++
			if !u.IsNOP && u.PairValid && !u.BeDiverse {
				trailViolated = true
			}
			if usesDTQ {
				gangActive = true
				gangID = u.PacketID
			}
		}
	}

	// Issue-cycle classification.
	if leadIssued+trailIssued > 0 {
		m.stats.IssueCycles++
		if leadIssued == 0 || trailIssued == 0 {
			m.stats.SingleContextIssue++
		}
		if trailViolated {
			if leadIssued > 0 {
				m.stats.LTInterference++
			} else {
				m.stats.TTInterference++
			}
		}
	}
}

// readySlots returns the operand-ready payload slots oldest (lowest GSeq)
// first: the candidates the select loop above visits, in its order. Issuing
// a candidate never readies another in the same cycle (every latency is at
// least one cycle), so the list stays exact through the loop. It lives in
// machine scratch until the next call.
func (m *Machine) readySlots() []int {
	s := m.selScratch[:0]
	for w, word := range m.readyMask {
		for ; word != 0; word &= word - 1 {
			slot := w<<6 | bits.TrailingZeros64(word)
			g := m.slotGSeq[slot]
			s = append(s, slot)
			i := len(s) - 1
			for ; i > 0 && m.slotGSeq[s[i-1]] > g; i-- {
				s[i] = s[i-1]
			}
			s[i] = slot
		}
	}
	m.selScratch = s
	return s
}

// Operand readiness is tracked event-driven (wakeup.go): the ready bit of a
// uop's payload slot is set the cycle both sources are available, so select
// walks ready bits instead of rescanning ready cycles. Stores still issue
// exactly once, with address AND data ready: BlackJack's correctness rests on
// the leading issue order being a valid dependence order (the DTQ is consumed
// in that order by the trailing thread's double rename), so a store must not
// enter the order before its data producer.

// loadReady reports whether a cache-side load may issue, and if so its
// forwarding verdict. The LSQ computes store addresses early — from a
// store's base register, known from its ready cycle on, before the store
// itself issues (a standard early-AGU disambiguation port; see
// resolveStore) — so a store waiting on slow *data* does not block younger
// independent loads:
//
//   - an older store with an unknowable address (base register not yet
//     produced) blocks the load;
//   - the youngest older store whose (early) address matches must have issued
//     (data available) so it can forward;
//   - non-matching stores are bypassed.
//
// One scan of the LSQ's address arrays finds the first older store that is
// not bypassed; only that store's uop is read.
func (m *Machine) loadReady(u *UOp) (bool, forwarding) {
	t := m.threads[u.Thread]
	f := forwarding{addr: m.earlyAddr(u), ok: true}
	if v, found := t.lsq.blockingStore(u.VirtLSQ, f.addr, m.cycle); found {
		if f.src = t.lsq.at(v); !f.src.Issued {
			return false, forwarding{} // address unknowable, or data not yet in hand
		}
	}
	return true, f
}

// forwarding is loadReady's verdict on a load it lets issue: the load's
// address before any fault and the store it forwards from (nil: none in the
// LSQ). ok is false for no verdict.
type forwarding struct {
	addr uint64
	src  *UOp
	ok   bool
}

// earlyAddr returns the address a memory uop computes from its base
// register's value, fault-free.
func (m *Machine) earlyAddr(u *UOp) uint64 {
	var v1 uint64
	if u.PSrc1 != rename.None {
		v1 = m.rf.Value(u.PSrc1)
	}
	return m.clamp(isa.Eval(u.Inst, v1, 0).Addr)
}

// resolveStore records in the LSQ the early address of a cache-side store
// whose base register has its value (produced, or issued and due),
// knowable from the base's ready cycle on. The store's issue replaces it.
func (m *Machine) resolveStore(u *UOp) {
	at := int64(0)
	if u.PSrc1 != rename.None {
		at = m.rf.ReadyAt(u.PSrc1)
	}
	m.threads[u.Thread].lsq.resolveStore(u.VirtLSQ, m.earlyAddr(u), at)
}

// earlyStore reports whether u is a store the LSQ resolves early: a store
// in a cache-accessing thread.
func (m *Machine) earlyStore(u *UOp) bool {
	return u.Inst.IsStore() && m.accessesCache(u)
}

// accessesCache reports whether the uop's loads go to the cache hierarchy
// (leading/single threads) rather than the LVQ (trailing threads).
func (m *Machine) accessesCache(u *UOp) bool {
	return u.Thread == leadThread
}

// freeWay returns the lowest free backend way of the class.
func (m *Machine) freeWay(class isa.UnitClass) (int, bool) {
	for w, freeAt := range m.unitFreeAt[class] {
		if freeAt <= m.cycle {
			return w, true
		}
	}
	return 0, false
}

// issueUOp executes the uop's computation and schedules completion. Values
// are computed at issue (the simulator's register file always holds produced
// values; availability timing is tracked separately by ready cycles). fwd is
// loadReady's verdict when u is a cache-side load.
func (m *Machine) issueUOp(u *UOp, way int, fwd forwarding) {
	u.Issued = true
	m.leaveIQ(u)
	m.clearSlotReady(u.IQSlot)
	u.BackWay = way
	m.trace(TraceIssue, u)
	m.stats.Issued[u.Thread]++

	// Diversity outcome for trailing pairs.
	if u.PairValid {
		u.FeDiverse = u.FrontWay != u.LeadFrontWay
		u.BeDiverse = u.Class == u.LeadClass && u.BackWay != u.LeadBackWay
	}

	lat, busy := m.cfg.latency(u.Inst)
	m.unitFreeAt[u.Class][way] = m.cycle + int64(busy)

	// Read the instruction payload (a shared-payload-RAM fault corrupts it
	// identically for both threads) and the operand values.
	inst := u.Inst
	if m.watches(fault.HookPayload, u.Thread, u.IQSlot) {
		inst = m.inj.CorruptPayload(u.IQSlot, u.Thread, inst)
	}
	var v1, v2 uint64
	if u.PSrc1 != rename.None {
		v1 = m.rf.Value(u.PSrc1)
		if m.watches(fault.HookRegRead, 0, int(u.PSrc1)) {
			v1 = m.inj.CorruptRegRead(u.PSrc1, v1)
		}
	}
	if u.PSrc2 != rename.None {
		v2 = m.rf.Value(u.PSrc2)
		if m.watches(fault.HookRegRead, 0, int(u.PSrc2)) {
			v2 = m.inj.CorruptRegRead(u.PSrc2, v2)
		}
	}
	out := isa.Eval(inst, v1, v2)

	switch {
	case u.IsNOP:
		u.DoneCycle = m.cycle + 1
	case inst.IsBranch():
		u.Taken = out.Taken
		if m.watches(fault.HookBranch, int(u.Class), way) {
			u.Taken = m.inj.CorruptBranch(u.Class, way, u.Taken)
		}
		u.Target = out.Target
		if m.watches(fault.HookBranchTarget, int(u.Class), way) {
			u.Target = m.inj.CorruptBranchTarget(u.Class, way, u.Target)
		}
		u.DoneCycle = m.cycle + int64(lat)
	case inst.IsLoad():
		m.issueLoad(u, inst, out.Addr, fwd)
	case inst.IsStore():
		addr := m.clamp(out.Addr)
		if m.watches(fault.HookAddr, int(u.Class), way) {
			addr = m.clamp(m.inj.CorruptAddr(u.Class, way, addr))
		}
		u.Addr = addr
		val := out.StoreValue
		if m.watches(fault.HookResult, int(u.Class), way) {
			val = m.inj.CorruptResult(u.Class, way, inst, val)
		}
		u.StoreVal = val
		u.DoneCycle = m.cycle + int64(lat)
	default:
		v := out.Value
		if m.watches(fault.HookResult, int(u.Class), way) {
			v = m.inj.CorruptResult(u.Class, way, inst, v)
		}
		u.Result = v
		u.DoneCycle = m.cycle + int64(lat)
		if u.PDest != rename.None {
			m.rf.SetValue(u.PDest, v)
			m.rf.SetReadyAt(u.PDest, u.DoneCycle)
			m.wakeRegister(u.PDest)
		}
	}

	// A store's issue address replaces its early address in the LSQ (0 when
	// a payload fault issued it as a non-memory instruction).
	if m.earlyStore(u) {
		m.threads[u.Thread].lsq.resolveStore(u.VirtLSQ, u.Addr, 0)
	}

	// Leading issue in BlackJack modes allocates the DTQ entry, in issue
	// order; co-issued instructions share a packet (keyed by issue cycle).
	if m.mode.UsesDTQ() && u.Thread == leadThread {
		if !m.dtq.Allocate(m.newEntry(u)) {
			m.internalError("DTQ overflow despite reservation")
		}
	}

	m.scheduleDone(u)
}

// newEntry takes a DTQ record for the issuing leading uop u and fills it in
// place: the issue-time fields, with co-issued instructions sharing a packet
// keyed by the issue cycle. The program-order fields stay zero until u
// commits.
func (m *Machine) newEntry(u *UOp) *core.Entry {
	e := m.allocEntry()
	*e = core.Entry{}
	e.Seq = u.Seq
	e.PacketID = uint64(m.cycle)
	e.PC = u.PC
	e.RawInst = u.Raw
	e.FrontWay, e.BackWay, e.Class = u.FrontWay, u.BackWay, u.Class
	e.PSrc1, e.PSrc2, e.PDest = u.PSrc1, u.PSrc2, u.PDest
	return e
}

// issueLoad performs the memory access (cache for the leading/single thread,
// LVQ for trailing threads) and schedules the result.
func (m *Machine) issueLoad(u *UOp, inst isa.Inst, rawAddr uint64, fwd forwarding) {
	addr := m.clamp(rawAddr)
	if m.watches(fault.HookAddr, int(u.Class), u.BackWay) {
		addr = m.clamp(m.inj.CorruptAddr(u.Class, u.BackWay, addr))
	}
	u.Addr = addr

	var (
		val uint64
		lat int
	)
	if m.accessesCache(u) {
		val = m.loadValue(m.threads[u.Thread], u, fwd)
		var ok bool
		lat, ok = m.dcache.Access(addr, m.cycle)
		if !ok {
			// Unit arbitration bounds accesses to the port count; rejection
			// would be a wiring bug.
			m.internalError("cache port rejected load despite unit arbitration")
		}
	} else {
		// Trailing loads read the LVQ: never a cache miss, and the address
		// computed from the trailing thread's own operands is checked
		// against the leading address (SRT's LVQ address check).
		val, _ = m.lvq.ValidateAddr(m.sink, m.cycle, u.LoadSeq, u.PC, addr)
		lat = m.cfg.LVQLat
	}
	if m.watches(fault.HookResult, int(u.Class), u.BackWay) {
		val = m.inj.CorruptResult(u.Class, u.BackWay, inst, val)
	}
	u.Result = val
	u.DoneCycle = m.cycle + int64(lat)
	if u.PDest != rename.None {
		m.rf.SetValue(u.PDest, val)
		m.rf.SetReadyAt(u.PDest, u.DoneCycle)
		m.wakeRegister(u.PDest)
	}
}

// loadValue resolves a cache-side load's data: youngest older matching
// issued store in the thread's LSQ, then the store buffer (committed but
// unreleased leading stores), then memory. loadReady's verdict fwd names
// that store when the load issues at the address it was judged at; a load
// whose address a fault changed walks the LSQ.
func (m *Machine) loadValue(t *thread, u *UOp, fwd forwarding) uint64 {
	if fwd.ok && fwd.addr == u.Addr {
		if fwd.src != nil {
			return fwd.src.StoreVal
		}
	} else {
		for v, ok := t.lsq.prevStore(u.VirtLSQ); ok; v, ok = t.lsq.prevStore(v) {
			if s := t.lsq.at(v); s.Issued && s.Addr == u.Addr {
				return s.StoreVal
			}
		}
	}
	if m.sb != nil && t.id == leadThread {
		if val, ok := m.sb.MatchYoungest(u.Addr); ok {
			return val
		}
	}
	return m.readMem(u.Addr)
}
