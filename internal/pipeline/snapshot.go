package pipeline

import (
	"slices"

	"blackjack/internal/core"
	"blackjack/internal/queues"
)

// Checkpoint is a frozen deep copy of a Machine mid-run: every piece of
// architectural and microarchitectural state (threads, rename maps and free
// list, issue queue, active lists and LSQs, DTQ/BOQ/LVQ, store buffer,
// caches, branch predictor, memory image, wakeup state, statistics). A
// checkpoint is immutable once taken; any number of machines may be forked
// from it, concurrently — Fork only reads the checkpoint.
//
// Fault-injection campaigns use this to amortize the fault-free prefix of a
// run: snapshot the golden warmup periodically, then fork each injection from
// the latest checkpoint preceding its site's first activation. Forked copies
// are bit-identical to a cold run continued from the same cycle.
type Checkpoint struct {
	m *Machine
}

// Cycle returns the cycle the checkpoint was taken at.
func (cp *Checkpoint) Cycle() int64 { return cp.m.cycle }

// Snapshot deep-copies the machine's state into a Checkpoint. The machine is
// only read, so snapshotting mid-run (from a RunWithCheckpoints hook) is
// safe.
func (m *Machine) Snapshot() *Checkpoint {
	return &Checkpoint{m: m.clone()}
}

// Restore rewinds the machine to the checkpointed state. The receiver keeps
// its identity (closures holding the *Machine — an injector's Now clock, for
// example — remain valid).
func (m *Machine) Restore(cp *Checkpoint) {
	*m = *cp.m.clone()
}

// Fork builds a new runnable machine from the checkpoint and applies opts —
// typically WithInjector and WithSink, replacing the warmup's observers with
// the fork's own. The checkpoint is only read and stays reusable.
func Fork(cp *Checkpoint, opts ...Option) *Machine {
	f := cp.m.clone()
	for _, opt := range opts {
		opt(f)
	}
	f.initObs()
	return f
}

// clone deep-copies every live machine structure. UOps and DTQ entries are
// shared by multiple structures (a uop sits in its window, the issue queue,
// a calendar bucket and waiter lists at once), so identity is preserved
// through translation maps, and the copies come from slabs sized to the live
// population. The program is immutable and shared; free lists and scratch
// buffers start empty (recycled records are fully overwritten at
// allocation, so an empty pool only costs allocations); the tracer is
// dropped (trace state is not part of machine state).
func (m *Machine) clone() *Machine {
	c := &Machine{}
	*c = *m // scalars, config, stats; pointers fixed up below

	// Every live uop is in an active list, the issue queue (shuffle NOPs) or
	// the completion calendar (NOPs and squashed uops), and every live DTQ
	// entry in the DTQ or a trailing packet, so these counts bound the
	// copies; an unused remainder serves the copy's own later allocations.
	nu, ne := m.iqLen(), 0
	for _, t := range m.threads {
		nu += t.rob.occupancy()
	}
	for _, b := range m.doneCal {
		nu += len(b)
	}
	if m.dtq != nil {
		ne = m.dtq.Len()
		for i := 0; i < m.packets.Len(); i++ {
			ne += len(m.packets.At(i).Slots)
		}
	}
	c.uopSlab = slab[UOp]{rest: make([]UOp, nu)}
	c.entrySlab = slab[core.Entry]{rest: make([]core.Entry, ne)}
	uops := make(map[*UOp]*UOp, nu)
	cu := func(u *UOp) *UOp {
		if u == nil {
			return nil
		}
		if v, ok := uops[u]; ok {
			return v
		}
		v := c.uopSlab.alloc()
		*v = *u
		uops[u] = v
		return v
	}
	entries := make(map[*core.Entry]*core.Entry, ne)
	ce := func(e *core.Entry) *core.Entry {
		if e == nil {
			return nil
		}
		if v, ok := entries[e]; ok {
			return v
		}
		v := c.entrySlab.alloc()
		*v = *e
		entries[e] = v
		return v
	}

	c.mem = m.mem.Clone()
	c.rf = m.rf.Clone()
	c.freeList = m.freeList.Clone()

	c.threads = make([]*thread, len(m.threads))
	for i, t := range m.threads {
		c.threads[i] = t.clone(cu)
	}

	c.iq = make([]*UOp, len(m.iq))
	for i, u := range m.iq {
		c.iq[i] = cu(u)
	}
	c.slotGSeq = append([]uint64(nil), m.slotGSeq...)
	c.iqFree = append([]uint64(nil), m.iqFree...)
	for cl := range m.unitFreeAt {
		c.unitFreeAt[cl] = append([]int64(nil), m.unitFreeAt[cl]...)
	}

	c.pred = m.pred.Clone()
	c.dcache = m.dcache.Clone()
	c.boq = m.boq.Clone()
	c.lvq = m.lvq.Clone()
	c.sb = m.sb.Clone()
	c.stream = m.stream.Clone()
	c.dtq = m.dtq.Clone(ce)
	c.shuffler = m.shuffler.Clone()
	c.packets = clonePacketQueue(m.packets, ce)
	c.dr = m.dr.Clone()
	c.oc = m.oc.Clone()
	c.sink = m.sink.Clone()
	c.tracer = nil
	// Observability state is not machine state either: a fork starts with
	// whatever tracer/registry its own options install (initObs re-resolves
	// the histogram handles then).
	c.otr = nil
	c.metrics = nil
	c.hIQ, c.hDTQ, c.hBOQ, c.hLVQ = nil, nil, nil, nil
	// The run budget is per-run harness state too: a fork gets its own
	// context (or none) via WithRunContext in its option list.
	c.runCtx = nil

	// Calendars and wakeup state, in the same order, remapped.
	c.doneCal = carveLists(m.doneCal, bucketCap, cu)
	c.cal = carveLists(m.cal, bucketCap, cu)
	c.regWaiters = carveLists(m.regWaiters, waiterCap, cu)
	c.readyMask = append([]uint64(nil), m.readyMask...)
	if m.packetPending != nil {
		c.packetPending = m.packetPending.clone()
	}

	// Free lists and scratch start empty in the copy.
	c.uopFree = nil
	c.entryFree = nil
	c.selScratch = nil
	return c
}

// clone deep-copies a thread, remapping its window slots through the shared
// uop translation map.
func (t *thread) clone(cu func(*UOp) *UOp) *thread {
	n := &thread{}
	*n = *t
	n.rob = t.rob.clone(cu)
	n.lsq = t.lsq.clone(cu)
	n.rmap = t.rmap.Clone()
	// fetchItem is all-value; a shallow ring clone is a deep copy.
	n.fetchQ = t.fetchQ.Clone()
	return n
}

// clone deep-copies a window through the uop translation map.
func (w *window) clone(cu func(*UOp) *UOp) *window {
	n := &window{
		slots:  make([]*UOp, len(w.slots)),
		stores: append([]uint64(nil), w.stores...),
		head:   w.head,
		tail:   w.tail,
		count:  w.count,
	}
	for i, u := range w.slots {
		n.slots[i] = cu(u)
	}
	return n
}

// clonePacketQueue deep-copies the trailing packet queue: packets hold slot
// arrays referencing DTQ entries, remapped through the entry translation map.
func clonePacketQueue(r *queues.Ring[core.Packet], ce func(*core.Entry) *core.Entry) *queues.Ring[core.Packet] {
	if r == nil {
		return nil
	}
	c := r.Clone()
	for i := 0; i < c.Len(); i++ {
		p := c.At(i)
		slots := make([]core.Slot, len(p.Slots))
		for j, s := range p.Slots {
			s.Entry = ce(s.Entry)
			slots[j] = s
		}
		p.Slots = slots
		c.SetAt(i, p)
	}
	return c
}

// Matches reports whether the machine's state equals the checkpoint's, so
// that both, run on from here under injectors that corrupt nothing more,
// replay the same cycles, statistics, stores and detections.
//
// It compares live state only: ring contents between head and tail, memory
// words and cache tags whatever pages back them, and the uops and DTQ
// entries every structure holds, by value (GSeq is unique among live uops,
// so equal values imply equal aliasing). It skips what cannot steer the run:
// record free lists and slabs, scratch buffers, the DTQ's Seq lookup table,
// the LSQ store bitmaps (derived from the live entries) and backing arrays
// past their length. It also skips harness state, which is not machine state:
// the injector, tracers, metrics, run context, shuffle observer,
// stop-on-detect and Stop. Cheap scalars and the statistics go first, so a
// mismatch usually exits early. Matches allocates nothing and only reads cp,
// so any number of machines may compare against one checkpoint at once.
func (m *Machine) Matches(cp *Checkpoint) bool {
	o := cp.m
	if m.cycle != o.cycle || m.gseq != o.gseq || m.storeSig != o.storeSig ||
		m.cap != o.cap || m.leadStopped != o.leadStopped || m.archBase != o.archBase ||
		m.lvqInFlight != o.lvqInFlight || m.sbInFlight != o.sbInFlight ||
		m.lastCommitTotal != o.lastCommitTotal || m.lastProgressCycle != o.lastProgressCycle ||
		m.leadInIQ != o.leadInIQ || m.calMask != o.calMask || m.mode != o.mode ||
		m.prog != o.prog || m.cfg != o.cfg || m.areaModel != o.areaModel ||
		!statsEqual(&m.stats, &o.stats) {
		return false
	}
	if !slices.EqualFunc(m.threads, o.threads, (*thread).equal) ||
		!uopsEqual(m.iq, o.iq) || !slices.Equal(m.slotGSeq, o.slotGSeq) ||
		!slices.Equal(m.iqFree, o.iqFree) || !slices.Equal(m.readyMask, o.readyMask) ||
		!m.packetPending.equal(o.packetPending) {
		return false
	}
	for cl := range m.unitFreeAt {
		if !slices.Equal(m.unitFreeAt[cl], o.unitFreeAt[cl]) {
			return false
		}
	}
	if !slices.EqualFunc(m.regWaiters, o.regWaiters, uopsEqual) ||
		!slices.EqualFunc(m.cal, o.cal, uopsEqual) ||
		!slices.EqualFunc(m.doneCal, o.doneCal, uopsEqual) {
		return false
	}
	return m.rf.Equal(o.rf) && m.freeList.Equal(o.freeList) &&
		m.pred.Equal(o.pred) && m.sink.Equal(o.sink) &&
		m.boq.Equal(o.boq) && m.lvq.Equal(o.lvq) && m.sb.Equal(o.sb) &&
		m.stream.Equal(o.stream) && m.dtq.Equal(o.dtq) &&
		m.shuffler.Equal(o.shuffler) && m.dr.Equal(o.dr) && m.oc.Equal(o.oc) &&
		m.packets.EqualFunc(o.packets, (*core.Packet).Equal) &&
		m.dcache.Equal(o.dcache) && m.mem.Equal(o.mem)
}

// statsEqual compares statistics, the first detection event by value.
func statsEqual(a, b *Stats) bool {
	x, y := *a, *b
	x.FirstEvent, y.FirstEvent = nil, nil
	if x != y {
		return false
	}
	if a.FirstEvent == nil || b.FirstEvent == nil {
		return a.FirstEvent == b.FirstEvent
	}
	return *a.FirstEvent == *b.FirstEvent
}

// uopEqual reports whether a and b are both nil or equal by value.
func uopEqual(a, b *UOp) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

func uopsEqual(a, b []*UOp) bool { return slices.EqualFunc(a, b, uopEqual) }

// equal compares two threads: scalars, rename map, fetch buffer and the
// live entries of both windows.
func (t *thread) equal(o *thread) bool {
	x, y := *t, *o
	x.rob, x.lsq, x.rmap, x.fetchQ = nil, nil, nil, nil
	y.rob, y.lsq, y.rmap, y.fetchQ = nil, nil, nil, nil
	return x == y && t.rmap.Equal(o.rmap) && queues.Equal(t.fetchQ, o.fetchQ) &&
		t.rob.equal(o.rob) && t.lsq.equal(o.lsq)
}

// equal compares two windows' bounds and live entries [head, tail).
func (w *window) equal(o *window) bool {
	if w.head != o.head || w.tail != o.tail || w.count != o.count || len(w.slots) != len(o.slots) {
		return false
	}
	for v := w.head; v < w.tail; v++ {
		if !uopEqual(w.at(v), o.at(v)) {
			return false
		}
	}
	return true
}
