package pipeline

import (
	"slices"

	"blackjack/internal/cache"
	"blackjack/internal/core"
	"blackjack/internal/isa"
	"blackjack/internal/queues"
	"blackjack/internal/redundancy"
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
	// lists backs every wakeup and calendar list of m, each carved to its
	// length (see frozenLists).
	lists []*UOp
}

// Cycle returns the cycle the checkpoint was taken at.
func (cp *Checkpoint) Cycle() int64 { return cp.m.cycle }

// Snapshot deep-copies the machine's state into a new Checkpoint. The
// machine is only read, so snapshotting mid-run (from a RunWithCheckpoints
// hook) is safe. Snapshot is SnapshotInto(nil, nil).
func (m *Machine) Snapshot() *Checkpoint {
	return m.SnapshotInto(nil, nil)
}

// SnapshotInto deep-copies the machine's state into cp, reusing the storage
// cp owns, as ForkFrom does for a machine, and returns it; a nil cp gets
// new storage. Each memory page and cache tag page that holds the same
// words in prev, an earlier checkpoint (nil: none), is shared with prev
// instead of copied; the pages are compared now, so running the machine
// costs nothing extra. Wakeup and calendar lists are carved to their
// length. The result equals a fresh Snapshot: cp keeps nothing of its
// earlier state and no reference to m.
//
// A checkpoint's pages may thus belong to another checkpoint, never to a
// live machine or a fork. So: cp must not be in use (no machine forking
// from it or comparing against it, no checkpoint sharing its pages) while
// it is rebuilt, and prev must stay unchanged for as long as cp is in use.
func (m *Machine) SnapshotInto(cp, prev *Checkpoint) *Checkpoint {
	if cp == nil {
		cp = &Checkpoint{m: &Machine{}}
	}
	var pm *Machine
	if prev != nil {
		pm = prev.m
	}
	c := cp.m
	sink := c.sink
	c.copyFrom(m, pm, &cp.lists)
	c.sink = orNew(sink)
	c.sink.CopyFrom(m.sink)
	// The translation maps keep their buckets for the next rebuild, but
	// not m's records as keys.
	clear(c.uopCopies)
	clear(c.entryCopies)
	return cp
}

// Fork builds a new runnable machine from the checkpoint and applies opts —
// typically WithInjector and WithSink. The fork carries only the harness
// state its options install: no injector or observer of the snapshotted
// machine. The checkpoint is only read and stays reusable.
func Fork(cp *Checkpoint, opts ...Option) *Machine {
	f := &Machine{}
	f.ForkFrom(cp, opts...)
	return f
}

// ForkFrom builds into m the machine Fork(cp, opts...) returns, reusing the
// storage of whatever machine m held before, as Init does: Fork is ForkFrom
// on a zero Machine. The checkpoint is only read.
func (m *Machine) ForkFrom(cp *Checkpoint, opts ...Option) {
	m.copyFrom(cp.m, nil, nil)
	for _, opt := range opts {
		opt(m)
	}
	if m.sink == nil {
		m.sink = cp.m.sink.Clone()
	}
	m.initObs()
	m.initWatch()
}

// copyFrom makes m a deep copy of every live structure of src, reusing the
// storage of whatever machine m held before. UOps and DTQ entries are
// shared by multiple structures (a uop sits in its window, the issue queue,
// a calendar bucket and waiter lists at once), so identity is preserved
// through translation maps, and the copies come from m's rewound slabs,
// grown to the live population when short. The program is immutable and
// shared; record free lists start empty and scratch buffers hold nothing
// of src (a record is filled in full at allocation, so an empty pool only
// costs slab records). Harness state is not machine state, so none of it
// is copied: m gets no injector, shuffle observer, tracer, metrics or run
// context, and no detection sink; the caller installs one.
//
// With a non-nil frozen, m is a checkpoint, never run: it shares prev's
// equal memory and tag pages (prev nil: none; see SnapshotInto), and its
// wakeup and calendar lists are carved to their length from *frozen. With
// a nil frozen, m is a live machine, and prev must be nil.
func (m *Machine) copyFrom(src, prev *Machine, frozen *[]*UOp) {
	st := m.storage()
	*m = *src // scalars, config, stats; storage fixed up below
	m.adoptPools(&st)
	m.inj, m.shuffleObs, m.tracer, m.sink = nil, nil, nil, nil
	m.otr, m.metrics = nil, nil
	m.hIQ, m.hDTQ, m.hBOQ, m.hLVQ = nil, nil, nil, nil
	m.runCtx = nil

	// Every live uop is in an active list, the issue queue (shuffle NOPs) or
	// the completion calendar (NOPs and squashed uops), and every live DTQ
	// entry in the DTQ or a trailing packet, so these counts bound the
	// copies.
	nu, ne := src.iqLen(), 0
	for _, t := range src.threads {
		nu += t.rob.occupancy()
	}
	for _, b := range src.doneCal {
		nu += len(b)
	}
	if src.dtq != nil {
		ne = src.dtq.Len()
		for i := 0; i < src.packets.Len(); i++ {
			ne += len(src.packets.AtRef(i).Slots)
		}
	}
	m.uopSlab.reserve(nu)
	m.entrySlab.reserve(ne)
	if m.uopCopies == nil {
		m.uopCopies = make(map[*UOp]*UOp, nu)
		m.entryCopies = make(map[*core.Entry]*core.Entry, ne)
	}
	clear(m.uopCopies)
	clear(m.entryCopies)
	cu, ce := m.copyUOp, m.copyEntry

	var prevMem *isa.Memory
	var prevCache *cache.Hierarchy
	if prev != nil {
		prevMem, prevCache = prev.mem, prev.dcache
	}
	m.mem = orNew(st.mem)
	m.mem.CopyShared(src.mem, prevMem)
	m.rf = orNew(st.rf)
	m.rf.CopyFrom(src.rf)
	m.freeList = orNew(st.freeList)
	m.freeList.CopyFrom(src.freeList)

	m.threads = resize(st.threads, len(src.threads))
	for i, t := range src.threads {
		m.threads[i] = orNew(m.threads[i])
		m.threads[i].copyFrom(t, cu)
	}

	m.iq = resize(st.iq, len(src.iq))
	for i, u := range src.iq {
		m.iq[i] = cu(u)
	}
	m.slotGSeq = append(st.slotGSeq[:0], src.slotGSeq...)
	m.iqFree = append(st.iqFree[:0], src.iqFree...)
	for cl := range src.unitFreeAt {
		m.unitFreeAt[cl] = append(st.unitFreeAt[cl][:0], src.unitFreeAt[cl]...)
	}

	m.pred = orNew(st.pred)
	m.pred.CopyFrom(src.pred)
	m.dcache = orNew(st.dcache)
	m.dcache.CopyShared(src.dcache, prevCache)
	m.boq = copied(st.boq, src.boq, (*redundancy.BOQ).CopyFrom)
	m.lvq = copied(st.lvq, src.lvq, (*redundancy.LVQ).CopyFrom)
	m.sb = copied(st.sb, src.sb, (*redundancy.StoreBuffer).CopyFrom)
	m.stream = copied(st.stream, src.stream, (*redundancy.Stream).CopyFrom)
	m.dtq = copied(st.dtq, src.dtq, func(d, s *core.DTQ) { d.CopyFrom(s, ce) })
	m.shuffler = copied(st.shuffler, src.shuffler, (*core.Shuffler).CopyFrom)
	m.packets = copied(st.packets, src.packets, m.copyPackets)
	m.dr = copied(st.dr, src.dr, (*core.DoubleRename).CopyFrom)
	m.oc = copied(st.oc, src.oc, (*core.OrderChecker).CopyFrom)

	// Calendars and wakeup state, in the same order, remapped.
	if frozen == nil {
		m.doneCal = copyLists(st.doneCal, src.doneCal, bucketCap, cu)
		m.cal = copyLists(st.cal, src.cal, bucketCap, cu)
		m.regWaiters = copyLists(st.regWaiters, src.regWaiters, waiterCap, cu)
	} else {
		*frozen = resize(*frozen, listsLen(src.doneCal)+listsLen(src.cal)+listsLen(src.regWaiters))
		rest := *frozen
		m.doneCal = frozenLists(st.doneCal, src.doneCal, &rest, cu)
		m.cal = frozenLists(st.cal, src.cal, &rest, cu)
		m.regWaiters = frozenLists(st.regWaiters, src.regWaiters, &rest, cu)
	}
	m.readyMask = append(st.readyMask[:0], src.readyMask...)
	m.packetPending = copied(st.packetPending, src.packetPending, (*pendTable).copyFrom)
	m.initWatch()
}

// copied returns a copy of src built in dst's storage (new storage when dst
// is nil), or nil when src is nil.
func copied[T any](dst, src *T, copyFrom func(dst, src *T)) *T {
	if src == nil {
		return nil
	}
	dst = orNew(dst)
	copyFrom(dst, src)
	return dst
}

// copyUOp returns this machine's copy of the source machine's uop u (nil
// for nil), taking a slab record on first sight.
func (m *Machine) copyUOp(u *UOp) *UOp {
	if u == nil {
		return nil
	}
	if v, ok := m.uopCopies[u]; ok {
		return v
	}
	v := m.uopSlab.alloc()
	*v = *u
	m.uopCopies[u] = v
	return v
}

// copyEntry is copyUOp for DTQ entries.
func (m *Machine) copyEntry(e *core.Entry) *core.Entry {
	if e == nil {
		return nil
	}
	if v, ok := m.entryCopies[e]; ok {
		return v
	}
	v := m.entrySlab.alloc()
	*v = *e
	m.entryCopies[e] = v
	return v
}

// copyPackets makes dst a deep copy of the trailing packet queue src:
// packets hold slot arrays referencing DTQ entries, so each copy takes a
// slot array from the shuffler and remaps its entries.
func (m *Machine) copyPackets(dst, src *queues.Ring[core.Packet]) {
	dst.CopyFrom(src)
	for i := 0; i < dst.Len(); i++ {
		p := dst.AtRef(i)
		slots := m.shuffler.NewSlots()[:0]
		for _, s := range p.Slots {
			s.Entry = m.copyEntry(s.Entry)
			slots = append(slots, s)
		}
		p.Slots = slots
	}
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
