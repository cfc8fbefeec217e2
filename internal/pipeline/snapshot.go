package pipeline

import (
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
// the event heap, waiter lists and the calendar at once), so identity is
// preserved through translation maps. The program is immutable and shared;
// free-list pools and scratch buffers start empty (recycled records are
// fully overwritten at allocation, so an empty pool only costs allocations);
// the tracer is dropped (trace state is not part of machine state).
func (m *Machine) clone() *Machine {
	c := &Machine{}
	*c = *m // scalars, config, stats; pointers fixed up below

	uops := make(map[*UOp]*UOp)
	cu := func(u *UOp) *UOp {
		if u == nil {
			return nil
		}
		if v, ok := uops[u]; ok {
			return v
		}
		v := &UOp{}
		*v = *u
		uops[u] = v
		return v
	}
	entries := make(map[*core.Entry]*core.Entry)
	ce := func(e *core.Entry) *core.Entry {
		if e == nil {
			return nil
		}
		if v, ok := entries[e]; ok {
			return v
		}
		v := &core.Entry{}
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

	c.iq = make([]*UOp, len(m.iq), cap(m.iq))
	for i, u := range m.iq {
		c.iq[i] = cu(u)
	}
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

	// The completion-event heap: same order, remapped uops (the heap
	// invariant depends only on DoneCycle/GSeq, which the copies share).
	c.events = make(eventHeap, len(m.events), cap(m.events))
	for i, u := range m.events {
		c.events[i] = cu(u)
	}

	// Wakeup state.
	c.readyMask = append([]uint64(nil), m.readyMask...)
	c.regWaiters = make([][]*UOp, len(m.regWaiters))
	for p, ws := range m.regWaiters {
		if len(ws) == 0 {
			continue
		}
		nw := make([]*UOp, len(ws))
		for i, u := range ws {
			nw[i] = cu(u)
		}
		c.regWaiters[p] = nw
	}
	c.cal = make([][]*UOp, len(m.cal))
	for idx, lst := range m.cal {
		if len(lst) == 0 {
			continue
		}
		nl := make([]*UOp, len(lst))
		for i, u := range lst {
			nl[i] = cu(u)
		}
		c.cal[idx] = nl
	}
	if m.packetPending != nil {
		c.packetPending = m.packetPending.clone()
	}

	// Hot-path record pools start empty in the copy.
	c.uopFree = nil
	c.entryFree = nil
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
		slots: make([]*UOp, len(w.slots)),
		head:  w.head,
		tail:  w.tail,
		count: w.count,
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
