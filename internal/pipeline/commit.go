package pipeline

import (
	"fmt"

	"blackjack/internal/core"
	"blackjack/internal/detect"
	"blackjack/internal/obs"
	"blackjack/internal/redundancy"
	"blackjack/internal/rename"
)

// commitStage retires up to CommitWidth instructions per thread, in program
// order. The leading thread commits first so that a leading store and its
// trailing copy can pair through the store buffer within one cycle.
func (m *Machine) commitStage() {
	m.commitThread(m.threads[leadThread])
	if m.mode.Redundant() {
		m.commitThread(m.threads[trailThread])
	}
}

func (m *Machine) commitThread(t *thread) {
	for n := 0; n < m.cfg.CommitWidth; n++ {
		if t.halted {
			return
		}
		u := t.rob.headUop()
		if u == nil || !u.done(m.cycle) {
			return
		}
		var ok bool
		switch {
		case m.mode == ModeSingle:
			ok = m.commitSingle(t, u)
		case t.id == leadThread:
			ok = m.commitLeading(t, u)
		default:
			ok = m.commitTrailing(t, u)
		}
		if !ok {
			return // structural stall (full redundancy queue); retry next cycle
		}
		m.trace(TraceCommit, u)
		t.rob.popHead()
		if u.Inst.IsMem() {
			t.lsq.popHead()
		}
		t.committed++
		if u.Halt {
			t.halted = true
			t.fetchStopped = true
		}
		// The committed uop has left every structure: the completion
		// calendar released it earlier this cycle (resolveCompletions runs
		// first in Tick and done() requires DoneCycle <= cycle), issue
		// removed it from the issue queue, and the window/LSQ slots were
		// just popped.
		m.recycleUOp(u)
	}
}

// commitSingle retires an instruction on the non-redundant machine: stores go
// straight to memory.
func (m *Machine) commitSingle(t *thread, u *UOp) bool {
	if u.Inst.IsStore() {
		m.releaseStore(u.Addr, u.StoreVal)
	}
	if u.POld != rename.None {
		m.freeList.Free(u.POld)
	}
	return true
}

// commitLeading retires a leading instruction: results feed the trailing
// thread (stream or DTQ), loads fill the LVQ, branches fill the BOQ (SRT),
// and stores enter the checking store buffer. Any full queue stalls commit.
func (m *Machine) commitLeading(t *thread, u *UOp) bool {
	// Check every structural gate before performing any side effect.
	if u.Inst.IsStore() && m.sb.Full() {
		return false
	}
	if u.Inst.IsLoad() && m.lvq.Full() {
		return false
	}
	if m.mode == ModeSRT {
		if m.stream.Full() {
			return false
		}
		if u.Inst.IsBranch() && m.boq.Full() {
			return false
		}
	}

	switch {
	case u.Inst.IsStore():
		m.sb.Push(redundancy.PendingStore{Seq: u.StoreSeq, PC: u.PC, Addr: u.Addr, Value: u.StoreVal})
		m.sbInFlight--
	case u.Inst.IsLoad():
		m.lvq.Push(redundancy.LoadValue{Seq: u.LoadSeq, PC: u.PC, Addr: u.Addr, Value: u.Result})
		m.lvqInFlight--
	case u.Inst.IsBranch() && m.mode == ModeSRT:
		m.boq.Push(redundancy.BranchOutcome{Seq: u.BranchSeq, PC: u.PC, Taken: u.Taken, Target: u.Target})
	}

	if m.mode == ModeSRT {
		m.stream.Push(redundancy.StreamEntry{
			Seq:      t.committed,
			PC:       u.PC,
			Inst:     u.Raw,
			FrontWay: u.FrontWay,
			BackWay:  u.BackWay,
			Class:    u.Class,
			LoadSeq:  u.LoadSeq,
			StoreSeq: u.StoreSeq,
			Halt:     u.Halt,
		})
	} else {
		// BlackJack: fill in the program-order information the DTQ entry
		// needs for safe-shuffle and the trailing thread's virtual indices.
		var virtLSQ uint64
		if u.Inst.IsMem() {
			virtLSQ = u.VirtLSQ
		}
		if !m.dtq.MarkCommitted(u.Seq, u.VirtAL, virtLSQ, u.LoadSeq, u.StoreSeq, u.Halt) {
			m.internalError("leading commit of seq %d: no DTQ entry", u.Seq)
		}
	}

	if u.POld != rename.None {
		m.freeList.Free(u.POld)
	}
	return true
}

// commitTrailing retires a trailing instruction, running the redundancy
// checks: store compare-and-release (SRT and BlackJack), LVQ retirement, BOQ
// validation (SRT), and BlackJack's dependence and program-order checks.
func (m *Machine) commitTrailing(t *thread, u *UOp) bool {
	switch {
	case u.Inst.IsStore():
		hadEntry := m.sb.Len() > 0
		rel, _ := m.sb.CheckRelease(m.sink, m.cycle, u.StoreSeq, u.PC, u.Addr, u.StoreVal)
		if hadEntry {
			// Release the leading copy's value: it was checked against the
			// trailing copy; on a mismatch the error is already reported and
			// the (flagged) store still drains so the machine keeps moving.
			m.releaseStore(rel.Addr, rel.Value)
		}
	case u.Inst.IsLoad():
		if !m.lvq.Retire(u.LoadSeq) {
			// Load pairing lost: under fault-free operation this cannot
			// happen; a decode fault that changes an instruction's memory
			// behaviour surfaces here as a detectable divergence.
			m.sink.ReportLazy(m.cycle, detect.CheckLVQAddr, u.PC, func() string {
				return fmt.Sprintf("trailing load seq %d lost LVQ pairing", u.LoadSeq)
			})
		}
	case u.Inst.IsBranch() && m.mode == ModeSRT:
		m.boq.Validate(m.sink, m.cycle, u.BranchSeq, u.PC, u.Taken, u.Target)
	}

	// Register reclamation and BlackJack's borrowed-information checks.
	if m.mode.UsesDTQ() {
		free, _ := m.oc.Commit(m.sink, m.cycle, core.CommitInfo{
			PC:      u.PC,
			RawInst: u.Raw,
			PSrc1:   u.PSrc1,
			PSrc2:   u.PSrc2,
			PDest:   u.PDest,
			Taken:   u.Taken,
			Target:  u.Target,
		})
		if free != rename.None {
			m.freeList.Free(free)
		}
	} else if u.POld != rename.None {
		m.freeList.Free(u.POld)
	}

	// Coverage accounting over the committed pair (Figure 4), with the
	// per-unit-class breakdown.
	if u.PairValid {
		m.stats.Pairs++
		if u.FeDiverse {
			m.stats.FeDiversePairs++
		}
		if u.BeDiverse {
			m.stats.BeDiversePairs++
		}
		m.stats.PairsByClass[u.LeadClass]++
		if u.BeDiverse {
			m.stats.BeDiverseByClass[u.LeadClass]++
		}
		m.stats.CoverageSum += m.areaPairCoverage(u.FeDiverse, u.BeDiverse)
	}
	return true
}

// shuffleStage runs safe-shuffle on at most one committed DTQ packet per
// cycle (the long slack leaves ample time, Section 4.2.2), pushing the
// shuffled output packets into the trailing fetch queue.
func (m *Machine) shuffleStage() {
	if m.dtq == nil {
		return
	}
	pkt := m.dtq.HeadPacket()
	if pkt == nil {
		return
	}
	// Merging shuffle (optional extension): pull the next committed packet
	// in as well when the DTQ proves the two are independent and the merged
	// packet can still co-issue whole.
	var next []*core.Entry
	if m.cfg.MergePackets {
		if pkts := m.dtq.HeadPackets(2); len(pkts) == 2 &&
			core.MergeBudget(pkts[0], pkts[1], m.cfg.FetchWidth, m.cfg.Units) &&
			core.CanMerge(pkts[0], pkts[1]) {
			next = pkts[1]
		}
	}
	// A shuffle never produces more output packets than input instructions,
	// so this conservative space check avoids shuffling twice. A merge
	// waiting for space is neither built nor counted until it happens.
	if m.packets.Free() < len(pkt)+len(next) {
		return
	}
	if next != nil {
		pkt = append(append(make([]*core.Entry, 0, len(pkt)+len(next)), pkt...), next...)
		m.stats.MergedPackets++
	}
	m.dtq.PopPacket(len(pkt))
	out := m.shuffler.Shuffle(pkt)
	if m.shuffleObs != nil {
		m.shuffleObs(m.cycle, pkt, out)
	}
	if m.otr != nil {
		m.otr.Record(obs.Event{
			Cycle: m.cycle, Kind: obs.KindShuffle, Thread: -1,
			Arg: uint64(len(pkt))<<32 | uint64(len(out)),
		})
	}
	for _, p := range out {
		if !m.packets.Push(p) {
			m.internalError("trailing packet queue overflow despite space check")
		}
	}
}
