package pipeline

import "blackjack/internal/isa"

// ArchReg returns the committed architectural value of register r in thread
// th's context, read through the thread's rename map. The BlackJack trailing
// thread has no architectural map (it renames leading physical registers);
// use the leading thread's state instead.
func (m *Machine) ArchReg(th int, r isa.Reg) uint64 {
	t := m.threads[th]
	return m.rf.Value(t.rmap.Get(int(r)))
}

// MemWord returns the 8-byte word at the (clamped) address of the machine's
// memory image.
func (m *Machine) MemWord(addr uint64) uint64 { return m.readMem(addr) }

// MemSize returns the size in bytes of the machine's memory image.
func (m *Machine) MemSize() int { return m.mem.Size() }

// SquashSpeculative discards thread th's in-flight speculative work, rolling
// the rename map back to the last committed instruction so that ArchReg
// observes committed architectural state. Redundant runs squash the leading
// thread when it reaches its budget (capCheck) and drain the trailing thread
// before completing, so this matters mainly for ModeSingle runs stopped at an
// instruction cap with wrong-path work still in flight. Call only after Run
// returns.
func (m *Machine) SquashSpeculative(th int) {
	t := m.threads[th]
	m.squash(t, t.nextSeqCommitted(), -1)
}

// TrailingArchReg returns the committed architectural value of register r as
// seen by the BlackJack trailing thread, read through the order checker's
// second (program-order) rename table — the trailing thread's own rmap is
// unused under double rename. It panics when the mode has no DTQ.
func (m *Machine) TrailingArchReg(r isa.Reg) uint64 {
	if m.oc == nil {
		panic("pipeline: TrailingArchReg outside a DTQ mode")
	}
	return m.rf.Value(m.oc.Mapping(r))
}
