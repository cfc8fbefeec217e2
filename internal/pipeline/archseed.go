package pipeline

import (
	"blackjack/internal/isa"
)

// This file seeds a machine from a functional architectural snapshot — the
// cycle-accurate half of sampled simulation. The golden ISA emulator runs
// the fault-free prefix (it is exact: diffcheck proves the pipeline commits
// the same architectural state), and the pipeline takes over at the handoff
// with empty microarchitectural structures. Callers leave a warmup lead of
// committed instructions before the window of interest so queues, the
// predictor and the redundancy coupling re-approach steady state; the
// machine's committed-instruction accounting (Stats.Committed, the run cap)
// stays in whole-program terms, while cycle numbers restart at 0 and are
// therefore window-relative.

// NewFromArch builds a machine whose architectural state — PC, register
// values, memory image, store-stream signature — starts at arch instead of
// at program reset. Both SMT contexts start at the same architectural point,
// exactly as they do at reset; the snapshot is copied, never aliased.
func NewFromArch(cfg Config, mode Mode, prog *isa.Program, arch *isa.ArchState, opts ...Option) (*Machine, error) {
	m := &Machine{}
	if err := m.InitFromArch(cfg, mode, prog, arch, opts...); err != nil {
		return nil, err
	}
	return m, nil
}

// InitFromArch builds into m the machine NewFromArch returns, reusing m's
// storage as Init does: NewFromArch is InitFromArch on a zero Machine.
func (m *Machine) InitFromArch(cfg Config, mode Mode, prog *isa.Program, arch *isa.ArchState, opts ...Option) error {
	if err := m.Init(cfg, mode, prog, opts...); err != nil {
		return err
	}
	m.seedArch(arch)
	return nil
}

// seedArch installs the snapshot into a freshly built machine.
func (m *Machine) seedArch(arch *isa.ArchState) {
	m.mem.CopyFrom(arch.Mem)
	// Each context's initial architectural mappings were set by New (and, in
	// DTQ modes, seeded into the double-rename and order-check tables);
	// writing the snapshot's values through the rename maps keeps every
	// cross-thread table consistent without re-seeding.
	stopped := arch.Halted || arch.PC < 0 || arch.PC >= len(m.prog.Code)
	for _, t := range m.threads {
		for a := 0; a < isa.NumArchRegs; a++ {
			m.rf.SetValue(t.rmap.Get(a), arch.Reg(isa.Reg(a)))
		}
		t.fetchPC = arch.PC
		if stopped {
			// The functional prefix already reached the program's end: there
			// is nothing left to run cycle-accurately.
			t.fetchStopped = true
			t.halted = true
		}
	}
	m.storeSig = arch.Sig
	m.stats.ReleasedStores = arch.Stores
	m.archBase = arch.Retired
}

// WithStopOnDetect makes the run loop stop at the end of the first cycle
// that records a detection event, setting Stats.StoppedOnDetect. Every
// fault-campaign run uses it: once a checker has fired the error is caught,
// and simulating on buys nothing.
func WithStopOnDetect() Option { return func(m *Machine) { m.stopOnDetect = true } }

// CommittedInstrs returns each thread's committed-instruction count in
// whole-program terms (including any seeded architectural base). A
// non-redundant machine reports its single thread for both.
func (m *Machine) CommittedInstrs() (lead, trail uint64) {
	lead = m.threads[leadThread].committed + m.archBase
	trail = lead
	if m.mode.Redundant() {
		trail = m.threads[trailThread].committed + m.archBase
	}
	return lead, trail
}
