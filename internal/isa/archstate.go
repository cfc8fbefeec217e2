package isa

import (
	"sort"
	"sync"
)

// This file provides cheap architectural snapshots of the functional machine
// and a memoized snapshot trajectory shared by a whole fault campaign. The
// sampled-simulation engine (internal/sim fast-forward) runs the golden
// emulator — roughly two orders of magnitude faster than the cycle-accurate
// pipeline — up to a handoff instruction, captures the architectural state
// here, and seeds a warm pipeline.Machine from it. A pool of reusable
// machines keeps memory pages off the per-run allocation path.

// ArchState is one architectural snapshot of a Machine: everything the ISA
// defines (PC, registers, memory) plus the store-stream accounting needed to
// continue output verification from this point. Snapshots are immutable once
// captured and safe to share across goroutines.
type ArchState struct {
	PC      int
	Halted  bool
	Retired uint64
	Stores  uint64
	Sig     uint64

	IntReg [NumIntRegs]uint64
	FPReg  [NumFPRegs]uint64
	Mem    *Memory
}

// Reg returns the architectural register value in the snapshot.
func (a *ArchState) Reg(r Reg) uint64 {
	if r.IsFP() {
		return a.FPReg[r-NumIntRegs]
	}
	if r == ZeroReg {
		return 0
	}
	return a.IntReg[r]
}

// CaptureArch snapshots the machine's architectural state. The snapshot owns
// a private copy of the machine's written memory pages, so it stays valid as
// the machine runs on.
func (m *Machine) CaptureArch() *ArchState {
	return &ArchState{
		PC:      m.pc,
		Halted:  m.halted,
		Retired: uint64(m.retired),
		Stores:  uint64(m.stores),
		Sig:     m.sig,
		IntReg:  m.intReg,
		FPReg:   m.fpReg,
		Mem:     m.mem.Clone(),
	}
}

// RestoreArch rewinds (or advances) the machine to a previously captured
// snapshot of the same program. The snapshot is copied, never aliased.
func (m *Machine) RestoreArch(a *ArchState) {
	m.pc = a.PC
	m.halted = a.Halted
	m.retired = int(a.Retired)
	m.stores = int(a.Stores)
	m.sig = a.Sig
	m.intReg = a.IntReg
	m.fpReg = a.FPReg
	m.mem.CopyFrom(a.Mem)
}

// ResetTo reinitializes the machine to execute p from instruction 0 with a
// zeroed register file, keeping its memory pages for reuse. A program the
// machine was already running is not re-validated.
func (m *Machine) ResetTo(p *Program) error {
	if p == nil || len(p.Code) == 0 {
		return ErrNoProgram
	}
	if p != m.prog {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	m.mem.Reset(p.dataBytes(), p.Init)
	m.prog = p
	m.intReg = [NumIntRegs]uint64{}
	m.fpReg = [NumFPRegs]uint64{}
	m.pc = 0
	m.halted = false
	m.retired = 0
	m.stores = 0
	m.sig = 0
	m.StoreHook = nil
	return nil
}

// machinePool recycles functional machines, and with them the memory pages
// their runs created: campaigns rewind the golden model constantly.
var machinePool sync.Pool

// AcquireMachine returns a machine ready to execute p from instruction 0,
// reusing a pooled machine's memory pages when one is available. Pair with
// ReleaseMachine.
func AcquireMachine(p *Program) (*Machine, error) {
	if v := machinePool.Get(); v != nil {
		m := v.(*Machine)
		if err := m.ResetTo(p); err != nil {
			machinePool.Put(m)
			return nil, err
		}
		return m, nil
	}
	return NewMachine(p)
}

// ReleaseMachine returns m to the pool; the caller must not use it afterwards.
func ReleaseMachine(m *Machine) {
	if m == nil {
		return
	}
	m.StoreHook = nil
	machinePool.Put(m)
}

// Trajectory memoizes architectural snapshots along one program's functional
// execution, shared (mutex-protected) across campaign workers. A request
// below the cursor's position rewinds through the nearest earlier snapshot —
// never by replaying from instruction 0 unless no snapshot precedes it.
type Trajectory struct {
	mu    sync.Mutex
	prog  *Program
	m     *Machine     // forward cursor, pooled lazily
	snaps []*ArchState // memoized snapshots, sorted by Retired
}

// NewTrajectory builds an empty trajectory over p.
func NewTrajectory(p *Program) *Trajectory { return &Trajectory{prog: p} }

// At returns the architectural state after k retired instructions (or the
// program's halt, whichever comes first). The returned snapshot is shared
// and must not be mutated.
func (tr *Trajectory) At(k uint64) (*ArchState, error) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if i := tr.find(k); i >= 0 {
		return tr.snaps[i], nil
	}
	if err := tr.seek(k); err != nil {
		return nil, err
	}
	a := tr.m.CaptureArch()
	tr.insert(a)
	return a, nil
}

// SigAt returns the golden store signature and store count after k retired
// instructions (or the program's halt, whichever comes first).
func (tr *Trajectory) SigAt(k uint64) (sig, stores uint64, err error) {
	a, err := tr.At(k)
	if err != nil {
		return 0, 0, err
	}
	return a.Sig, a.Stores, nil
}

// find returns the index of a memoized snapshot that answers "state after k
// retired instructions" — an exact hit, or a halted snapshot at or before k
// (a halted machine no longer changes state) — or -1.
func (tr *Trajectory) find(k uint64) int {
	i := sort.Search(len(tr.snaps), func(i int) bool { return tr.snaps[i].Retired >= k })
	if i < len(tr.snaps) && tr.snaps[i].Retired == k {
		return i
	}
	if n := len(tr.snaps); n > 0 && tr.snaps[n-1].Halted && tr.snaps[n-1].Retired <= k {
		return n - 1
	}
	return -1
}

// seek positions the cursor machine exactly k retired instructions in (or at
// the halt), restoring the nearest earlier snapshot when the cursor is ahead
// of k or behind a memoized shortcut.
func (tr *Trajectory) seek(k uint64) error {
	if tr.m == nil {
		m, err := AcquireMachine(tr.prog)
		if err != nil {
			return err
		}
		tr.m = m
	} else if uint64(tr.m.Retired()) > k {
		if err := tr.m.ResetTo(tr.prog); err != nil {
			return err
		}
	}
	if i := sort.Search(len(tr.snaps), func(i int) bool { return tr.snaps[i].Retired > k }); i > 0 {
		if s := tr.snaps[i-1]; s.Retired > uint64(tr.m.Retired()) {
			tr.m.RestoreArch(s)
		}
	}
	tr.m.Run(int(k - uint64(tr.m.Retired())))
	return nil
}

// insert memoizes a snapshot, keeping snaps sorted by Retired.
func (tr *Trajectory) insert(a *ArchState) {
	i := sort.Search(len(tr.snaps), func(i int) bool { return tr.snaps[i].Retired >= a.Retired })
	if i < len(tr.snaps) && tr.snaps[i].Retired == a.Retired {
		return
	}
	tr.snaps = append(tr.snaps, nil)
	copy(tr.snaps[i+1:], tr.snaps[i:])
	tr.snaps[i] = a
}
