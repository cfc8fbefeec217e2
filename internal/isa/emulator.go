package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// ErrNoProgram is returned when a Machine is run without a program.
var ErrNoProgram = errors.New("isa: machine has no program")

// Store describes one architecturally committed store, in program order.
// The stream of stores is the observable output of a program: the paper's
// SRT/BlackJack detection model compares exactly this stream between the
// leading and trailing threads, and our fault-injection harness compares it
// against the golden model to classify silent corruptions.
type Store struct {
	Addr  uint64
	Value uint64
}

// Program is an executable instruction sequence. The PC is an index into it.
type Program struct {
	// Name identifies the workload (e.g. a synthetic SPEC2000 profile name).
	Name string
	// Code is the instruction sequence.
	Code []Inst
	// DataSize is the size in bytes of the zero-initialized data segment: a
	// multiple of 8 (0 means one word).
	DataSize int
	// Init seeds data-segment words before execution: Init[i] is written to
	// byte offset 8*i.
	Init []uint64
}

// Validate checks structural well-formedness: every branch target must be a
// valid instruction index and register names must be in range.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return errors.New("isa: empty program")
	}
	for i, in := range p.Code {
		if in.Op >= Op(numOps) {
			return fmt.Errorf("isa: instruction %d: invalid opcode %d", i, in.Op)
		}
		if in.IsBranch() {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return fmt.Errorf("isa: instruction %d (%s): branch target %d out of range [0,%d)",
					i, in, in.Imm, len(p.Code))
			}
		}
		for _, r := range [3]Reg{in.Rd, in.Rs1, in.Rs2} {
			if r >= NumArchRegs {
				return fmt.Errorf("isa: instruction %d (%s): register %d out of range", i, in, r)
			}
		}
	}
	if p.DataSize < 0 {
		return fmt.Errorf("isa: negative data size %d", p.DataSize)
	}
	if p.DataSize%8 != 0 {
		return fmt.Errorf("isa: data size %d is not a multiple of 8", p.DataSize)
	}
	if len(p.Init)*8 > p.dataBytes() {
		return fmt.Errorf("isa: %d init words exceed data segment of %d bytes", len(p.Init), p.dataBytes())
	}
	return nil
}

// NewMemory returns a fresh data segment for the program over its shared,
// read-only Init image.
func (p *Program) NewMemory() *Memory {
	m := &Memory{}
	p.ResetMemory(m)
	return m
}

// ResetMemory makes m a fresh data segment for the program, as NewMemory
// returns, keeping m's pages for reuse.
func (p *Program) ResetMemory(m *Memory) { m.Reset(p.dataBytes(), p.Init) }

// dataBytes returns the size of the program's data segment in bytes:
// DataSize, or one word when DataSize is 0.
func (p *Program) dataBytes() int {
	if p.DataSize == 0 {
		return 8
	}
	return p.DataSize
}

// Machine is the functional, in-order, one-instruction-per-step emulator. It
// is the golden model: the out-of-order pipeline must commit exactly the same
// architectural state and store stream (absent injected faults).
//
// The zero value is not usable; construct with NewMachine.
type Machine struct {
	prog *Program

	intReg [NumIntRegs]uint64
	fpReg  [NumFPRegs]uint64
	mem    *Memory

	pc     int
	halted bool

	retired int
	stores  int
	sig     uint64 // running FNV-1a signature over the store stream

	// StoreHook, when non-nil, observes every committed store in order.
	StoreHook func(Store)
}

// NewMachine builds a machine ready to execute p from instruction 0 with a
// zeroed register file and the data segment initialized from p.Init.
func NewMachine(p *Program) (*Machine, error) {
	if p == nil || len(p.Code) == 0 {
		return nil, ErrNoProgram
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Machine{prog: p, mem: p.NewMemory()}, nil
}

// ClampAddr maps an arbitrary effective address onto a data segment of the
// given size: the address is 8-byte aligned and wrapped to the segment size.
// This makes every memory access total and deterministic, which matters both
// for wrong-path execution in the pipeline and for fault-corrupted addresses.
// The pipeline's memory system uses the same mapping so the golden model and
// the out-of-order core always agree on effective addresses.
func ClampAddr(addr uint64, size int) uint64 {
	return (addr &^ 7) % uint64(size)
}

func clampAddr(addr uint64, size int) uint64 { return ClampAddr(addr, size) }

// ReadMem returns the 8-byte word at the (clamped) address.
func (m *Machine) ReadMem(addr uint64) uint64 {
	return m.mem.Load(clampAddr(addr, m.mem.Size()))
}

// WriteMem stores a 8-byte word at the (clamped) address.
func (m *Machine) WriteMem(addr uint64, v uint64) {
	m.mem.Store(clampAddr(addr, m.mem.Size()), v)
}

// Reg returns the current value of an architectural register.
func (m *Machine) Reg(r Reg) uint64 {
	if r.IsFP() {
		return m.fpReg[r-NumIntRegs]
	}
	if r == ZeroReg {
		return 0
	}
	return m.intReg[r]
}

// SetReg writes an architectural register (writes to the integer zero
// register are discarded).
func (m *Machine) SetReg(r Reg, v uint64) {
	if r.IsFP() {
		m.fpReg[r-NumIntRegs] = v
		return
	}
	if r == ZeroReg {
		return
	}
	m.intReg[r] = v
}

// PC returns the current program counter (instruction index).
func (m *Machine) PC() int { return m.pc }

// Halted reports whether the program has executed OpHalt.
func (m *Machine) Halted() bool { return m.halted }

// Retired returns the number of instructions executed so far.
func (m *Machine) Retired() int { return m.retired }

// Stores returns the number of stores committed so far.
func (m *Machine) Stores() int { return m.stores }

// StoreSignature returns an order-sensitive hash of every (addr, value) store
// committed so far. Two executions with equal signatures and counts produced
// the same observable output.
func (m *Machine) StoreSignature() uint64 { return m.sig }

// ChainStoreSig extends an order-sensitive store-stream signature with one
// (addr, value) store. The golden-model emulator and the pipeline's released
// store stream use the same chaining, so equal signatures mean equal output.
func ChainStoreSig(sig, addr, val uint64) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	binary.LittleEndian.PutUint64(buf[0:], sig)
	binary.LittleEndian.PutUint64(buf[8:], addr)
	binary.LittleEndian.PutUint64(buf[16:], val)
	_, _ = h.Write(buf[:])
	return h.Sum64()
}

func (m *Machine) recordStore(addr, val uint64) {
	m.stores++
	m.sig = ChainStoreSig(m.sig, addr, val)
	if m.StoreHook != nil {
		m.StoreHook(Store{Addr: addr, Value: val})
	}
}

// Step executes one instruction. It is a no-op once the machine has halted.
func (m *Machine) Step() {
	if m.halted {
		return
	}
	if m.pc < 0 || m.pc >= len(m.prog.Code) {
		// Running off the end of the program halts, mirroring the pipeline's
		// behaviour for fault-corrupted control flow.
		m.halted = true
		return
	}
	in := m.prog.Code[m.pc]
	var v1, v2 uint64
	if in.ReadsRs1() {
		v1 = m.Reg(in.Rs1)
	}
	if in.ReadsRs2() {
		v2 = m.Reg(in.Rs2)
	}
	out := Eval(in, v1, v2)

	next := m.pc + 1
	switch {
	case in.Op == OpHalt:
		m.halted = true
	case in.IsLoad():
		m.SetReg(in.Rd, m.ReadMem(out.Addr))
	case in.IsStore():
		a := clampAddr(out.Addr, m.mem.Size())
		m.mem.Store(a, out.StoreValue)
		m.recordStore(a, out.StoreValue)
	case in.IsBranch():
		if out.Taken {
			next = out.Target
		}
	case in.WritesRd():
		m.SetReg(in.Rd, out.Value)
	}
	m.pc = next
	m.retired++
}

// Run executes until the program halts or maxInstrs instructions have
// retired, returning the number retired by this call.
func (m *Machine) Run(maxInstrs int) int {
	start := m.retired
	for !m.halted && m.retired-start < maxInstrs {
		m.Step()
	}
	return m.retired - start
}
