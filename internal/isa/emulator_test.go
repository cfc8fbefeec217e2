package isa

import (
	"testing"
	"testing/quick"
)

// sumProgram computes sum(1..n) into r3 and stores it to data word 0.
func sumProgram(n int64) *Program {
	return &Program{
		Name: "sum",
		Code: []Inst{
			/*0*/ {Op: OpAddi, Rd: 1, Rs1: ZeroReg, Imm: n}, // r1 = n
			/*1*/ {Op: OpAddi, Rd: 3, Rs1: ZeroReg, Imm: 0}, // r3 = 0
			/*2*/ {Op: OpBeq, Rs1: 1, Rs2: ZeroReg, Imm: 6}, // while r1 != 0
			/*3*/ {Op: OpAdd, Rd: 3, Rs1: 3, Rs2: 1}, //   r3 += r1
			/*4*/ {Op: OpAddi, Rd: 1, Rs1: 1, Imm: -1}, //   r1--
			/*5*/ {Op: OpJmp, Imm: 2},
			/*6*/ {Op: OpSt, Rs1: ZeroReg, Rs2: 3, Imm: 0}, // mem[0] = r3
			/*7*/ {Op: OpHalt},
		},
		DataSize: 64,
	}
}

func TestMachineSumLoop(t *testing.T) {
	m, err := NewMachine(sumProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1 << 20)
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	if got := m.Reg(IntReg(3)); got != 55 {
		t.Errorf("r3 = %d, want 55", got)
	}
	if got := m.ReadMem(0); got != 55 {
		t.Errorf("mem[0] = %d, want 55", got)
	}
	if m.Stores() != 1 {
		t.Errorf("stores = %d, want 1", m.Stores())
	}
}

func TestMachineFibonacci(t *testing.T) {
	// Iterative fibonacci: fib(12) = 144, stored at word 1.
	p := &Program{
		Name: "fib",
		Code: []Inst{
			/*0*/ {Op: OpAddi, Rd: 1, Rs1: ZeroReg, Imm: 12}, // counter
			/*1*/ {Op: OpAddi, Rd: 2, Rs1: ZeroReg, Imm: 0}, // a
			/*2*/ {Op: OpAddi, Rd: 3, Rs1: ZeroReg, Imm: 1}, // b
			/*3*/ {Op: OpBeq, Rs1: 1, Rs2: ZeroReg, Imm: 8},
			/*4*/ {Op: OpAdd, Rd: 4, Rs1: 2, Rs2: 3}, // t = a+b
			/*5*/ {Op: OpOr, Rd: 2, Rs1: 3, Rs2: ZeroReg},
			/*6*/ {Op: OpOr, Rd: 3, Rs1: 4, Rs2: ZeroReg},
			/*7*/ {Op: OpAddi, Rd: 1, Rs1: 1, Imm: -1},
			/*8 -> loop back*/
		},
		DataSize: 64,
	}
	p.Code = append(p.Code[:8], Inst{Op: OpJmp, Imm: 3})
	p.Code[3] = Inst{Op: OpBeq, Rs1: 1, Rs2: ZeroReg, Imm: 9}
	p.Code = append(p.Code,
		Inst{Op: OpSt, Rs1: ZeroReg, Rs2: 2, Imm: 8},
		Inst{Op: OpHalt},
	)
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1 << 20)
	if got := m.ReadMem(8); got != 144 {
		t.Errorf("fib(12) = %d, want 144", got)
	}
}

func TestMachineMemoryClamping(t *testing.T) {
	p := &Program{
		Name: "clamp",
		Code: []Inst{
			{Op: OpAddi, Rd: 1, Rs1: ZeroReg, Imm: 1000}, // way past 64-byte segment
			{Op: OpSt, Rs1: 1, Rs2: 1, Imm: 5},           // unaligned + out of range
			{Op: OpLd, Rd: 2, Rs1: 1, Imm: 5},
			{Op: OpHalt},
		},
		DataSize: 64,
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if got := m.Reg(IntReg(2)); got != 1000 {
		t.Errorf("load after clamped store = %d, want 1000", got)
	}
}

func TestMachineZeroRegisterImmutable(t *testing.T) {
	p := &Program{
		Name: "zero",
		Code: []Inst{
			{Op: OpAddi, Rd: ZeroReg, Rs1: ZeroReg, Imm: 99},
			{Op: OpAdd, Rd: 1, Rs1: ZeroReg, Rs2: ZeroReg},
			{Op: OpHalt},
		},
		DataSize: 8,
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if got := m.Reg(ZeroReg); got != 0 {
		t.Errorf("r0 = %d, want 0", got)
	}
	if got := m.Reg(IntReg(1)); got != 0 {
		t.Errorf("r1 = %d, want 0", got)
	}
}

func TestMachineInitSegment(t *testing.T) {
	p := &Program{
		Name: "init",
		Code: []Inst{
			{Op: OpLd, Rd: 1, Rs1: ZeroReg, Imm: 16},
			{Op: OpHalt},
		},
		DataSize: 64,
		Init:     []uint64{11, 22, 33},
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	if got := m.Reg(IntReg(1)); got != 33 {
		t.Errorf("loaded %d, want 33", got)
	}
}

func TestMachineRunOffEndHalts(t *testing.T) {
	p := &Program{Name: "off-end", Code: []Inst{{Op: OpNop}}, DataSize: 8}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Run(10); n != 1 {
		t.Errorf("retired %d, want 1", n)
	}
	if !m.Halted() {
		t.Error("machine should halt after running off the end")
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	tests := []struct {
		name string
		p    Program
	}{
		{"empty", Program{}},
		{"branch target out of range", Program{Code: []Inst{{Op: OpJmp, Imm: 5}}}},
		{"negative branch target", Program{Code: []Inst{{Op: OpBeq, Imm: -1}, {Op: OpHalt}}}},
		{"bad opcode", Program{Code: []Inst{{Op: Op(200)}}}},
		{"bad register", Program{Code: []Inst{{Op: OpAdd, Rd: 99}}}},
		{"negative data size", Program{Code: []Inst{{Op: OpHalt}}, DataSize: -1}},
		// A partial last word would let ClampAddr return an address whose
		// 8-byte access runs off the segment.
		{"data size not a word multiple", Program{Code: []Inst{{Op: OpLd, Rd: 1, Rs1: ZeroReg, Imm: 8}, {Op: OpHalt}}, DataSize: 12}},
		{"too many init words", Program{Code: []Inst{{Op: OpHalt}}, DataSize: 8, Init: []uint64{1, 2, 3}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestStoreSignatureOrderSensitive(t *testing.T) {
	mk := func(first, second uint64) uint64 {
		p := &Program{
			Name: "sig",
			Code: []Inst{
				{Op: OpAddi, Rd: 1, Rs1: ZeroReg, Imm: int64(first)},
				{Op: OpAddi, Rd: 2, Rs1: ZeroReg, Imm: int64(second)},
				{Op: OpSt, Rs1: ZeroReg, Rs2: 1, Imm: 0},
				{Op: OpSt, Rs1: ZeroReg, Rs2: 2, Imm: 8},
				{Op: OpHalt},
			},
			DataSize: 64,
		}
		m, err := NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(100)
		return m.StoreSignature()
	}
	if mk(1, 2) == mk(2, 1) {
		t.Error("store signature should distinguish store order/values")
	}
}

// The emulator is deterministic: running the same program twice produces the
// same retired count, final PC, registers and store signature.
func TestQuickEmulatorDeterminism(t *testing.T) {
	f := func(n uint8) bool {
		run := func() (uint64, int, uint64) {
			m, err := NewMachine(sumProgram(int64(n % 50)))
			if err != nil {
				t.Fatal(err)
			}
			m.Run(1 << 20)
			return m.Reg(IntReg(3)), m.Retired(), m.StoreSignature()
		}
		a1, b1, c1 := run()
		a2, b2, c2 := run()
		want := uint64(n%50) * (uint64(n%50) + 1) / 2
		return a1 == a2 && b1 == b2 && c1 == c2 && a1 == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStoreHookObservesStores(t *testing.T) {
	m, err := NewMachine(sumProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	var seen []Store
	m.StoreHook = func(s Store) { seen = append(seen, s) }
	m.Run(1000)
	if len(seen) != 1 || seen[0] != (Store{Addr: 0, Value: 6}) {
		t.Errorf("hook saw %v, want [{0 6}]", seen)
	}
}
