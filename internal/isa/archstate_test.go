package isa

import (
	"testing"
)

// TestRunStopsExactlyAtBudget pins the Run contract at its boundary: the
// machine retires exactly maxInstrs and not one more, and a second call
// continues from there.
func TestRunStopsExactlyAtBudget(t *testing.T) {
	m, err := NewMachine(sumProgram(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Run(7); got != 7 {
		t.Fatalf("Run(7) retired %d, want 7", got)
	}
	if m.Retired() != 7 {
		t.Fatalf("Retired() = %d, want 7", m.Retired())
	}
	if m.Halted() {
		t.Fatal("machine halted inside a loop")
	}
	if got := m.Run(0); got != 0 {
		t.Fatalf("Run(0) retired %d, want 0", got)
	}
	if got := m.Run(3); got != 3 {
		t.Fatalf("second Run(3) retired %d, want 3", got)
	}
	if m.Retired() != 10 {
		t.Fatalf("Retired() = %d after 7+0+3, want 10", m.Retired())
	}
}

// TestRunHaltMidBudget: a halt inside the budget stops the run short and
// reports the true retired count (the halt instruction itself retires).
func TestRunHaltMidBudget(t *testing.T) {
	m, err := NewMachine(sumProgram(2)) // halts after 13 instructions
	if err != nil {
		t.Fatal(err)
	}
	got := m.Run(1 << 20)
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	total := m.Retired()
	if got != total {
		t.Fatalf("Run returned %d, Retired() = %d", got, total)
	}
	// Re-running a halted machine is a no-op.
	if again := m.Run(100); again != 0 {
		t.Fatalf("Run after halt retired %d, want 0", again)
	}
	if m.Retired() != total {
		t.Fatalf("Retired() moved after halt: %d -> %d", total, m.Retired())
	}
}

// TestClampAddrEdges pins the address mapping at the memory edges: alignment
// masks the low 3 bits, wrapping keeps every access inside the segment, and
// the last aligned word is reachable.
func TestClampAddrEdges(t *testing.T) {
	cases := []struct {
		addr uint64
		size int
		want uint64
	}{
		{0, 64, 0},
		{7, 64, 0},           // aligns down to 0
		{8, 64, 8},           // exact word
		{63, 64, 56},         // last byte aligns to last word
		{64, 64, 0},          // one past the end wraps
		{71, 64, 0},          // aligns to 64, wraps to 0
		{120, 64, 56},        // aligned, wraps to last word
		{^uint64(0), 64, 56}, // max address: aligns to ...f8 = -8, wraps to 56
		{^uint64(0), 8, 0},   // minimum segment
		{9, 8, 0},            // everything lands on word 0
	}
	for _, c := range cases {
		if got := ClampAddr(c.addr, c.size); got != c.want {
			t.Errorf("ClampAddr(%#x, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

// TestArchStateRoundTrip: capture, run ahead, restore, run again — the replay
// must reproduce the store signature, count, PC and registers exactly.
func TestArchStateRoundTrip(t *testing.T) {
	p := sumProgram(50)
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(25)
	snap := m.CaptureArch()

	m.Run(1 << 20)
	wantSig, wantStores := m.StoreSignature(), m.Stores()
	wantPC, wantRetired := m.PC(), m.Retired()
	wantR3 := m.Reg(IntReg(3))

	m.RestoreArch(snap)
	if m.Retired() != 25 || m.StoreSignature() != snap.Sig {
		t.Fatalf("restore: retired=%d sig=%#x, want 25/%#x", m.Retired(), m.StoreSignature(), snap.Sig)
	}
	m.Run(1 << 20)
	if m.StoreSignature() != wantSig || m.Stores() != wantStores {
		t.Errorf("replay signature %#x/%d, want %#x/%d", m.StoreSignature(), m.Stores(), wantSig, wantStores)
	}
	if m.PC() != wantPC || m.Retired() != wantRetired {
		t.Errorf("replay pc=%d retired=%d, want %d/%d", m.PC(), m.Retired(), wantPC, wantRetired)
	}
	if got := m.Reg(IntReg(3)); got != wantR3 {
		t.Errorf("replay r3=%d, want %d", got, wantR3)
	}
}

// TestArchStateSnapshotIsolation: a captured snapshot must not alias live
// machine memory.
func TestArchStateSnapshotIsolation(t *testing.T) {
	m, err := NewMachine(sumProgram(50))
	if err != nil {
		t.Fatal(err)
	}
	m.Run(10)
	snap := m.CaptureArch()
	memBefore := make([]uint64, snap.Mem.Size()/8)
	for i := range memBefore {
		memBefore[i] = snap.Mem.Load(uint64(8 * i))
	}
	m.Run(1 << 20) // stores into memory
	for i, w := range memBefore {
		if got := snap.Mem.Load(uint64(8 * i)); got != w {
			t.Fatalf("snapshot memory mutated at word %d: %#x, want %#x", i, got, w)
		}
	}
}

// TestResetToReusesSlab: resetting to the same program keeps the memory
// pages for reuse and restores pristine initial state.
func TestResetToReusesSlab(t *testing.T) {
	p := &Program{
		Name:     "init",
		Code:     []Inst{{Op: OpLd, Rd: 1, Rs1: ZeroReg, Imm: 0}, {Op: OpSt, Rs1: ZeroReg, Rs2: 1, Imm: 8}, {Op: OpHalt}},
		DataSize: 64,
		Init:     []uint64{0xABCD},
	}
	m, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(100)
	if err := m.ResetTo(p); err != nil {
		t.Fatal(err)
	}
	if m.Retired() != 0 || m.Stores() != 0 || m.StoreSignature() != 0 || m.PC() != 0 || m.Halted() {
		t.Fatalf("ResetTo left state behind: retired=%d stores=%d pc=%d", m.Retired(), m.Stores(), m.PC())
	}
	if got := m.ReadMem(0); got != 0xABCD {
		t.Fatalf("init word after reset = %#x, want 0xABCD", got)
	}
	if got := m.ReadMem(8); got != 0 {
		t.Fatalf("data word 1 not re-zeroed: %#x", got)
	}
	if got := m.Reg(IntReg(1)); got != 0 {
		t.Fatalf("r1 not re-zeroed: %#x", got)
	}
}

// TestAcquireReleaseMachine: a pooled machine behaves exactly like a fresh
// one.
func TestAcquireReleaseMachine(t *testing.T) {
	p := sumProgram(10)
	ref, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(1 << 20)

	for i := 0; i < 3; i++ {
		m, err := AcquireMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1 << 20)
		if m.StoreSignature() != ref.StoreSignature() || m.Retired() != ref.Retired() {
			t.Fatalf("pooled run %d diverged: sig %#x vs %#x", i, m.StoreSignature(), ref.StoreSignature())
		}
		ReleaseMachine(m)
	}
}

// TestTrajectoryMemoizedRewind: arbitrary-order queries against the
// trajectory agree with fresh machines run to the same point, including
// queries past the halt.
func TestTrajectoryMemoizedRewind(t *testing.T) {
	p := sumProgram(100)
	ref, err := NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.Run(1 << 20)

	tr := NewTrajectory(p)
	for _, k := range []uint64{200, 50, 125, 50, 0, uint64(total) + 500, 125} {
		a, err := tr.At(k)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Run(int(k))
		if a.Sig != fresh.StoreSignature() || a.Stores != uint64(fresh.Stores()) {
			t.Errorf("At(%d): sig/stores %#x/%d, want %#x/%d", k, a.Sig, a.Stores, fresh.StoreSignature(), fresh.Stores())
		}
		if a.PC != fresh.PC() || a.Halted != fresh.Halted() {
			t.Errorf("At(%d): pc=%d halted=%v, want %d/%v", k, a.PC, a.Halted, fresh.PC(), fresh.Halted())
		}
		for r := Reg(0); r < NumArchRegs; r++ {
			if a.Reg(r) != fresh.Reg(r) {
				t.Fatalf("At(%d): reg %d = %#x, want %#x", k, r, a.Reg(r), fresh.Reg(r))
			}
		}
	}
}
