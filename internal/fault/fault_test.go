package fault

import (
	"strings"
	"testing"

	"blackjack/internal/isa"
)

func TestClassAndSiteStrings(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "class(") {
			t.Errorf("class %d unnamed", c)
		}
	}
	sites := []Site{
		{Class: FrontendWay, Way: 2},
		{Class: BackendWay, Unit: isa.UnitFPALU, Way: 1},
		{Class: BackendWay, Unit: isa.UnitMem, Way: 0, CorruptAddr: true},
		{Class: BackendWay, Unit: isa.UnitIntALU, Way: 3, FlipBranch: true},
		{Class: PayloadRAM, Slot: 7, Thread: 1},
		{Class: RegisterFile, Reg: 42},
	}
	for _, s := range sites {
		if s.String() == "unknown fault site" {
			t.Errorf("site %+v unnamed", s)
		}
	}
}

func TestBackendResultCorruption(t *testing.T) {
	inj := &Injector{Sites: []Site{{Class: BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 0x10}}}
	in := isa.Inst{Op: isa.OpAdd}
	if got := inj.CorruptResult(isa.UnitIntALU, 1, in, 100); got != 100^0x10 {
		t.Errorf("faulty way result = %d, want %d", got, 100^0x10)
	}
	if got := inj.CorruptResult(isa.UnitIntALU, 0, in, 100); got != 100 {
		t.Errorf("healthy way corrupted: %d", got)
	}
	if got := inj.CorruptResult(isa.UnitFPALU, 1, in, 100); got != 100 {
		t.Errorf("other unit corrupted: %d", got)
	}
	if inj.Activations() != 1 {
		t.Errorf("activations = %d, want 1", inj.Activations())
	}
}

func TestConditionGatedFault(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: BackendWay, Unit: isa.UnitIntALU, Way: 0,
		TriggerMask: 0xFF, TriggerValue: 0xAB,
	}}}
	in := isa.Inst{Op: isa.OpAdd}
	if got := inj.CorruptResult(isa.UnitIntALU, 0, in, 0x12AB); got == 0x12AB {
		t.Error("trigger pattern did not fire")
	}
	if got := inj.CorruptResult(isa.UnitIntALU, 0, in, 0x12AC); got != 0x12AC {
		t.Error("fault fired without trigger pattern")
	}
}

func TestDecodeCorruptionFields(t *testing.T) {
	base := isa.Inst{Op: isa.OpAdd, Rd: 4, Rs1: 6, Rs2: 8, Imm: 0}
	tests := []struct {
		field DecodeField
		check func(isa.Inst) bool
	}{
		{FieldRs1, func(i isa.Inst) bool { return i.Rs1 == 7 && i.Rs2 == 8 && i.Rd == 4 }},
		{FieldRs2, func(i isa.Inst) bool { return i.Rs2 == 9 }},
		{FieldRd, func(i isa.Inst) bool { return i.Rd == 5 }},
		{FieldImm, func(i isa.Inst) bool { return i.Imm == 1 }},
		{FieldOp, func(i isa.Inst) bool { return i.Op != isa.OpAdd && int(i.Op) < isa.NumOps }},
	}
	for _, tt := range tests {
		inj := &Injector{Sites: []Site{{Class: FrontendWay, Way: 2, Field: tt.field}}}
		got := inj.CorruptDecode(2, base)
		if !tt.check(got) {
			t.Errorf("field %d: corrupted to %+v", tt.field, got)
		}
		if same := inj.CorruptDecode(1, base); same != base {
			t.Errorf("field %d: healthy way corrupted", tt.field)
		}
	}
}

func TestDecodeCorruptionDeterministic(t *testing.T) {
	inj := &Injector{Sites: []Site{{Class: FrontendWay, Way: 0, Field: FieldRs2}}}
	in := isa.Inst{Op: isa.OpMul, Rd: 1, Rs1: 2, Rs2: 3}
	a := inj.CorruptDecode(0, in)
	b := inj.CorruptDecode(0, in)
	if a != b {
		t.Error("hard fault must corrupt identically on every use")
	}
}

func TestPayloadSharedVsSplit(t *testing.T) {
	site := Site{Class: PayloadRAM, Slot: 3, Thread: 0, Field: FieldImm, BitMask: 4}
	in := isa.Inst{Op: isa.OpAddi, Rd: 1, Rs1: 2, Imm: 0}

	shared := &Injector{Sites: []Site{site}}
	if got := shared.CorruptPayload(3, 1, in); got == in {
		t.Error("shared payload RAM must corrupt both threads")
	}
	if got := shared.CorruptPayload(2, 0, in); got != in {
		t.Error("other slot corrupted")
	}

	split := &Injector{Sites: []Site{site}, SplitPayload: true}
	if got := split.CorruptPayload(3, 1, in); got != in {
		t.Error("split payload RAM must not corrupt the other thread")
	}
	if got := split.CorruptPayload(3, 0, in); got == in {
		t.Error("split payload RAM must corrupt its own thread")
	}
}

func TestBranchAndAddrCorruption(t *testing.T) {
	inj := &Injector{Sites: []Site{
		{Class: BackendWay, Unit: isa.UnitIntALU, Way: 2, FlipBranch: true},
		{Class: BackendWay, Unit: isa.UnitMem, Way: 1, CorruptAddr: true, BitMask: 1},
	}}
	if !inj.CorruptBranch(isa.UnitIntALU, 2, false) {
		t.Error("branch direction not flipped")
	}
	if inj.CorruptBranch(isa.UnitIntALU, 1, false) {
		t.Error("healthy way branch flipped")
	}
	if got := inj.CorruptAddr(isa.UnitMem, 1, 64); got != 64^8 {
		t.Errorf("addr = %d, want %d", got, 64^8)
	}
	if got := inj.CorruptAddr(isa.UnitMem, 0, 64); got != 64 {
		t.Error("healthy port address corrupted")
	}
	// A value-corrupting site must not fire on the addr/branch paths.
	inj2 := &Injector{Sites: []Site{{Class: BackendWay, Unit: isa.UnitMem, Way: 0, BitMask: 2}}}
	if got := inj2.CorruptAddr(isa.UnitMem, 0, 64); got != 64 {
		t.Error("value site corrupted an address")
	}
}

func TestRegisterFileCorruption(t *testing.T) {
	inj := &Injector{Sites: []Site{{Class: RegisterFile, Reg: 9, BitMask: 1 << 40}}}
	if got := inj.CorruptRegRead(9, 5); got != 5^(1<<40) {
		t.Errorf("read = %d", got)
	}
	if got := inj.CorruptRegRead(10, 5); got != 5 {
		t.Error("healthy register corrupted")
	}
}

func TestZeroMaskDefaultsToBitZero(t *testing.T) {
	inj := &Injector{Sites: []Site{{Class: RegisterFile, Reg: 1}}}
	if got := inj.CorruptRegRead(1, 0); got != 1 {
		t.Errorf("zero mask: got %d, want 1", got)
	}
}

func TestTransientFiresExactlyOnce(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1, Transient: true,
	}}}
	in := isa.Inst{Op: isa.OpAdd}
	if got := inj.CorruptResult(isa.UnitIntALU, 0, in, 10); got != 11 {
		t.Errorf("first use = %d, want corrupted 11", got)
	}
	for i := 0; i < 5; i++ {
		if got := inj.CorruptResult(isa.UnitIntALU, 0, in, 10); got != 10 {
			t.Errorf("use %d corrupted after transient fired", i+2)
		}
	}
	if inj.Activations() != 1 {
		t.Errorf("activations = %d, want 1", inj.Activations())
	}
}

func TestTransientFireAtSelectsUse(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: RegisterFile, Reg: 3, BitMask: 4, Transient: true, FireAt: 3,
	}}}
	for i := 1; i <= 5; i++ {
		got := inj.CorruptRegRead(3, 100)
		want := uint64(100)
		if i == 3 {
			want = 96 // 100 XOR 4
		}
		if got != want {
			t.Errorf("use %d = %d, want %d", i, got, want)
		}
	}
}

func TestTransientDecodeOneShot(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: FrontendWay, Way: 1, Field: FieldRs2, Transient: true,
	}}}
	in := isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 4}
	if got := inj.CorruptDecode(1, in); got == in {
		t.Error("first decode not corrupted")
	}
	if got := inj.CorruptDecode(1, in); got != in {
		t.Error("second decode corrupted after transient fired")
	}
}

func TestArmAtDormantThenPersistent(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1, ArmAt: 3,
	}}}
	in := isa.Inst{Op: isa.OpAdd}
	for i := 1; i <= 6; i++ {
		got := inj.CorruptResult(isa.UnitIntALU, 0, in, 10)
		want := uint64(10)
		if i >= 3 {
			want = 11 // armed: corrupts this and every later use
		}
		if got != want {
			t.Errorf("use %d = %d, want %d", i, got, want)
		}
	}
	if inj.Activations() != 4 {
		t.Errorf("activations = %d, want 4", inj.Activations())
	}
}

func TestArmAtSeededUses(t *testing.T) {
	// A forked/fast-forwarded injector seeded with the pristine-use count is
	// already one use from arming: it must corrupt the very next eligible use.
	inj := &Injector{Sites: []Site{{Class: RegisterFile, Reg: 5, BitMask: 2, ArmAt: 100}}}
	inj.SeedUses([]uint64{99})
	if got := inj.CorruptRegRead(5, 8); got != 10 {
		t.Errorf("seeded use = %d, want armed 10", got)
	}
}

func TestProbeCountsArmAtFirstFire(t *testing.T) {
	sites := []Site{{Class: RegisterFile, Reg: 7, BitMask: 1, ArmAt: 4}}
	now := int64(0)
	pr := NewProbe(sites, false)
	pr.Now = func() int64 { return now }
	for now = 1; now <= 6; now++ {
		pr.CorruptRegRead(7, 42)
	}
	if fc := pr.FireCycle(0); fc != 4 {
		t.Errorf("probe fire cycle = %d, want 4 (the arming use)", fc)
	}
	if uses := pr.AppendUses(nil); uses[0] != 6 {
		t.Errorf("probe uses = %d, want 6", uses[0])
	}
	// And the probe never mutated the value stream.
	if got := pr.CorruptRegRead(7, 42); got != 42 {
		t.Errorf("probe mutated value: %d", got)
	}
}
