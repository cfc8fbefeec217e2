package fault

import (
	"errors"
	"strings"
	"testing"

	"blackjack/internal/isa"
)

func TestKindStringsAndParse(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d unnamed", k)
		}
		got, err := ParseKind(name)
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseKind("flaky"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

// TestValidateInvalidCombos exercises every contradictory field combination
// Validate rejects, and checks the error is the typed *SiteError.
func TestValidateInvalidCombos(t *testing.T) {
	be := func(s Site) Site {
		s.Class = BackendWay
		s.Unit = isa.UnitIntALU
		return s
	}
	cases := []struct {
		name string
		site Site
	}{
		{"unknown class", Site{Class: NumClasses}},
		{"unknown kind", Site{Kind: NumKinds}},
		{"unknown decode field", Site{Class: FrontendWay, Field: NumDecodeFields}},
		{"transient flag contradicts kind", Site{Kind: KindIntermittent, Transient: true, DutyPeriod: 4, DutyOn: 2}},
		{"transient plus armat", be(Site{Transient: true, ArmAt: 5})},
		{"fireat without transient", Site{Class: RegisterFile, FireAt: 3}},
		{"intermittent without period", Site{Class: RegisterFile, Kind: KindIntermittent, DutyOn: 1}},
		{"intermittent zero on-window", Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: 4}},
		{"on-window exceeds period", Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: 4, DutyOn: 5}},
		{"intermittent plus armat", Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: 4, DutyOn: 2, ArmAt: 9}},
		{"duty fields on permanent", Site{Class: RegisterFile, DutyPeriod: 4}},
		{"duty prob on permanent", Site{Class: RegisterFile, DutyProb: 50}},
		{"prob over 100", Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: 4, DutyOn: 2, DutyProb: 101}},
		{"stuck value without mask", Site{Class: RegisterFile, StuckValue: 0xF0}},
		{"stuck value outside mask", Site{Class: RegisterFile, StuckMask: 0x0F, StuckValue: 0xF0}},
		{"flipbranch on frontend", Site{Class: FrontendWay, FlipBranch: true}},
		{"corruptaddr on regfile", Site{Class: RegisterFile, CorruptAddr: true}},
		{"flipbranch plus corruptaddr", be(Site{FlipBranch: true, CorruptAddr: true})},
		{"multi-bit single-bit mask", be(Site{Kind: KindMultiBit, BitMask: 1 << 4})},
		{"multi-bit decode field", Site{Class: FrontendWay, Kind: KindMultiBit, Field: FieldRs2, BitMask: 0x3C}},
		{"multi-bit flipbranch", be(Site{Kind: KindMultiBit, BitMask: 0x3C, FlipBranch: true})},
		{"control-flow on frontend", Site{Class: FrontendWay, Kind: KindControlFlow}},
		{"control-flow corruptaddr", be(Site{Kind: KindControlFlow, CorruptAddr: true})},
		{"control-flow stuck mask", be(Site{Kind: KindControlFlow, StuckMask: 3, StuckValue: 1})},
	}
	for _, tc := range cases {
		err := tc.site.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.site)
			continue
		}
		var se *SiteError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v is not a *SiteError", tc.name, err)
		}
	}
}

func TestValidateAcceptsCanonicalSites(t *testing.T) {
	valid := []Site{
		{Class: FrontendWay, Way: 1, Field: FieldRs2},
		{Class: BackendWay, Unit: isa.UnitIntALU, BitMask: 1 << 9, ArmAt: 500},
		{Class: BackendWay, Unit: isa.UnitMem, CorruptAddr: true, BitMask: 1},
		{Class: RegisterFile, Reg: 40, Transient: true, FireAt: 3},
		{Class: RegisterFile, Reg: 40, Kind: KindTransient, FireAt: 3},
		{Class: PayloadRAM, Slot: 2, Kind: KindIntermittent, Field: FieldImm, DutyPeriod: 8, DutyOn: 4, DutyProb: 75},
		{Class: BackendWay, Unit: isa.UnitIntALU, Kind: KindMultiBit, StuckMask: 0xFF00, StuckValue: 0xA500},
		{Class: FrontendWay, Kind: KindMultiBit, Field: FieldImm, BitMask: 0x3C},
		{Class: BackendWay, Unit: isa.UnitIntALU, Kind: KindControlFlow, BitMask: 1},
		{Class: BackendWay, Unit: isa.UnitIntALU, Kind: KindControlFlow, FlipBranch: true},
	}
	if err := ValidateSites(valid); err != nil {
		t.Fatalf("canonical sites rejected: %v", err)
	}
}

// TestDutyCycleWindowMath is the table-driven edge suite for the intermittent
// on/off window: period 1, exact window boundaries, and full-period windows.
func TestDutyCycleWindowMath(t *testing.T) {
	cases := []struct {
		name       string
		period, on uint64
		use        uint64
		want       bool
	}{
		{"period 1 always on", 1, 1, 1, true},
		{"period 1 deep use", 1, 1, 1_000_000, true},
		{"first use in window", 8, 4, 1, true},
		{"last use of window", 8, 4, 4, true},
		{"first use past window", 8, 4, 5, false},
		{"last use of period", 8, 4, 8, false},
		{"second period restarts", 8, 4, 9, true},
		{"second period closes", 8, 4, 13, false},
		{"window equals period", 8, 8, 8, true},
		{"single-use window", 1000, 1, 1001, true},
		{"single-use window off", 1000, 1, 1002, false},
	}
	for _, tc := range cases {
		s := Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: tc.period, DutyOn: tc.on}
		if got := s.firesAt(tc.use); got != tc.want {
			t.Errorf("%s: firesAt(%d) = %v, want %v", tc.name, tc.use, got, tc.want)
		}
	}
}

// TestDutyProbDeterministicAndThinning: the probability draw is a pure
// function of site identity and use index, and actually thins the window.
func TestDutyProbDeterministicAndThinning(t *testing.T) {
	s := Site{Class: RegisterFile, Reg: 7, Kind: KindIntermittent, DutyPeriod: 1, DutyOn: 1, DutyProb: 50}
	fired := 0
	const n = 10_000
	for use := uint64(1); use <= n; use++ {
		a := s.firesAt(use)
		if b := s.firesAt(use); a != b {
			t.Fatalf("use %d: draw not deterministic", use)
		}
		if a {
			fired++
		}
	}
	if fired < n*4/10 || fired > n*6/10 {
		t.Errorf("prob 50%%: fired %d of %d uses", fired, n)
	}
	// A different site identity draws a different pattern.
	other := s
	other.Reg = 8
	same := 0
	for use := uint64(1); use <= 1000; use++ {
		if s.firesAt(use) == other.firesAt(use) {
			same++
		}
	}
	if same == 1000 {
		t.Error("two distinct sites drew identical activation patterns")
	}
}

// TestIntermittentSeedUsesContinuation: an injector seeded with a mid-window
// use count (the checkpoint-fork handoff) continues the duty cycle exactly
// where the cold injector left off — the window-spanning-checkpoint edge.
func TestIntermittentSeedUsesContinuation(t *testing.T) {
	site := Site{Class: RegisterFile, Reg: 3, BitMask: 4, Kind: KindIntermittent, DutyPeriod: 8, DutyOn: 4, DutyProb: 60}
	const total, seedAt = 64, 6 // 6 is inside the first on-window

	cold := &Injector{Sites: []Site{site}}
	var coldPattern []bool
	for use := 1; use <= total; use++ {
		coldPattern = append(coldPattern, cold.CorruptRegRead(3, 100) != 100)
	}

	warm := &Injector{Sites: []Site{site}}
	warm.SeedUses([]uint64{seedAt})
	for use := seedAt + 1; use <= total; use++ {
		got := warm.CorruptRegRead(3, 100) != 100
		if got != coldPattern[use-1] {
			t.Fatalf("use %d: seeded injector fired=%v, cold fired=%v", use, got, coldPattern[use-1])
		}
	}
}

// TestAllBitsMasks: a flip mask of all 64 bits always corrupts; a stuck-at of
// all bits corrupts only values that differ, and a matching value is not an
// activation (the record-on-change contract).
func TestAllBitsMasks(t *testing.T) {
	all := ^uint64(0)
	flip := &Injector{Sites: []Site{{Class: RegisterFile, Reg: 1, Kind: KindMultiBit, BitMask: all}}}
	if got := flip.CorruptRegRead(1, 0xAA); got != ^uint64(0xAA) {
		t.Errorf("all-bits flip = %#x", got)
	}
	if flip.Activations() != 1 {
		t.Errorf("flip activations = %d", flip.Activations())
	}

	stuck := &Injector{Sites: []Site{{Class: RegisterFile, Reg: 1, Kind: KindMultiBit, StuckMask: all, StuckValue: 0x1234}}}
	if got := stuck.CorruptRegRead(1, 0x1234); got != 0x1234 {
		t.Errorf("stuck-at of matching value changed it: %#x", got)
	}
	if stuck.Activations() != 0 {
		t.Error("stuck-at counted a no-op as an activation")
	}
	if got := stuck.CorruptRegRead(1, 99); got != 0x1234 {
		t.Errorf("stuck-at = %#x, want 0x1234", got)
	}
	if stuck.Activations() != 1 {
		t.Errorf("stuck activations = %d, want 1", stuck.Activations())
	}
}

func TestStuckAtResultAndProbeMirror(t *testing.T) {
	site := Site{Class: BackendWay, Unit: isa.UnitIntALU, Way: 1, Kind: KindMultiBit, StuckMask: 0xFF, StuckValue: 0xA5}
	in := isa.Inst{Op: isa.OpAdd}

	inj := &Injector{Sites: []Site{site}}
	if got := inj.CorruptResult(isa.UnitIntALU, 1, in, 0x12A5); got != 0x12A5 {
		t.Errorf("matching low byte changed: %#x", got)
	}
	if inj.Activations() != 0 {
		t.Error("no-op stuck-at activated")
	}
	if got := inj.CorruptResult(isa.UnitIntALU, 1, in, 0x1200); got != 0x12A5 {
		t.Errorf("stuck result = %#x, want 0x12A5", got)
	}

	// The probe must agree: its first recorded fire is the value-changing use.
	now := int64(0)
	pr := &Probe{Sites: []Site{site}, Now: func() int64 { return now }}
	now = 1
	pr.CorruptResult(isa.UnitIntALU, 1, in, 0x12A5) // no-op: not a fire
	now = 2
	pr.CorruptResult(isa.UnitIntALU, 1, in, 0x1200)
	if fc := pr.FireCycle(0); fc != 2 {
		t.Errorf("probe fire cycle = %d, want 2 (the value-changing use)", fc)
	}
}

func TestCorruptBranchTarget(t *testing.T) {
	inj := &Injector{Sites: []Site{{
		Class: BackendWay, Unit: isa.UnitIntALU, Way: 2, Kind: KindControlFlow, BitMask: 2,
	}}}
	if got := inj.CorruptBranchTarget(isa.UnitIntALU, 2, 40); got != 42 {
		t.Errorf("target = %d, want 42", got)
	}
	if got := inj.CorruptBranchTarget(isa.UnitIntALU, 1, 40); got != 40 {
		t.Error("healthy way target corrupted")
	}
	if got := inj.CorruptBranchTarget(isa.UnitFPALU, 2, 40); got != 40 {
		t.Error("other unit target corrupted")
	}
	if inj.Activations() != 1 {
		t.Errorf("activations = %d, want 1", inj.Activations())
	}
	// A value site must not fire on the target path, and a target site must
	// not fire on the value path.
	val := &Injector{Sites: []Site{{Class: BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 4}}}
	if got := val.CorruptBranchTarget(isa.UnitIntALU, 0, 40); got != 40 {
		t.Error("value site corrupted a branch target")
	}
	cfe := &Injector{Sites: []Site{{Class: BackendWay, Unit: isa.UnitIntALU, Way: 0, Kind: KindControlFlow, BitMask: 4}}}
	if got := cfe.CorruptResult(isa.UnitIntALU, 0, isa.Inst{Op: isa.OpAdd}, 40); got != 40 {
		t.Error("control-flow site corrupted a data value")
	}
}

// TestProbeMirrorsIntermittentInjector: the probe's use counting and firing
// pattern for an intermittent site match the injector's exactly (the
// SeedUses contract depends on it).
func TestProbeMirrorsIntermittentInjector(t *testing.T) {
	site := Site{Class: RegisterFile, Reg: 9, BitMask: 1, Kind: KindIntermittent, DutyPeriod: 5, DutyOn: 2, DutyProb: 70}
	inj := &Injector{Sites: []Site{site}}
	now := int64(0)
	pr := &Probe{Sites: []Site{site}, Now: func() int64 { return now }}

	firstInjFire := int64(-1)
	for now = 1; now <= 40; now++ {
		injFired := inj.CorruptRegRead(9, 100) != 100
		pr.CorruptRegRead(9, 100)
		if injFired && firstInjFire < 0 {
			firstInjFire = now
		}
	}
	if fc := pr.FireCycle(0); fc != firstInjFire {
		t.Errorf("probe first fire = %d, injector first fire = %d", fc, firstInjFire)
	}
	if uses := pr.UsesSnapshot(); uses[0] != 40 {
		t.Errorf("probe uses = %d, want 40", uses[0])
	}
}

// TestValidateEdgeCases pins the exact rejection reason for the degenerate
// shapes that sit right at a rule's boundary: fully-zero duty cycles, a
// multi-bit site with no mask of either flavor, and control-flow sites on
// execution units that never see a branch.
func TestValidateEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		site   Site
		reason string
	}{
		{"zero-duty intermittent",
			Site{Class: RegisterFile, Kind: KindIntermittent},
			"DutyPeriod >= 1"},
		{"zero on-window with period",
			Site{Class: RegisterFile, Kind: KindIntermittent, DutyPeriod: 1},
			"DutyOn must be in [1, DutyPeriod]"},
		{"zero-duty with probability only",
			Site{Class: RegisterFile, Kind: KindIntermittent, DutyProb: 50},
			"DutyPeriod >= 1"},
		{"multi-bit with no mask at all",
			Site{Class: BackendWay, Unit: isa.UnitIntALU, Kind: KindMultiBit},
			"at least two bits"},
		{"multi-bit with empty flip mask and empty stuck mask",
			Site{Class: BackendWay, Unit: isa.UnitIntALU, Kind: KindMultiBit, BitMask: 0, StuckMask: 0},
			"at least two bits"},
		{"control-flow on fp multiplier",
			Site{Class: BackendWay, Unit: isa.UnitFPMul, Kind: KindControlFlow, BitMask: 1},
			"branch-capable"},
		{"control-flow on memory unit",
			Site{Class: BackendWay, Unit: isa.UnitMem, Kind: KindControlFlow, FlipBranch: true},
			"branch-capable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.site.Validate()
			var se *SiteError
			if !errors.As(err, &se) {
				t.Fatalf("Validate = %v, want *SiteError", err)
			}
			if !strings.Contains(se.Reason, tc.reason) {
				t.Errorf("reason %q does not mention %q", se.Reason, tc.reason)
			}
		})
	}
}

// Spent holds only once every site is a one-shot transient past its shot
// use; the kinds that can fire again never run out.
func TestInjectorSpent(t *testing.T) {
	alu := Site{Class: BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1}
	shot := alu
	shot.Transient, shot.FireAt = true, 3
	use := func(inj *Injector, n int) {
		for i := 0; i < n; i++ {
			inj.CorruptResult(isa.UnitIntALU, 0, isa.Inst{Op: isa.OpAdd}, 0)
		}
	}

	inj := &Injector{Sites: []Site{shot}}
	use(inj, 2)
	if inj.Spent() {
		t.Fatal("transient spent before its shot")
	}
	use(inj, 1)
	if !inj.Spent() || inj.Activations() != 1 {
		t.Fatalf("after the shot: spent=%v activations=%d", inj.Spent(), inj.Activations())
	}

	seeded := &Injector{Sites: []Site{shot, shot}}
	seeded.SeedUses([]uint64{5, 2})
	if seeded.Spent() {
		t.Fatal("a site short of its shot left the injector spent")
	}
	seeded.SeedUses([]uint64{5, 3})
	if !seeded.Spent() {
		t.Fatal("two transients past their shots are not spent")
	}

	armed, duty, cfe := alu, alu, alu
	armed.ArmAt = 2
	duty.Kind, duty.DutyPeriod, duty.DutyOn = KindIntermittent, 4, 1
	cfe.Kind, cfe.Transient = KindControlFlow, true
	for _, s := range []Site{alu, armed, duty, cfe} {
		inj := &Injector{Sites: []Site{shot, s}}
		inj.SeedUses([]uint64{1 << 20, 1 << 20})
		if inj.Spent() {
			t.Errorf("site %v (kind %v) counted as spent", s, s.EffectiveKind())
		}
	}
}
