package sim

import (
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

const injBudget = 4000

// A backend-way fault on one of the four integer ALUs: BlackJack must detect
// it (trailing copies execute on a different way and disagree at a check).
func TestBlackJackDetectsBackendFault(t *testing.T) {
	site := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}
	r, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "gcc", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations == 0 {
		t.Fatal("fault never activated; campaign not exercising the way")
	}
	if r.Outcome != OutcomeDetected {
		t.Errorf("outcome = %v, want detected (first event %v)", r.Outcome, r.FirstEvent)
	}
}

// The same fault on the unprotected single-thread machine must corrupt
// silently — the failure mode the paper motivates with.
func TestSingleThreadFaultIsSilent(t *testing.T) {
	site := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}
	r, err := Inject(Default(pipeline.ModeSingle, injBudget), "gcc", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations == 0 {
		t.Fatal("fault never activated")
	}
	if r.Outcome != OutcomeSilent {
		t.Errorf("outcome = %v, want silent-corruption", r.Outcome)
	}
}

// A frontend-way decode fault: SRT's trailing thread decodes the same PC on
// the same way, suffering the identical corruption — the error escapes (or at
// best wedges); BlackJack's shuffled trailing thread decodes on a different
// way and detects it. This is the paper's headline contrast.
func TestFrontendFaultSRTEscapesBlackJackDetects(t *testing.T) {
	site := fault.Site{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs2}

	bj, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "vortex", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if bj.Activations == 0 {
		t.Fatal("fault never activated under blackjack")
	}
	if bj.Outcome != OutcomeDetected {
		t.Errorf("blackjack outcome = %v, want detected", bj.Outcome)
	}

	srt, err := Inject(Default(pipeline.ModeSRT, injBudget), "vortex", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if srt.Outcome == OutcomeDetected {
		t.Errorf("srt detected a same-frontend-way fault; spatial-diversity model broken (first event %v)", srt.FirstEvent)
	}
}

// A branch-direction fault in the leading thread makes it commit the wrong
// path; BlackJack's program-order check at trailing commit must fire.
func TestBranchFaultCaughtByPCOrderCheck(t *testing.T) {
	site := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 2, FlipBranch: true,
		TriggerMask: 0, TriggerValue: 0}
	r, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "bzip", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations == 0 {
		t.Skip("no branch landed on the faulty way in this window")
	}
	if r.Outcome != OutcomeDetected {
		t.Errorf("outcome = %v, want detected", r.Outcome)
	}
}

// Payload RAM faults (Section 4.5): with a shared payload RAM a fault CAN
// escape when both copies of an instruction land in the faulty slot — but
// usually the copies use different slots and the corruption is caught. With
// split per-thread payload RAMs the fault corrupts only one copy, so an
// activated fault must always be detected. The quantitative shared-vs-split
// comparison is experiment Ext-C.
func TestPayloadRAMSplitAlwaysDetects(t *testing.T) {
	for _, slot := range []int{0, 3, 9} {
		site := fault.Site{Class: fault.PayloadRAM, Slot: slot, Thread: 1, Field: fault.FieldImm, BitMask: 4}
		split, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "gzip", site, InjectOptions{SplitPayload: true})
		if err != nil {
			t.Fatal(err)
		}
		if split.Activations == 0 {
			continue
		}
		if split.Outcome != OutcomeDetected {
			t.Errorf("slot %d: split payload RAM outcome = %v, want detected", slot, split.Outcome)
		}
		// The shared variant must at least run to a classification without
		// error; whether it escapes depends on slot-collision luck.
		if _, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "gzip", site, InjectOptions{}); err != nil {
			t.Fatal(err)
		}
	}
}

// Condition-gated (state-dependent) faults must stay latent until the
// trigger pattern occurs.
func TestConditionGatedFaultLatency(t *testing.T) {
	never := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0,
		TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF}
	r, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "gcc", never, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations != 0 || r.Outcome != OutcomeBenign {
		t.Errorf("impossible trigger fired: %d activations, outcome %v", r.Activations, r.Outcome)
	}
}

func TestCampaignSummary(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2500)
	sites := []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 9},
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs1},
	}
	sum, err := Campaign(cfg, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != len(sites) {
		t.Fatalf("results = %d, want %d", len(sum.Results), len(sites))
	}
	total := 0
	for _, n := range sum.Counts {
		total += n
	}
	if total != len(sites) {
		t.Errorf("outcome counts sum to %d", total)
	}
	if sum.ActiveRuns > 0 && sum.DetectionRate() < 0.5 {
		t.Errorf("BlackJack campaign detection rate %.2f suspiciously low", sum.DetectionRate())
	}
}

// Detection latency must be measured from first activation to first event
// and be non-negative and plausibly small for an always-on fault.
func TestDetectionLatencyMeasured(t *testing.T) {
	site := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}
	r, err := Inject(Default(pipeline.ModeBlackJack, injBudget), "gcc", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Outcome != OutcomeDetected {
		t.Fatalf("outcome = %v", r.Outcome)
	}
	if r.DetectionLatency < 0 {
		t.Fatal("detection latency not measured")
	}
	if r.DetectionLatency > 5000 {
		t.Errorf("detection latency %d cycles implausibly long", r.DetectionLatency)
	}
}

// Multiple simultaneous uncorrelated faults must still be detected.
func TestMultiFaultDetected(t *testing.T) {
	sites := []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 10},
		{Class: fault.FrontendWay, Way: 2, Field: fault.FieldRs1},
	}
	p, err := prog.Benchmark("crafty")
	if err != nil {
		t.Fatal(err)
	}
	r, err := injectCold(Default(pipeline.ModeBlackJack, injBudget), p, sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations == 0 {
		t.Fatal("faults never activated")
	}
	if r.Outcome != OutcomeDetected {
		t.Errorf("outcome = %v, want detected", r.Outcome)
	}
}
