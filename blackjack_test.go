package blackjack

import (
	"testing"

	"blackjack/internal/isa"
)

func TestPublicRunAPI(t *testing.T) {
	res, err := Run(DefaultConfig(ModeBlackJack, 3000), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputMatches {
		t.Error("output mismatch")
	}
	if res.Stats.Coverage() < 0.8 {
		t.Errorf("coverage = %.3f", res.Stats.Coverage())
	}
}

func TestPublicBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 16 {
		t.Fatalf("benchmarks = %d", len(bs))
	}
	if bs[0] != "equake" || bs[15] != "sixtrack" {
		t.Error("Figure 7 ordering lost")
	}
	if _, err := BenchmarkProfile("gcc"); err != nil {
		t.Error(err)
	}
	if _, err := BenchmarkProgram("gcc"); err != nil {
		t.Error(err)
	}
}

func TestPublicCustomWorkload(t *testing.T) {
	p, err := GenerateWorkload(WorkloadProfile{
		Name: "custom", Seed: 1, LoadFrac: 0.2, StoreFrac: 0.1,
		ChainFrac: 0.2, Streams: 4, WorkingSetKB: 32, Stride: 136,
		BranchEvery: 8, SkipMax: 2, BlockOps: 16, Blocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(DefaultConfig(ModeSRT, 2000), p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutputMatches {
		t.Error("custom workload output mismatch")
	}
}

func TestPublicBuilderAPI(t *testing.T) {
	b := NewBuilder("tiny")
	b.Data(64)
	b.Li(1, 7)
	b.St(0, 1, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunProgram(DefaultConfig(ModeBlackJack, 100), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReleasedStores != 1 {
		t.Errorf("stores = %d", res.Stats.ReleasedStores)
	}
}

func TestPublicFaultAPI(t *testing.T) {
	site := FaultSite{Class: FaultBackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 7}
	r, err := Inject(DefaultConfig(ModeBlackJack, 3000), "vortex", site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations > 0 && r.Outcome != OutcomeDetected {
		t.Errorf("outcome = %v", r.Outcome)
	}
	if len(StandardFaultSites(DefaultMachineConfig())) == 0 {
		t.Error("no standard sites")
	}
}

func TestPublicModeParsing(t *testing.T) {
	m, err := ParseMode("blackjack-ns")
	if err != nil || m != ModeBlackJackNS {
		t.Errorf("ParseMode = %v, %v", m, err)
	}
}

func TestPublicRunAllModes(t *testing.T) {
	rs, err := RunAllModes(DefaultConfig(ModeSingle, 2500), "eon")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("modes = %d", len(rs))
	}
	single := rs[ModeSingle]
	if perf := rs[ModeBlackJack].NormalizedPerf(single); perf <= 0 || perf > 1.001 {
		t.Errorf("normalized perf = %.3f", perf)
	}
	if slow := rs[ModeSRT].Slowdown(single); slow < 1 {
		t.Errorf("slowdown = %.3f", slow)
	}
}

func TestPublicCampaign(t *testing.T) {
	sites := StandardFaultSites(DefaultMachineConfig())[:4]
	sum, err := Campaign(DefaultConfig(ModeBlackJack, 2000), "gcc", sites, InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Results) != 4 {
		t.Errorf("results = %d", len(sum.Results))
	}
	for _, r := range sum.Results {
		if r.Activations > 0 && r.Outcome == OutcomeSilent {
			t.Errorf("site %v silent under blackjack", r.Site)
		}
	}
}

func TestPublicExperimentSuite(t *testing.T) {
	opts := DefaultExperimentOptions()
	opts.MaxInstructions = 2500
	opts.Benchmarks = []string{"gzip"}
	s, err := RunExperimentSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Figure7Table().NumRows() != 2 {
		t.Error("suite figure incomplete")
	}
	h := s.Headline()
	if h.BJCoverage < 0.8 {
		t.Errorf("headline coverage %.3f", h.BJCoverage)
	}
}

func TestPublicInjectProgram(t *testing.T) {
	p, err := BenchmarkProgram("vortex")
	if err != nil {
		t.Fatal(err)
	}
	site := FaultSite{Class: FaultRegisterFile, Reg: 200, BitMask: 1 << 4}
	r, err := InjectProgram(DefaultConfig(ModeBlackJack, 2500), p, site, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Activations > 0 && r.Outcome == OutcomeSilent {
		t.Error("register fault silent under blackjack")
	}
}
