package diffcheck

import (
	"fmt"
	"sort"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/sim"
)

// corpusDir holds the committed seed corpus: minimized failure reproducers
// and generator-produced seeds in Go's native fuzz encoding. It feeds both
// fuzz targets and the plain-`go test` regression replay below.
const corpusDir = "testdata/corpus"

// fuzzBudget keeps per-input simulation cost bounded so the native fuzzing
// engine gets a healthy exec rate.
const fuzzBudget = 1200

func addSeeds(f *testing.F) {
	f.Helper()
	for i := 0; i < 6; i++ {
		p, _, err := GenerateProgram(42, i)
		if err != nil {
			f.Fatal(err)
		}
		if enc, err := EncodeProgram(p); err == nil {
			f.Add(enc)
		}
	}
	seeds, err := ReadCorpusDir(corpusDir)
	if err != nil {
		f.Fatal(err)
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(seeds[name])
	}
}

// FuzzPipelineVsOracle decodes arbitrary bytes into a valid program and
// differentially checks the pipeline against the golden model in every
// machine variant.
func FuzzPipelineVsOracle(f *testing.F) {
	addSeeds(f)
	cfg := pipeline.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeProgram(data)
		rep := CheckProgram(cfg, p, fuzzBudget)
		for _, d := range rep.Divergences {
			t.Errorf("%v", d)
		}
	})
}

// FuzzShuffleInvariants spends the whole budget on the two shuffling
// variants, maximizing safe-shuffle invariant checking throughput.
func FuzzShuffleInvariants(f *testing.F) {
	addSeeds(f)
	cfg := pipeline.DefaultConfig()
	variants := []Variant{
		{Name: "blackjack", Mode: pipeline.ModeBlackJack},
		{Name: "blackjack+merge", Mode: pipeline.ModeBlackJack, Merge: true},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeProgram(data)
		for _, v := range variants {
			for _, d := range RunVariant(cfg, v, p, fuzzBudget).Divergences {
				t.Errorf("%v", d)
			}
		}
	})
}

// intermittentFuzzCfg bounds one campaign run the way the checkpoint tests
// do: a deadlock backstop small enough that wedged outcomes classify fast,
// and a checkpoint interval that forces the sampled run's fallbacks onto
// the fork path for part of each program.
func intermittentFuzzCfg() sim.Config {
	// A tighter budget and backstop than the pipeline-vs-oracle targets: each
	// input pays for two whole campaigns (cold and sampled), and wedged
	// outcomes burn the full cycle backstop, so these bounds set the exec
	// rate. Equivalence is insensitive to where the window ends.
	cfg := sim.Default(pipeline.ModeBlackJack, 600)
	cfg.Machine.MaxCycles = 15_000
	cfg.CheckpointInterval = 200
	return cfg
}

// intermittentFuzzSites is a four-site duty-cycled campaign spanning the
// structure classes, with the window phases deliberately unaligned so fork
// points land inside both on- and off-phases.
func intermittentFuzzSites() []fault.Site {
	return []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9,
			Kind: fault.KindIntermittent, DutyPeriod: 16, DutyOn: 4, DutyProb: 75},
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2,
			Kind: fault.KindIntermittent, DutyPeriod: 8, DutyOn: 8},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, CorruptAddr: true, BitMask: 1,
			Kind: fault.KindIntermittent, DutyPeriod: 32, DutyOn: 1},
		{Class: fault.PayloadRAM, Slot: 0, Field: fault.FieldImm, BitMask: 2,
			Kind: fault.KindIntermittent, DutyPeriod: 8, DutyOn: 2, DutyProb: 50},
	}
}

// sampledMismatches runs the intermittent campaign on p twice, cold with
// full simulation and sampled (fast-forward, with the config's
// checkpoints), and describes every site whose outcome class or activated
// flag differ between the two.
func sampledMismatches(t *testing.T, p *isa.Program) []string {
	t.Helper()
	sites := intermittentFuzzSites()
	full := intermittentFuzzCfg()
	full.CheckpointInterval = 0
	cold, err := sim.CampaignProgram(full, p, sites, sim.InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := intermittentFuzzCfg()
	cfg.FastForward = true
	sampled, err := sim.CampaignProgram(cfg, p, sites, sim.InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for i, c := range cold.Results {
		s := sampled.Results[i]
		if c.Outcome != s.Outcome || (c.Activations > 0) != (s.Activations > 0) {
			out = append(out, fmt.Sprintf("site %d (%v): full %v/activated=%v, sampled %v/activated=%v",
				i, sites[i], c.Outcome, c.Activations > 0, s.Outcome, s.Activations > 0))
		}
	}
	return out
}

// FuzzIntermittentVsOracle decodes arbitrary bytes into a valid program and
// checks the sampled-equivalence property for duty-cycled faults on it: a
// checkpointed sampled campaign must classify every intermittent site — via
// its bit-exact fork/cold fallbacks — exactly as cold full simulation does,
// with the oracle-referenced outcome class and activated flag preserved.
func FuzzIntermittentVsOracle(f *testing.F) {
	addSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, m := range sampledMismatches(t, DecodeProgram(data)) {
			t.Error(m)
		}
	})
}

// TestIntermittentCorpusSeeds replays the committed seed corpus through the
// intermittent sampled-equivalence property in plain `go test`, so the
// duty-cycle fuzz target's seeds stay regression tests without -fuzz.
func TestIntermittentCorpusSeeds(t *testing.T) {
	seeds, err := ReadCorpusDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("empty seed corpus: expected committed seeds in testdata/corpus")
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range sampledMismatches(t, DecodeProgram(seeds[name])) {
			t.Errorf("%s: %s", name, m)
		}
	}
}

// TestCorpusSeeds replays the committed seed corpus in plain `go test` (no
// -fuzz flag needed), so every past minimized failure stays a regression
// test.
func TestCorpusSeeds(t *testing.T) {
	seeds, err := ReadCorpusDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) == 0 {
		t.Fatal("empty seed corpus: expected committed seeds in testdata/corpus")
	}
	cfg := pipeline.DefaultConfig()
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := DecodeProgram(seeds[name])
		rep := CheckProgram(cfg, p, 2000)
		for _, d := range rep.Divergences {
			t.Errorf("%s: %v", name, d)
		}
	}
}
