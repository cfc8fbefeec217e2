package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
)

func TestRunSingleMatchesGolden(t *testing.T) {
	r, err := Run(Default(pipeline.ModeSingle, 5000), "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if !r.OutputMatches {
		t.Error("single-mode output does not match golden model")
	}
	if r.Stats.IPC() <= 0 {
		t.Error("no progress")
	}
}

func TestRunAllModes(t *testing.T) {
	rs, err := RunAllModes(Default(pipeline.ModeSingle, 5000), "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for mode, r := range rs {
		if !r.OutputMatches {
			t.Errorf("%v: output mismatch", mode)
		}
		if r.Stats.Detections != 0 {
			t.Errorf("%v: %d detections in fault-free run", mode, r.Stats.Detections)
		}
	}
	single := rs[pipeline.ModeSingle]
	for _, mode := range []pipeline.Mode{pipeline.ModeSRT, pipeline.ModeBlackJackNS, pipeline.ModeBlackJack} {
		if perf := rs[mode].NormalizedPerf(single); perf > 1.001 {
			t.Errorf("%v normalized perf %.3f > 1", mode, perf)
		}
		if slow := rs[mode].Slowdown(single); slow < 0.999 {
			t.Errorf("%v slowdown %.3f < 1", mode, slow)
		}
	}
}

// RunAllModes takes the whole run config: its cache serves repeat runs, its
// context stops them, and attachments concurrent machines cannot share are
// refused.
func TestRunAllModesHonorsConfig(t *testing.T) {
	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(pipeline.ModeSingle, 2000)
	cfg.Parallel = 2
	cfg.Cache = store

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := cfg
	stopped.Ctx = ctx
	if _, err := RunAllModes(stopped, "gzip"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunAllModes returned %v, want context.Canceled", err)
	}
	if st := store.Stats(); st.Puts != 0 {
		t.Fatalf("cancelled RunAllModes stored %d runs", st.Puts)
	}

	cold, err := RunAllModes(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunAllModes(cfg, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Puts != 4 || st.Hits != 4 {
		t.Errorf("cache traffic %d puts, %d hits; want 4 and 4", st.Puts, st.Hits)
	}
	for _, mode := range AllModes {
		if !reflect.DeepEqual(cold[mode].Stats, warm[mode].Stats) {
			t.Errorf("%v: cached result differs from the live one", mode)
		}
	}

	traced := cfg
	traced.Trace = obs.NewTracer(0)
	if _, err := RunAllModes(traced, "gzip"); err == nil {
		t.Error("RunAllModes accepted a tracer")
	}
	observed := cfg
	observed.Metrics = obs.NewRegistry()
	if _, err := RunAllModes(observed, "gzip"); err == nil {
		t.Error("RunAllModes accepted a metrics registry")
	}
}

// A campaign runs many machines at once, so, like RunAllModes, every
// campaign entry point refuses a tracer rather than dropping it; only a
// standalone injection observes its one run.
func TestCampaignRefusesTrace(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Trace = obs.NewTracer(0)
	sites := StandardSites(cfg.Machine)[:2]
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Campaign(cfg, "gcc", sites, InjectOptions{}); err == nil {
		t.Error("Campaign accepted a tracer")
	}
	if _, err := CampaignProgram(cfg, p, sites[:1], InjectOptions{}); err == nil {
		t.Error("CampaignProgram accepted a tracer on a one-site campaign")
	}
	if _, err := CampaignWindows(cfg, p, sites, []Window{{0, 2}}, InjectOptions{}); err == nil {
		t.Error("CampaignWindows accepted a tracer")
	}
	if cfg.Trace.Total() != 0 {
		t.Errorf("a refused campaign recorded %d events", cfg.Trace.Total())
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Default(pipeline.ModeSingle, 0)
	if err := cfg.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	cfg = Default(pipeline.ModeSingle, 100)
	cfg.Machine.FetchWidth = 1
	if err := cfg.Validate(); err == nil {
		t.Error("bad machine config accepted")
	}
	if _, err := Run(Default(pipeline.ModeSingle, 100), "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestStandardSitesCoverEveryWay(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	sites := StandardSites(cfg)
	if len(sites) < 20 {
		t.Fatalf("campaign too small: %d sites", len(sites))
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{OutcomeBenign, OutcomeDetected, OutcomeSilent, OutcomeWedged} {
		if o.String() == "" {
			t.Errorf("outcome %d unnamed", o)
		}
	}
}
