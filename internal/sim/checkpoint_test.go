package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// checkpointTestConfig shrinks the caches so per-cycle snapshots (interval 1)
// stay cheap; outcome classification does not depend on cache geometry.
func checkpointTestConfig(mode pipeline.Mode, n int) Config {
	cfg := Default(mode, n)
	cfg.Machine.Cache.L1SizeKB = 16
	cfg.Machine.Cache.L2SizeKB = 64
	// Bound the deadlock backstop so wedged outcomes classify quickly; the
	// limit is an absolute cycle count, identical for cold and forked runs.
	cfg.Machine.MaxCycles = 50_000
	cfg.Parallel = 2
	return cfg
}

// mixedSites builds a campaign exercising every checkpoint path: always-on
// faults (fire early: fork from an early checkpoint or run cold), transients
// with a late FireAt (fire late: fork from a late checkpoint), and
// trigger-gated sites that can never fire (served from the warmup).
func mixedSites(cfg pipeline.Config) []fault.Site {
	sites := []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
		{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs2},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 10},
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 2, FlipBranch: true},
		{Class: fault.RegisterFile, Reg: 200, BitMask: 1 << 5},
		{Class: fault.PayloadRAM, Slot: 3, Field: fault.FieldImm, BitMask: 2},
		// Late transients: one shot on a deep eligible use.
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 9, Transient: true, FireAt: 300},
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs1, Transient: true, FireAt: 150},
		// Never fires: impossible trigger pattern.
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3,
			TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF},
		{Class: fault.RegisterFile, Reg: 300, BitMask: 1,
			TriggerMask: ^uint64(0), TriggerValue: 0xFEEDFACEFEEDFACE},
	}
	return sites
}

// A campaign must produce a byte-identical summary at every checkpoint
// interval — forked runs are bit-identical to cold runs, and the never-fires
// shortcut is provably the cold result.
func TestCampaignByteIdenticalAcrossIntervals(t *testing.T) {
	for _, mode := range []pipeline.Mode{pipeline.ModeBlackJack, pipeline.ModeSRT} {
		t.Run(mode.String(), func(t *testing.T) {
			for _, interval := range []int64{1, 250, 1000, 100000} {
				t.Run(fmt.Sprintf("interval-%d", interval), func(t *testing.T) {
					// Interval 1 retains a snapshot per warmup cycle; a
					// smaller budget keeps that set (and GC pressure) sane.
					// Per-cycle fork exactness is separately proven by the
					// pipeline snapshot tests.
					budget := 1500
					if interval == 1 {
						budget = 400
					}
					cfg := checkpointTestConfig(mode, budget)
					sites := mixedSites(cfg.Machine)
					ref, err := Campaign(cfg, "gcc", sites, InjectOptions{})
					if err != nil {
						t.Fatal(err)
					}
					cfg.CheckpointInterval = interval
					got, err := Campaign(cfg, "gcc", sites, InjectOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ref, got) {
						for i := range ref.Results {
							if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
								t.Errorf("site %d (%v): cold %+v, checkpointed %+v",
									i, sites[i].String(), ref.Results[i], got.Results[i])
							}
						}
						t.Fatal("summary diverged from cold campaign")
					}
				})
			}
		})
	}
}

// The canonical StandardSites campaign — the one behind Ext-A and bjfault's
// default run — must also be byte-identical with checkpointing on.
func TestCampaignStandardSitesByteIdentical(t *testing.T) {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 1500)
	sites := StandardSites(cfg.Machine)
	ref, err := Campaign(cfg, "gcc", sites, InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointInterval = 500
	got, err := Campaign(cfg, "gcc", sites, InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("StandardSites summary diverged between cold and checkpointed campaigns")
	}
}

// The checkpointed campaign must actually take and use snapshots (guard
// against the fast path silently never engaging).
func TestCampaignPlanTakesCheckpoints(t *testing.T) {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 1500)
	cfg.CheckpointInterval = 250
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewCampaignPlan(cfg, p, mixedSites(cfg.Machine), InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Checkpoints() == 0 {
		t.Fatal("warmup took no checkpoints")
	}
	if len(pl.sites) != len(mixedSites(cfg.Machine)) {
		t.Fatalf("plan holds %d sites", len(pl.sites))
	}
	// The late transient must fork from a checkpoint, not run cold.
	late := 6 // index of the FireAt: 300 transient in mixedSites
	fire := pl.probe.FireCycle(late)
	if fire < 0 {
		t.Skip("late transient never became eligible in this window")
	}
	if pl.latestBefore(fire) == nil {
		t.Fatalf("no checkpoint precedes fire cycle %d despite interval 250", fire)
	}
}

// injectCold is the cold multi-fault reference: a fresh machine from
// cycle 0 with every site installed, outside any campaign, plan or cache.
func injectCold(cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions) (InjectionResult, error) {
	r, _, err := injectSites(nil, cfg, p, sites, opts, nil, newGoldenOracle(p), cfg.FastForward, nil)
	return r, err
}

// Every window of a windowed campaign (several simultaneous faults, one
// entry) must match the cold multi-fault run exactly, whether the
// campaign runs cold or forks from one plan.
func TestCampaignWindowsMatchCold(t *testing.T) {
	p, err := prog.Benchmark("crafty")
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []int64{0, 300} {
		cfg := checkpointTestConfig(pipeline.ModeBlackJack, 1500)
		sites := mixedSites(cfg.Machine)
		windows := []Window{{0, 3}, {3, 6}, {6, 10}, {0, len(sites)}}
		cfg.CheckpointInterval = interval
		sum, err := CampaignWindows(cfg, p, sites, windows, InjectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range windows {
			cold, err := injectCold(cfg, p, sites[w.Lo:w.Hi], InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, sum.Results[i]) {
				t.Errorf("interval %d window [%d,%d): cold %+v, campaign %+v", interval, w.Lo, w.Hi, cold, sum.Results[i])
			}
		}
	}
}

// A window runs under the campaign's context like every other campaign
// run: cancelled while the window starts, it stops instead of falling back
// to an unbudgeted cold run, and the campaign returns context.Canceled.
func TestCampaignWindowsStopOnCancelledCtx(t *testing.T) {
	// Long enough to reach the machine's first context poll.
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	cfg.CheckpointInterval = 300
	withTestHook(t, func(context.Context, int) error { cancel(); return nil })
	_, err := CampaignWindows(cfg, prog.MustBenchmark("crafty"), mixedSites(cfg.Machine), []Window{{0, 3}}, InjectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("window under a cancelled context returned %v, want context.Canceled", err)
	}
}

// The memoized oracle must agree with a fresh golden machine at arbitrary
// (including out-of-order) instruction counts.
func TestGoldenOracleMatchesFreshRuns(t *testing.T) {
	p, err := prog.Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	o := newGoldenOracle(p)
	for _, k := range []uint64{500, 100, 1200, 1200, 0, 700} {
		sig, stores, err := o.at(k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := isa.NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(int(k))
		if sig != g.StoreSignature() || stores != uint64(g.Stores()) {
			t.Errorf("at(%d) = (%#x, %d), fresh run (%#x, %d)",
				k, sig, stores, g.StoreSignature(), g.Stores())
		}
	}
}
