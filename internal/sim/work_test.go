package sim

import (
	"fmt"
	"runtime"
	"testing"

	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// campaignWork is what one campaign plan cost: the cycle-accurate cycles its
// live runs stepped (campaign.simulated_cycles) plus its warmup's, and the
// heap allocations per run.
type campaignWork struct {
	cycles       uint64
	allocsPerRun uint64
}

// latentCampaign runs the 16-site latent campaign on gcc with a fresh
// metrics registry.
func latentCampaign(t *testing.T, cfg Config) (*CampaignSummary, *obs.Registry) {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	sum, err := CampaignProgram(cfg, prog.MustBenchmark("gcc"), LatentSites(cfg.Machine), InjectOptions{SplitPayload: true})
	if err != nil {
		t.Fatal(err)
	}
	return sum, cfg.Metrics
}

// measureWork runs the campaign live and reports its work. The warmup is
// read from a plan built alongside, not from the registry: the campaign
// builds its plan lazily, so a campaign served wholly from the run store
// never runs one.
func measureWork(t *testing.T, cfg Config) campaignWork {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sum, reg := latentCampaign(t, cfg)
	runtime.ReadMemStats(&after)
	w := campaignWork{
		cycles:       reg.CounterValue("campaign.simulated_cycles"),
		allocsPerRun: (after.Mallocs - before.Mallocs) / uint64(len(sum.Results)),
	}
	if cfg.CheckpointInterval > 0 || cfg.FastForward {
		pl, err := NewCampaignPlan(cfg, prog.MustBenchmark("gcc"), LatentSites(cfg.Machine), InjectOptions{SplitPayload: true})
		if err != nil {
			t.Fatal(err)
		}
		w.cycles += uint64(pl.warm.Cycles)
	}
	return w
}

// workFloor reports an error unless the slow plan simulated at least ratio
// times the cycles of the fast one.
func workFloor(slow, fast campaignWork, ratio float64) error {
	if fast.cycles == 0 || float64(slow.cycles) < ratio*float64(fast.cycles) {
		return fmt.Errorf("%d vs %d cycles, below the %.1fx floor", slow.cycles, fast.cycles, ratio)
	}
	return nil
}

// allCacheServed reports an error unless every run of the pass came from
// the cache, with no new cache misses: such a pass simulates no cycles.
// (Its campaign.simulated_cycles replays the cycles the cached runs
// stepped when they ran, so that cached and live metrics stay identical.)
func allCacheServed(sum *CampaignSummary, newMisses uint64) error {
	if n := len(sum.Results); sum.CacheHits != n || newMisses != 0 {
		return fmt.Errorf("%d of %d runs cache-served, %d new misses", sum.CacheHits, n, newMisses)
	}
	return nil
}

// allocBudget reports an error when a plan allocates more per run than its
// budget.
func allocBudget(w campaignWork, budget uint64) error {
	if w.allocsPerRun > budget {
		return fmt.Errorf("%d allocs/run, budget %d", w.allocsPerRun, budget)
	}
	return nil
}

// The checkpoint, fast-forward and cache paths must keep removing work from
// the 16-site latent BlackJack campaign on gcc. Work is counted exactly, in
// simulated cycles, so host speed and load cannot move a verdict. The
// floors are cold/checkpointed >= 3, cold/fast-forwarded >= 4 and
// checkpointed/fast-forwarded >= 1.5 (measured 4.29x, 13.1x and 3.05x), and
// a second pass over a filled cache serves every run. The first floor is 3,
// not 2, because serving never-firing sites from the warmup alone gives
// 2.19x: at 2 the floor would pass with forking switched off. Each check is
// also run with the slow path in place of the fast one and must then fail,
// so a check that can no longer fail cannot pass unnoticed.
//
// The cycle counts themselves are pinned too: every pipeline fast path is
// exact, so a change to the machine's structures moves none of them.
//
// Allocation budgets hold about 10% headroom over the 141 cold, 197
// checkpointed and 67 fast-forwarded allocations per run measured here
// (each worker builds every run into one recycled machine, and detection
// events past the sink's limit are only counted, so what is left is mostly
// the stored events' details, record-pool growth and the warmup's
// snapshots); they catch a per-cycle or per-instruction allocation, which
// would add thousands, and the fast-forwarded one also a run that builds
// its machine from nothing again (117 per run). They are skipped under
// -race.
func TestCampaignWorkFloors(t *testing.T) {
	base := Default(pipeline.ModeBlackJack, 30_000)
	base.Parallel = 1
	plan := func(ckpt int64, ff bool) Config {
		c := base
		c.CheckpointInterval, c.FastForward = ckpt, ff
		return c
	}
	cold := measureWork(t, plan(0, false))
	ckpt := measureWork(t, plan(2500, false))
	ff := measureWork(t, plan(0, true))
	t.Logf("simulated cycles: cold %d, checkpointed %d, fast-forwarded %d", cold.cycles, ckpt.cycles, ff.cycles)
	t.Logf("allocs/run: cold %d, checkpointed %d, fast-forwarded %d", cold.allocsPerRun, ckpt.allocsPerRun, ff.allocsPerRun)
	if cold.cycles != 661_859 || ckpt.cycles != 154_188 || ff.cycles != 50_584 {
		t.Errorf("simulated cycles moved from cold 661859, checkpointed 154188, fast-forwarded 50584")
	}

	floors := []struct {
		name       string
		slow, fast campaignWork
		ratio      float64
	}{
		{"cold/checkpointed", cold, ckpt, 3},
		{"cold/fast-forwarded", cold, ff, 4},
		{"checkpointed/fast-forwarded", ckpt, ff, 1.5},
	}
	for _, f := range floors {
		if err := workFloor(f.slow, f.fast, f.ratio); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		if workFloor(f.slow, f.slow, f.ratio) == nil {
			t.Errorf("%s: the floor passes with the slow path in place of the fast one", f.name)
		}
	}

	store := testStore(t)
	cached := plan(0, true)
	cached.Cache = store
	latentCampaign(t, cached) // fill pass
	misses := store.Stats().Misses
	warm, _ := latentCampaign(t, cached)
	if err := allCacheServed(warm, store.Stats().Misses-misses); err != nil {
		t.Errorf("warm cache pass: %v", err)
	}
	uncached := cached
	uncached.Cache = nil
	if mut, _ := latentCampaign(t, uncached); allCacheServed(mut, 0) == nil {
		t.Error("the cache check passes with the cache switched off")
	}

	if raceEnabled {
		return // the race detector changes allocation counts
	}
	budgets := []struct {
		name   string
		w      campaignWork
		budget uint64
	}{
		{"cold", cold, 155},
		{"checkpointed", ckpt, 220},
		{"fast-forwarded", ff, 75},
	}
	for _, b := range budgets {
		if err := allocBudget(b.w, b.budget); err != nil {
			t.Errorf("%s: %v", b.name, err)
		}
	}
	if allocBudget(cold, budgets[2].budget) == nil {
		t.Error("the fast-forwarded budget passes with the cold path in its place")
	}
}
