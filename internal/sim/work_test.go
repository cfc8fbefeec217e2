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
// heap allocations per run; and how many runs it served by fast-forward and
// by fork.
type campaignWork struct {
	cycles         uint64
	allocsPerRun   uint64
	ffRuns, forked uint64
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
		ffRuns:       reg.CounterValue("campaign.ff.runs"),
		forked:       reg.CounterValue("campaign.forked_runs"),
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

// ffServed reports an error unless the plan served the latent list's five
// wear-out sites, the ones that fire late enough for a handoff, by
// fast-forward and forked none.
func ffServed(w campaignWork) error {
	if w.ffRuns != 5 || w.forked != 0 {
		return fmt.Errorf("%d fast-forwarded and %d forked runs, want 5 and 0", w.ffRuns, w.forked)
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
// floors are cold/checkpointed >= 3 and cold/fast-forwarded >= 4 (measured
// 12.6x and 11.0x); the fast-forward plan serves the five fired sites it
// can hand off by fast-forward and forks none; and a second pass over a
// filled cache serves every run. The first floor is 3, not 2, because
// serving never-firing sites from the warmup alone gives 2.84x: at 2 the
// floor would pass with forking switched off. Each check is also run with
// the slow path in place of the fast one and must then fail, so a check
// that can no longer fail cannot pass unnoticed.
//
// No floor orders the checkpointed and fast-forwarded plans. Both run the
// same 40,019-cycle warmup, and since every run stops at its first
// detection, the forks from the 500-cycle grid step fewer cycles (3,960)
// than the fast-forward runs with their 500-instruction handoff lead
// (10,565).
//
// The cycle counts themselves are pinned too: every pipeline fast path is
// exact, so a change to the machine's structures moves none of them. (The
// checkpointed count moves with the plan grid, which sets the cycles a
// forked run starts from.)
//
// Allocation budgets hold about 10% headroom over the 141 cold, 197
// checkpointed and 67 fast-forwarded allocations per run measured when
// they were set. The checkpointed count is 205 at the 500-cycle grid,
// whose extra snapshots are rebuilt in the storage of dropped ones. Runs
// that stop at their first detection allocate less: 47, 108 and 50. Each
// worker builds every run into one recycled machine, and detection events
// past the sink's limit are only counted, so what is left is mostly the
// stored events' details, record-pool growth and the warmup's snapshots.
// The budgets catch a per-cycle or per-instruction allocation, which would
// add thousands, and the fast-forwarded one also a run that builds its
// machine from nothing again (117 per run). They are skipped under -race.
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
	if cold.cycles != 556_150 || ckpt.cycles != 43_979 || ff.cycles != 50_584 {
		t.Errorf("simulated cycles moved from cold 556150, checkpointed 43979, fast-forwarded 50584")
	}

	floors := []struct {
		name       string
		slow, fast campaignWork
		ratio      float64
	}{
		{"cold/checkpointed", cold, ckpt, 3},
		{"cold/fast-forwarded", cold, ff, 4},
	}
	for _, f := range floors {
		if err := workFloor(f.slow, f.fast, f.ratio); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
		if workFloor(f.slow, f.slow, f.ratio) == nil {
			t.Errorf("%s: the floor passes with the slow path in place of the fast one", f.name)
		}
	}
	if err := ffServed(ff); err != nil {
		t.Errorf("fast-forwarded: %v", err)
	}
	if ffServed(ckpt) == nil {
		t.Error("the fast-forward check passes with fast-forward switched off")
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
	if allocBudget(ckpt, budgets[2].budget) == nil {
		t.Error("the fast-forwarded budget passes with the checkpointed path in its place")
	}
}
