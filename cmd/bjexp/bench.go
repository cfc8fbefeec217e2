package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"blackjack"
	"blackjack/internal/calib"
	"blackjack/internal/cli"
	"blackjack/internal/runcache"
)

// campaignBench is one record of the BENCH_*.json trajectory: a timestamped
// measured comparison of a fault campaign run cold versus checkpointed
// versus fast-forwarded (sampled) versus served from a warm run cache, plus
// the plain simulation rate the campaign's per-run cost is built from. The
// file holds a JSON array ordered oldest-first; each -bench-json invocation
// appends one record, so the trajectory tracks performance across commits
// (legacy single-object files are migrated into a one-record array).
type campaignBench struct {
	At                  string  `json:"at"`
	Benchmark           string  `json:"benchmark"`
	Mode                string  `json:"mode"`
	Instructions        int     `json:"instructions"`
	Sites               int     `json:"sites"`
	Parallel            int     `json:"parallel"`
	CheckpointInterval  int64   `json:"checkpoint_interval"`
	FFWarmup            int     `json:"ff_warmup"`
	NsPerInstr          float64 `json:"ns_per_instr"`
	ColdCampaignMs      float64 `json:"cold_campaign_ms"`
	CkptCampaignMs      float64 `json:"checkpointed_campaign_ms"`
	FFCampaignMs        float64 `json:"ff_campaign_ms"`
	WarmCacheCampaignMs float64 `json:"warm_cache_campaign_ms"`
	Speedup             float64 `json:"speedup"`
	FFSpeedup           float64 `json:"ff_speedup"`
	FFSpeedupVsCkpt     float64 `json:"ff_speedup_vs_ckpt"`
	CacheSpeedup        float64 `json:"cache_speedup"`
	CacheHits           uint64  `json:"cache_hits"`
	CacheMisses         uint64  `json:"cache_misses"`
	ColdAllocsPerRun    uint64  `json:"cold_allocs_per_run"`
	CkptAllocsPerRun    uint64  `json:"checkpointed_allocs_per_run"`
	FFAllocsPerRun      uint64  `json:"ff_allocs_per_run"`
}

// runBenchJSON measures the 16-site latent-defect BlackJack campaign cold,
// checkpointed, fast-forwarded (sampled), and fully cache-warm, and appends
// the comparison to the JSON trajectory at path. Cold and checkpointed
// campaigns produce byte-identical summaries (verified here, not just in
// tests), as does the cache-warm campaign; the sampled campaign is held to
// its own contract — identical outcome classes and activated flags, with
// cycle figures window-relative. The warm-cache passes use a private
// throwaway store, so the measurement is self-contained and unaffected by
// (and not polluting) any -cache-dir the machine has opted into.
// Measurement defaults to one worker: serial wall-clock equals total work,
// so each ratio is the per-run cost reduction rather than an artifact of
// scheduler luck.
func runBenchJSON(path, bench string, n, par int, interval int64, ffWarmup int) error {
	if interval <= 0 {
		interval = 2500
	}
	if par <= 0 {
		par = 1
	}
	cfg := blackjack.DefaultConfig(blackjack.ModeBlackJack, min(n, 30_000))
	cfg.Parallel = par
	cfg.FFWarmup = ffWarmup
	sites := blackjack.LatentFaultSites(cfg.Machine)
	opts := blackjack.InjectOptions{SplitPayload: true}

	// Plain simulation rate: ns per committed leading-thread instruction.
	simStart := time.Now()
	r, err := blackjack.Run(cfg, bench)
	if err != nil {
		return err
	}
	nsPerInstr := float64(time.Since(simStart).Nanoseconds()) / float64(r.Stats.Committed[0])

	measure := func(c blackjack.Config) (*blackjack.CampaignSummary, time.Duration, uint64, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		sum, err := blackjack.Campaign(c, bench, sites, opts)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, 0, 0, err
		}
		return sum, elapsed, (after.Mallocs - before.Mallocs) / uint64(len(sites)), nil
	}
	withPlan := func(ckpt int64, ff bool) blackjack.Config {
		c := cfg
		c.CheckpointInterval = ckpt
		c.FastForward = ff
		return c
	}

	coldSum, coldT, coldAllocs, err := measure(withPlan(0, false))
	if err != nil {
		return err
	}
	ckptSum, ckptT, ckptAllocs, err := measure(withPlan(interval, false))
	if err != nil {
		return err
	}
	ffSum, ffT, ffAllocs, err := measure(withPlan(0, true))
	if err != nil {
		return err
	}
	for i := range coldSum.Results {
		if !reflect.DeepEqual(coldSum.Results[i], ckptSum.Results[i]) {
			return fmt.Errorf("bench: site %d diverged between cold and checkpointed campaigns", i)
		}
		// The sampled contract: same outcome class, same activated flag.
		// Cycle counts and latencies of fast-forwarded runs are
		// window-relative, so they are deliberately not compared.
		c, f := coldSum.Results[i], ffSum.Results[i]
		if c.Outcome != f.Outcome || (c.Activations > 0) != (f.Activations > 0) {
			return fmt.Errorf("bench: site %d outcome diverged between cold (%v) and sampled (%v) campaigns",
				i, c.Outcome, f.Outcome)
		}
	}

	// Warm-cache measurement: fill a fresh store with one pass, then time a
	// second pass in which every cell is a hit. The warm summary must be
	// byte-identical to the cold one — cached cells are the same outcomes.
	cacheDir, err := os.MkdirTemp("", "bjcache-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	store, err := runcache.Open(cacheDir, 0)
	if err != nil {
		return err
	}
	cacheCfg := withPlan(0, false)
	cacheCfg.Cache = store
	if _, _, _, err := measure(cacheCfg); err != nil { // fill pass
		return err
	}
	warmSum, warmT, _, err := measure(cacheCfg)
	if err != nil {
		return err
	}
	for i := range coldSum.Results {
		if !reflect.DeepEqual(coldSum.Results[i], warmSum.Results[i]) {
			return fmt.Errorf("bench: site %d diverged between cold and cache-warm campaigns", i)
		}
	}
	cacheStats := store.Stats()

	if ffWarmup <= 0 {
		ffWarmup = blackjack.DefaultFFWarmup
	}
	b := campaignBench{
		At:                  time.Now().UTC().Format(time.RFC3339),
		Benchmark:           bench,
		Mode:                blackjack.ModeBlackJack.String(),
		Instructions:        cfg.MaxInstructions,
		Sites:               len(sites),
		Parallel:            par,
		CheckpointInterval:  interval,
		FFWarmup:            ffWarmup,
		NsPerInstr:          nsPerInstr,
		ColdCampaignMs:      float64(coldT.Microseconds()) / 1000,
		CkptCampaignMs:      float64(ckptT.Microseconds()) / 1000,
		FFCampaignMs:        float64(ffT.Microseconds()) / 1000,
		WarmCacheCampaignMs: float64(warmT.Microseconds()) / 1000,
		Speedup:             float64(coldT) / float64(ckptT),
		FFSpeedup:           float64(coldT) / float64(ffT),
		FFSpeedupVsCkpt:     float64(ckptT) / float64(ffT),
		CacheSpeedup:        float64(coldT) / float64(warmT),
		CacheHits:           cacheStats.Hits,
		CacheMisses:         cacheStats.Misses,
		ColdAllocsPerRun:    coldAllocs,
		CkptAllocsPerRun:    ckptAllocs,
		FFAllocsPerRun:      ffAllocs,
	}
	// The trajectory layer migrates legacy single-object files in place and
	// refuses — with a typed error naming the field — a record whose
	// benchmark/mode/sites identity mismatches the records already there: a
	// trajectory tracks one workload configuration over time, and a mixed
	// file would corrupt every trend fitted over it.
	if err := calib.AppendTrajectory(path, b); err != nil {
		return err
	}
	cli.Logf("%d-site campaign on %q: cold %.0fms, checkpointed %.0fms (%.1fx), fast-forwarded %.0fms (%.1fx cold, %.1fx ckpt), cache-warm %.0fms (%.1fx cold, %d hits), %.0f ns/instr -> %s",
		b.Sites, bench, b.ColdCampaignMs, b.CkptCampaignMs, b.Speedup,
		b.FFCampaignMs, b.FFSpeedup, b.FFSpeedupVsCkpt,
		b.WarmCacheCampaignMs, b.CacheSpeedup, b.CacheHits, b.NsPerInstr, path)
	return nil
}
