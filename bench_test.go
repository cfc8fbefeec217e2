// Benchmarks regenerating each table and figure of the paper's evaluation
// (Section 6), plus simulator micro-benchmarks. Each figure bench runs the
// experiment harness at reduced scale (a benchmark subset and a smaller
// instruction budget than cmd/bjexp's 300k default) and reports the figure's
// headline quantities as benchmark metrics; run `go run ./cmd/bjexp` for the
// full-scale tables.
package blackjack

import (
	"runtime"
	"testing"

	"blackjack/internal/core"
	"blackjack/internal/experiments"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// benchOpts is the reduced-scale setup the figure benches share: one low-IPC
// FP benchmark, one mid, two high-IPC integer benchmarks.
func benchOpts() experiments.Options {
	return experiments.Options{
		Config:     DefaultConfig(ModeSingle, 8000),
		Benchmarks: []string{"equake", "gcc", "gzip", "sixtrack"},
	}
}

func mustSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	s, err := experiments.RunSuite(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable1Params regenerates Table 1 (processor parameters).
func BenchmarkTable1Params(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(pipeline.DefaultConfig()).NumRows()
	}
	b.ReportMetric(float64(rows), "params")
}

// BenchmarkFig4aCoverage regenerates Figure 4a (hard-error instruction
// coverage of the entire pipeline, SRT vs BlackJack).
func BenchmarkFig4aCoverage(b *testing.B) {
	var srt, bj float64
	for i := 0; i < b.N; i++ {
		s := mustSuite(b)
		total, _ := s.Figure4()
		avg := total[len(total)-1]
		srt, bj = avg.SRT, avg.BlackJack
	}
	b.ReportMetric(100*srt, "srt-cov-%")
	b.ReportMetric(100*bj, "blackjack-cov-%")
}

// BenchmarkFig4bBackendCoverage regenerates Figure 4b (backend-only
// coverage).
func BenchmarkFig4bBackendCoverage(b *testing.B) {
	var srt, bj float64
	for i := 0; i < b.N; i++ {
		s := mustSuite(b)
		_, backend := s.Figure4()
		avg := backend[len(backend)-1]
		srt, bj = avg.SRT, avg.BlackJack
	}
	b.ReportMetric(100*srt, "srt-backend-%")
	b.ReportMetric(100*bj, "blackjack-backend-%")
}

// BenchmarkFig5Interference regenerates Figure 5 (issue cycles losing
// coverage to trailing-trailing and leading-trailing interference).
func BenchmarkFig5Interference(b *testing.B) {
	var tt, lt float64
	for i := 0; i < b.N; i++ {
		rows := mustSuite(b).Figure5()
		avg := rows[len(rows)-1]
		tt, lt = avg.TT, avg.LT
	}
	b.ReportMetric(100*tt, "tt-interf-%")
	b.ReportMetric(100*lt, "lt-interf-%")
}

// BenchmarkFig6Burstiness regenerates Figure 6 (issue cycles with all
// instructions from one context).
func BenchmarkFig6Burstiness(b *testing.B) {
	var sc float64
	for i := 0; i < b.N; i++ {
		rows := mustSuite(b).Figure6()
		sc = rows[len(rows)-1].SingleCtx
	}
	b.ReportMetric(100*sc, "single-ctx-%")
}

// BenchmarkFig7Performance regenerates Figure 7 (performance of SRT,
// BlackJack-NS and BlackJack normalized to the single thread).
func BenchmarkFig7Performance(b *testing.B) {
	var srt, ns, bj float64
	for i := 0; i < b.N; i++ {
		rows := mustSuite(b).Figure7()
		avg := rows[len(rows)-1]
		srt, ns, bj = avg.SRT, avg.BlackJackNS, avg.BlackJack
	}
	b.ReportMetric(100*srt, "srt-perf-%")
	b.ReportMetric(100*ns, "blackjack-ns-perf-%")
	b.ReportMetric(100*bj, "blackjack-perf-%")
}

// BenchmarkExtAFaultInjection regenerates Ext-A (empirical fault-injection
// detection coverage per mode).
func BenchmarkExtAFaultInjection(b *testing.B) {
	opts := benchOpts()
	opts.MaxInstructions = 5000
	var srtRate, bjRate float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtAFaultInjection(opts, "gcc")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Mode {
			case pipeline.ModeSRT:
				srtRate = r.Rate
			case pipeline.ModeBlackJack:
				bjRate = r.Rate
			}
		}
	}
	b.ReportMetric(100*srtRate, "srt-detect-%")
	b.ReportMetric(100*bjRate, "blackjack-detect-%")
}

// BenchmarkExtBIdealShuffle regenerates Ext-B (the slowdown decomposition:
// one-packet-per-cycle fetch vs shuffle splitting, with BlackJack-NS as the
// ideal-shuffle performance bound).
func BenchmarkExtBIdealShuffle(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = mustSuite(b).ExtBTable().NumRows()
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkExtCPayloadRAM regenerates Ext-C (shared vs split issue-queue
// payload RAM vulnerability).
func BenchmarkExtCPayloadRAM(b *testing.B) {
	opts := benchOpts()
	opts.MaxInstructions = 2500
	var sharedSilent, splitSilent int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtCPayloadRAM(opts, []string{"gzip"})
		if err != nil {
			b.Fatal(err)
		}
		sharedSilent, splitSilent = rows[0].SharedSilent, rows[0].SplitSilent
	}
	b.ReportMetric(float64(sharedSilent), "shared-silent")
	b.ReportMetric(float64(splitSilent), "split-silent")
}

// BenchmarkExtDSlackSweep regenerates Ext-D (slack and DTQ sensitivity).
func BenchmarkExtDSlackSweep(b *testing.B) {
	opts := benchOpts()
	opts.MaxInstructions = 5000
	var points int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtDSweep(opts, "gcc", []int{64, 256, 1024}, []int{256, 1024})
		if err != nil {
			b.Fatal(err)
		}
		points = len(rows)
	}
	b.ReportMetric(float64(points), "points")
}

// BenchmarkBlackJackThroughput measures raw simulation speed: committed
// instructions per wall-clock second on the full BlackJack configuration.
// With tracing and metrics disabled (the default — no sink attached), the
// disabled path is a handful of nil checks per stage hook plus one per Tick;
// compare against BenchmarkBlackJackThroughputObserved for the enabled-path
// cost. bjbench's pipeline.blackjack.instr_per_s is the gated measurement
// of the same rate (bounds in BENCHMARK.json).
func BenchmarkBlackJackThroughput(b *testing.B) {
	p := prog.MustBenchmark("gcc")
	const n = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pipeline.New(pipeline.DefaultConfig(), pipeline.ModeBlackJack, p)
		if err != nil {
			b.Fatal(err)
		}
		st := m.Run(n)
		if st.Deadlocked {
			b.Fatal("deadlocked")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkBlackJackThroughputObserved is the same run with a structured
// tracer and a metrics registry attached — the price of full observability.
func BenchmarkBlackJackThroughputObserved(b *testing.B) {
	p := prog.MustBenchmark("gcc")
	const n = 20000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := obs.NewTracer(1 << 16)
		reg := obs.NewRegistry()
		m, err := pipeline.New(pipeline.DefaultConfig(), pipeline.ModeBlackJack, p,
			pipeline.WithObsTracer(tr), pipeline.WithMetrics(reg))
		if err != nil {
			b.Fatal(err)
		}
		st := m.Run(n)
		if st.Deadlocked {
			b.Fatal("deadlocked")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// TestRunAllocBudget guards the disabled-path allocation criterion: a run
// without observability sinks must stay within a fixed allocation budget.
// The budget is generous, since the point is catching per-instruction or
// per-cycle allocations, which would add tens of thousands. Campaign runs
// have tighter per-run budgets in internal/sim's TestCampaignWorkFloors
// (3,300 cold, 3,150 checkpointed and 130 fast-forwarded allocations per
// run at 30k instructions, about 10% over the measured 2,999, 2,862 and 117).
func TestRunAllocBudget(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	const n = 5000
	allocs := testing.AllocsPerRun(3, func() {
		m, err := pipeline.New(pipeline.DefaultConfig(), pipeline.ModeBlackJack, p)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Run(n); st.Deadlocked {
			t.Fatal("deadlocked")
		}
	})
	const budget = 8000
	if allocs > budget {
		t.Errorf("disabled-observability run allocates %.0f, budget %d", allocs, budget)
	}
}

// BenchmarkMachineRunAllocs measures allocation pressure of one BlackJack
// Machine.Run: allocs/op and bytes/op (the free-listed hot path should stay
// near the machine's fixed construction cost) alongside simulation speed.
func BenchmarkMachineRunAllocs(b *testing.B) {
	p := prog.MustBenchmark("gcc")
	const n = 5000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := pipeline.New(pipeline.DefaultConfig(), pipeline.ModeBlackJack, p)
		if err != nil {
			b.Fatal(err)
		}
		st := m.Run(n)
		if st.Deadlocked {
			b.Fatal("deadlocked")
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// benchCampaign16 measures the 16-site latent-defect campaign at one worker:
// serial wall-clock equals total work, so the cold/checkpointed ns/op ratio
// is the per-run cost the checkpoint/fork plan removes (the summaries are
// byte-identical — see serve's TestCampaignPathMatrix).
func benchCampaign16(b *testing.B, interval int64, ff bool) {
	cfg := DefaultConfig(ModeBlackJack, 30_000)
	cfg.Parallel = 1
	cfg.CheckpointInterval = interval
	cfg.FastForward = ff
	sites := LatentFaultSites(cfg.Machine)
	b.ReportAllocs()
	b.ResetTimer()
	var detected int
	for i := 0; i < b.N; i++ {
		sum, err := Campaign(cfg, "gcc", sites, InjectOptions{SplitPayload: true})
		if err != nil {
			b.Fatal(err)
		}
		detected = sum.Counts[OutcomeDetected]
	}
	b.ReportMetric(float64(detected), "detected")
}

// BenchmarkCampaignCold16 replays the fault-free prefix cold in every run.
func BenchmarkCampaignCold16(b *testing.B) { benchCampaign16(b, 0, false) }

// BenchmarkCampaignCheckpointed16 forks each run from the latest warmup
// snapshot preceding its fault's first activation (interval 2500 cycles).
func BenchmarkCampaignCheckpointed16(b *testing.B) { benchCampaign16(b, 2500, false) }

// BenchmarkCampaignFF16 runs the campaign sampled: each injection's
// fault-free prefix executes on the functional model and only its activation
// window is simulated cycle-accurately (outcome table identical to cold —
// serve's TestCampaignPathMatrix proves it; this measures the speedup).
func BenchmarkCampaignFF16(b *testing.B) { benchCampaign16(b, 0, true) }

// BenchmarkCampaignControlFlowFF measures the control-flow-error campaign
// on gcc at one worker with fast-forward and checkpoints on. Every site
// fires within about 800 cycles of reset and none is a one-shot transient,
// so the plan's warmup ends at its first checkpoint instead of simulating
// the whole budget; its sites are timing-sensitive, so each run is cold.
func BenchmarkCampaignControlFlowFF(b *testing.B) {
	cfg := DefaultConfig(ModeBlackJack, 8000)
	cfg.Parallel = 1
	cfg.CheckpointInterval = 2500
	cfg.FastForward = true
	sites, err := FaultSitesForKind(cfg.Machine, fault.KindControlFlow)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var detected int
	for i := 0; i < b.N; i++ {
		sum, err := Campaign(cfg, "gcc", sites, InjectOptions{SplitPayload: true})
		if err != nil {
			b.Fatal(err)
		}
		detected = sum.Counts[OutcomeDetected]
	}
	b.ReportMetric(float64(detected), "detected")
}

// BenchmarkCampaignTransientFF measures the one-shot transient campaign
// on gcc at one worker with fast-forward and checkpoints on. Its sites are
// timing-sensitive, so each run forks or runs cold, and a run whose shot is
// spent is cut at the first kept warmup snapshot its state equals. It
// reports the runs cut and the cycle-accurate cycles the runs simulated.
func BenchmarkCampaignTransientFF(b *testing.B) {
	cfg := DefaultConfig(ModeBlackJack, 6000)
	cfg.Parallel = 1
	cfg.CheckpointInterval = 2500
	cfg.FastForward = true
	sites := sim.TransientSites(cfg.Machine, 200)
	b.ReportAllocs()
	b.ResetTimer()
	var converged, cycles uint64
	for i := 0; i < b.N; i++ {
		cfg.Metrics = NewMetrics()
		if _, err := Campaign(cfg, "gcc", sites, InjectOptions{SplitPayload: true}); err != nil {
			b.Fatal(err)
		}
		converged = cfg.Metrics.CounterValue("campaign.converged.runs")
		cycles = cfg.Metrics.CounterValue("campaign.simulated_cycles")
	}
	b.ReportMetric(float64(converged), "converged")
	b.ReportMetric(float64(cycles), "sim-cycles/op")
}

// BenchmarkSweepWarmCache measures a fully-warm Ext-A sweep: every campaign
// cell of every mode is served from the content-addressable run cache
// instead of re-simulated. Compare against BenchmarkExtAFaultInjection (the
// same sweep cold) for the cache speedup.
func BenchmarkSweepWarmCache(b *testing.B) {
	cache, err := runcache.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	opts.MaxInstructions = 5000
	opts.Cache = cache
	if _, err := experiments.ExtAFaultInjection(opts, "gcc"); err != nil { // fill pass
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtAFaultInjection(opts, "gcc"); err != nil {
			b.Fatal(err)
		}
	}
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "hits/op")
	if st.VerifyDivergences > 0 {
		b.Fatalf("cache verification found %d divergences", st.VerifyDivergences)
	}
}

// benchSuiteParallel measures full-suite wall clock at a given worker count,
// reporting aggregate committed-instruction throughput across all (benchmark,
// mode) runs.
func benchSuiteParallel(b *testing.B, workers int) {
	opts := benchOpts()
	opts.Parallel = workers
	var committed uint64
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunSuite(opts)
		if err != nil {
			b.Fatal(err)
		}
		committed = 0
		for _, rs := range s.Results {
			for _, r := range rs {
				committed += r.Stats.Committed[0]
			}
		}
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkSuiteSerial runs the reduced suite on one worker: the wall-clock
// baseline the parallel harness is measured against.
func BenchmarkSuiteSerial(b *testing.B) { benchSuiteParallel(b, 1) }

// BenchmarkSuiteParallel runs the reduced suite with one worker per CPU; on a
// multi-core host the wall-clock ratio to BenchmarkSuiteSerial approximates
// the fan-out speedup (the tables stay byte-identical either way).
func BenchmarkSuiteParallel(b *testing.B) { benchSuiteParallel(b, runtime.NumCPU()) }

// BenchmarkGoldenEmulator measures the functional golden model's speed.
func BenchmarkGoldenEmulator(b *testing.B) {
	p := prog.MustBenchmark("gcc")
	const n = 100000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := isa.NewMachine(p)
		if err != nil {
			b.Fatal(err)
		}
		m.Run(n)
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkExtEMergingShuffle regenerates Ext-E (the merging-shuffle
// extension the paper's Section 6.2 suggests).
func BenchmarkExtEMergingShuffle(b *testing.B) {
	opts := benchOpts()
	var basePerf, mergePerf float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtEMergingShuffle(opts, []string{"sixtrack"})
		if err != nil {
			b.Fatal(err)
		}
		basePerf, mergePerf = rows[0].BasePerf, rows[0].MergePerf
	}
	b.ReportMetric(100*basePerf, "blackjack-perf-%")
	b.ReportMetric(100*mergePerf, "merge-perf-%")
}

// BenchmarkExtFMultiFault regenerates Ext-F (multiple uncorrelated hard
// faults, Section 4.5).
func BenchmarkExtFMultiFault(b *testing.B) {
	opts := benchOpts()
	opts.MaxInstructions = 2500
	var silent int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtFMultiFault(opts, "gcc", 3)
		if err != nil {
			b.Fatal(err)
		}
		silent = 0
		for _, r := range rows {
			silent += r.Silent
		}
	}
	b.ReportMetric(float64(silent), "silent")
}

// BenchmarkExtGSoftErrors regenerates Ext-G (transient/soft-error injection:
// the coverage BlackJack inherits from SRT).
func BenchmarkExtGSoftErrors(b *testing.B) {
	opts := benchOpts()
	opts.MaxInstructions = 5000
	var srtRate, bjRate float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtGSoftErrors(opts, "gcc")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Mode {
			case pipeline.ModeSRT:
				srtRate = r.Rate
			case pipeline.ModeBlackJack:
				bjRate = r.Rate
			}
		}
	}
	b.ReportMetric(100*srtRate, "srt-detect-%")
	b.ReportMetric(100*bjRate, "blackjack-detect-%")
}

// BenchmarkExtHSeedRobustness regenerates Ext-H (seed-robustness of the
// headline metrics).
func BenchmarkExtHSeedRobustness(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"gzip", "equake"}
	opts.MaxInstructions = 5000
	var bjCov float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtHSeedRobustness(opts, []uint64{0, 5000})
		if err != nil {
			b.Fatal(err)
		}
		bjCov = (rows[0].BJCov + rows[1].BJCov) / 2
	}
	b.ReportMetric(100*bjCov, "blackjack-cov-%")
}

// BenchmarkSafeShuffle measures the safe-shuffle algorithm itself (packets
// shuffled per second).
func BenchmarkSafeShuffle(b *testing.B) {
	units := pipeline.DefaultConfig().Units
	sh := &core.Shuffler{Width: 4, Units: units}
	in := []*core.Entry{
		{Seq: 1, FrontWay: 0, BackWay: 0, Class: isa.UnitIntALU},
		{Seq: 2, FrontWay: 1, BackWay: 1, Class: isa.UnitIntALU},
		{Seq: 3, FrontWay: 2, BackWay: 0, Class: isa.UnitMem},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := sh.Shuffle(in); len(out) == 0 {
			b.Fatal("empty shuffle")
		}
	}
}
