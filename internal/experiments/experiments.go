// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6), plus the extension studies listed in DESIGN.md.
// The harness runs each benchmark under the four machine configurations once
// and derives all figures from those results; cmd/bjexp renders them as text
// tables and bench_test.go reports the headline numbers as benchmark metrics.
package experiments

import (
	"fmt"
	"sort"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
	"blackjack/internal/stats"
)

// Options configure an experiment run.
type Options struct {
	// Config is the base every run of the experiment derives its own config
	// from (Options.RunConfig), which sets the run's Mode and machine
	// variant; the base's Mode and Trace are not used. Its fields
	// mean, for an experiment:
	//
	//   - Machine is the core configuration (Table 1 defaults).
	//   - MaxInstructions is the committed-instruction budget per
	//     (benchmark, mode). The paper runs 100M per benchmark on SimPoint
	//     regions; metrics of the synthetic workloads stabilize well below
	//     the 300k default (DESIGN.md).
	//   - Parallel bounds the worker count every fan-out uses: RunSuite over
	//     (benchmark, mode) pairs, campaigns over fault sites, sweeps over
	//     their points. Every figure and table is byte-identical at every
	//     worker count.
	//   - CheckpointInterval, FastForward and FFWarmup shape the
	//     fault-injection campaigns (Ext-A, Ext-C, Ext-F, Ext-G, Ext-I),
	//     each through one plan; Ext-F's multi-fault windows are entries of
	//     such a campaign. Tables are byte-identical at every interval;
	//     fast-forwarded cycle and latency columns are window-relative.
	//   - Metrics accumulates the experiment's metrics: RunSuite exports
	//     every run's pipeline.Stats in (benchmark, mode) order, and the
	//     campaign experiments merge their campaign registries in campaign
	//     order. Must not be shared by concurrent experiment runs.
	//   - Ctx cancels the experiment (typically SIGINT), flushing partial
	//     metrics.
	//   - Resilience isolates, budgets and retries runs. With Isolate set,
	//     RunSuite quarantines failing cells into Suite.Failures instead of
	//     aborting.
	//   - Cache and CacheVerify serve suite cells, sweep points and campaign
	//     cells from the run store; every table is byte-identical to an
	//     uncached run. Every completed cell is stored before it is
	//     reported, so rerunning an interrupted experiment on the same
	//     store resumes it.
	//   - OnProgress observes every completed campaign run of the
	//     fault-injection experiments (internal/serve streams job progress
	//     from it).
	sim.Config
	// Benchmarks to run (default: the full 16-benchmark suite in Figure 7
	// order).
	Benchmarks []string
}

// DefaultOptions returns the standard experiment setup.
func DefaultOptions() Options {
	return Options{
		Config:     sim.Default(pipeline.ModeSingle, 300_000),
		Benchmarks: prog.BenchmarkNames(),
	}
}

func (o *Options) fill() {
	if o.MaxInstructions <= 0 {
		o.MaxInstructions = DefaultOptions().MaxInstructions
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = prog.BenchmarkNames()
	}
	if o.Machine.FetchWidth == 0 {
		o.Machine = pipeline.DefaultConfig()
	}
}

// RunConfig derives one run's config from the base: the given mode and
// machine variant, with no tracer or metrics registry. Single runs
// fan out concurrently, and the experiment exports their statistics itself;
// an attached registry would also make them bypass the cache. Campaigns
// take the registry back (runCampaign).
func (o *Options) RunConfig(mode pipeline.Mode, machine pipeline.Config) sim.Config {
	cfg := o.Config
	cfg.Mode, cfg.Machine = mode, machine
	cfg.Trace, cfg.Metrics = nil, nil
	return cfg
}

// runCampaign runs one campaign of a campaign experiment — one run per
// window of sites, or per site when windows is nil. Campaigns run one
// after another, so each merges its per-worker registries straight into
// opts.Metrics.
func runCampaign(opts *Options, mode pipeline.Mode, bench string, sites []fault.Site, windows []sim.Window, iopts sim.InjectOptions) (*sim.CampaignSummary, error) {
	p, err := prog.Benchmark(bench)
	if err != nil {
		return nil, err
	}
	cfg := opts.RunConfig(mode, opts.Machine)
	cfg.Metrics = opts.Metrics
	return sim.CampaignWindows(cfg, p, sites, windows, iopts)
}

// comparedModes are the machines the fault-injection and seed studies
// compare: unprotected, SRT and BlackJack.
var comparedModes = []pipeline.Mode{pipeline.ModeSingle, pipeline.ModeSRT, pipeline.ModeBlackJack}

// campaignRows runs one campaign per compared mode over sites and
// aggregates each into a row — the body Ext-A, Ext-G and Ext-I share.
func campaignRows(opts *Options, benchmark string, sites []fault.Site) ([]ExtARow, error) {
	var rows []ExtARow
	for _, mode := range comparedModes {
		sum, err := runCampaign(opts, mode, benchmark, sites, nil, sim.InjectOptions{SplitPayload: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, extARowFromSummary(mode, len(sites), sum))
	}
	return rows, nil
}

// campaignColumns are the columns of a per-mode campaign table (ExtARow.cells).
var campaignColumns = []string{"mode", "sites", "activated", "detected", "silent", "benign", "wedged", "quarantined", "detection-rate(%)", "avg-latency(cycles)"}

// cells renders the row as campaignColumns.
func (r ExtARow) cells() []string {
	lat := "-"
	if r.AvgDetectLatency >= 0 {
		lat = fmt.Sprintf("%.0f", r.AvgDetectLatency)
	}
	return []string{r.Mode.String(), fmt.Sprint(r.Sites), fmt.Sprint(r.Activated),
		fmt.Sprint(r.Detected), fmt.Sprint(r.Silent), fmt.Sprint(r.Benign),
		fmt.Sprint(r.Wedged), fmt.Sprint(r.Quarantined), stats.Pct(r.Rate), lat}
}

// campaignTable renders per-mode campaign rows (Ext-A, Ext-G).
func campaignTable(title string, rows []ExtARow) *stats.Table {
	t := stats.NewTable(title, campaignColumns...)
	for _, r := range rows {
		t.AddRow(r.cells()...)
	}
	return t
}

// Suite holds one full run of all benchmarks under all four modes.
type Suite struct {
	Opts    Options
	Results map[string]map[pipeline.Mode]*sim.Result
	// Failures lists quarantined (benchmark, mode) cells — runs that
	// panicked, diverged from the golden model or exceeded their budget
	// while Opts.Resilience.Isolate was set. Benchmarks with any failed
	// cell are excluded from every figure; the remaining rows are
	// byte-identical to a suite run over the healthy benchmarks alone.
	Failures []SuiteFailure
}

// SuiteFailure is one quarantined suite cell.
type SuiteFailure struct {
	Benchmark string
	Mode      pipeline.Mode
	Err       string
	// Repro re-runs just the failed cell.
	Repro string
}

// complete returns the benchmarks every figure aggregates over: those whose
// four mode cells all ran. Without quarantined cells it is the full
// benchmark list.
func (s *Suite) complete() []string {
	if len(s.Failures) == 0 {
		return s.Opts.Benchmarks
	}
	bad := make(map[string]bool, len(s.Failures))
	for _, f := range s.Failures {
		bad[f.Benchmark] = true
	}
	out := make([]string, 0, len(s.Opts.Benchmarks))
	for _, b := range s.Opts.Benchmarks {
		if !bad[b] {
			out = append(out, b)
		}
	}
	return out
}

// FailuresTable renders the quarantined cells (empty table when none).
func (s *Suite) FailuresTable() *stats.Table {
	t := stats.NewTable("Quarantined suite cells (excluded from every figure)",
		"benchmark", "mode", "error", "repro")
	for _, f := range s.Failures {
		t.AddRow(f.Benchmark, f.Mode.String(), f.Err, f.Repro)
	}
	return t
}

// RunSuite executes the whole suite: every benchmark under every mode. The
// (benchmark, mode) pairs are independent machines and fan out across
// opts.Parallel workers; results are assembled in input order, so the suite
// — and every figure derived from it — is byte-identical at any worker
// count.
func RunSuite(opts Options) (*Suite, error) {
	opts.fill()
	// Generate each benchmark's program once; the mode runs share it
	// (programs are immutable once built — every machine copies the data
	// image at construction).
	progs, err := parallel.MapCtx(opts.Ctx, opts.Parallel, len(opts.Benchmarks), func(i int) (*isa.Program, error) {
		p, err := prog.Benchmark(opts.Benchmarks[i])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", opts.Benchmarks[i], err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	modes := sim.AllModes
	// A cell is one (benchmark, mode) run; with Resilience.Isolate set, a
	// failing cell is quarantined into a SuiteFailure instead of aborting
	// the fan-out (panics are already isolated by the parallel pool).
	type cell struct {
		res  *sim.Result
		fail *SuiteFailure
	}
	runCell := func(k int) (*sim.Result, error) {
		name, mode := opts.Benchmarks[k/len(modes)], modes[k%len(modes)]
		r, err := sim.RunProgram(opts.RunConfig(mode, opts.Machine), progs[k/len(modes)])
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		if !r.OutputMatches {
			return nil, fmt.Errorf("experiments: %s/%v: output diverged from golden model", name, mode)
		}
		return r, nil
	}
	cells, err := parallel.MapCtx(opts.Ctx, opts.Parallel, len(opts.Benchmarks)*len(modes), func(k int) (c cell, err error) {
		if opts.Resilience.Isolate {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
				if err != nil && (opts.Ctx == nil || opts.Ctx.Err() == nil) {
					name, mode := opts.Benchmarks[k/len(modes)], modes[k%len(modes)]
					c = cell{fail: &SuiteFailure{
						Benchmark: name, Mode: mode, Err: err.Error(),
						Repro: fmt.Sprintf("bjsim -bench %s -mode %s -n %d", name, mode, opts.MaxInstructions),
					}}
					err = nil
				}
			}()
		}
		r, err := runCell(k)
		if err != nil {
			return cell{}, err
		}
		return cell{res: r}, nil
	})
	if err != nil {
		return nil, err
	}
	s := &Suite{Opts: opts, Results: make(map[string]map[pipeline.Mode]*sim.Result, len(opts.Benchmarks))}
	for i, name := range opts.Benchmarks {
		rs := make(map[pipeline.Mode]*sim.Result, len(modes))
		for j, mode := range modes {
			c := cells[i*len(modes)+j]
			if c.fail != nil {
				s.Failures = append(s.Failures, *c.fail)
				continue
			}
			rs[mode] = c.res
		}
		s.Results[name] = rs
	}
	if opts.Metrics != nil {
		// Export after assembly, in input order: the sums are identical at
		// every worker count because each run's stats are deterministic.
		// Quarantined cells contribute only the suite.quarantined counter,
		// so the healthy cells' metrics match a clean suite over them.
		opts.Metrics.Counter("suite.runs").Add(uint64(len(cells) - len(s.Failures)))
		if len(s.Failures) > 0 {
			opts.Metrics.Counter("suite.quarantined").Add(uint64(len(s.Failures)))
		}
		for _, c := range cells {
			if c.res != nil {
				c.res.Stats.Export(opts.Metrics)
			}
		}
	}
	return s, nil
}

func (s *Suite) get(bench string, mode pipeline.Mode) *sim.Result {
	return s.Results[bench][mode]
}

// mean of f over the suite's complete benchmarks.
func (s *Suite) mean(f func(bench string) float64) float64 {
	bs := s.complete()
	vals := make([]float64, 0, len(bs))
	for _, b := range bs {
		vals = append(vals, f(b))
	}
	return stats.Mean(vals)
}

// Table1 renders the processor parameters (the paper's Table 1).
func Table1(machine pipeline.Config) *stats.Table {
	t := stats.NewTable("Table 1: Processor Parameters", "parameter", "value")
	t.AddRow("Out-of-order issue", fmt.Sprintf("%d instructions/cycle", machine.IssueWidth))
	t.AddRow("Active list", fmt.Sprintf("%d entries (%d-entry LSQ)", machine.ActiveList, machine.LSQ))
	t.AddRow("Issue queue", fmt.Sprintf("%d entries", machine.IssueQueue))
	t.AddRow("Caches", fmt.Sprintf("%dKB %d-way %d-cycle L1 (%d ports); %dMB %d-way unified L2",
		machine.Cache.L1SizeKB, machine.Cache.L1Ways, machine.Cache.L1Lat, machine.Units[5],
		machine.Cache.L2SizeKB/1024, machine.Cache.L2Ways))
	t.AddRow("Memory", fmt.Sprintf("%d cycles", machine.Cache.MemLat))
	t.AddRow("Int ALUs", fmt.Sprintf("%d int ALUs, %d int multipliers, %d int dividers",
		machine.Units[0], machine.Units[1], machine.Units[2]))
	t.AddRow("FP ALUs", fmt.Sprintf("%d FP ALUs, %d FP multipliers", machine.Units[3], machine.Units[4]))
	t.AddRow("Store Buffer", fmt.Sprintf("%d entries", machine.StoreBuffer))
	t.AddRow("LVQ", fmt.Sprintf("%d entries", machine.LVQ))
	t.AddRow("BOQ", fmt.Sprintf("%d entries", machine.BOQ))
	t.AddRow("Slack", fmt.Sprintf("%d instructions", machine.Slack))
	t.AddRow("DTQ", fmt.Sprintf("%d instructions", machine.DTQ))
	t.AddRow("Physical registers", fmt.Sprintf("%d", machine.PhysRegs))
	return t
}

// Fig4Row is one benchmark's coverage data point.
type Fig4Row struct {
	Benchmark string
	SRT       float64
	BlackJack float64
}

// Figure4 returns hard-error instruction coverage: total (Figure 4a, the
// area-weighted metric) and backend-only (Figure 4b).
func (s *Suite) Figure4() (total, backend []Fig4Row) {
	for _, b := range s.complete() {
		srt, bj := s.get(b, pipeline.ModeSRT).Stats, s.get(b, pipeline.ModeBlackJack).Stats
		total = append(total, Fig4Row{b, srt.Coverage(), bj.Coverage()})
		backend = append(backend, Fig4Row{b, srt.BackendDiversity(), bj.BackendDiversity()})
	}
	avg := func(rows []Fig4Row) Fig4Row {
		var a, c float64
		for _, r := range rows {
			a += r.SRT
			c += r.BlackJack
		}
		n := float64(len(rows))
		return Fig4Row{"average", a / n, c / n}
	}
	total = append(total, avg(total))
	backend = append(backend, avg(backend))
	return total, backend
}

func fig4Table(title string, rows []Fig4Row) *stats.Table {
	t := stats.NewTable(title, "benchmark", "SRT(%)", "BlackJack(%)")
	for _, r := range rows {
		t.AddRow(r.Benchmark, stats.Pct(r.SRT), stats.Pct(r.BlackJack))
	}
	return t
}

// Figure4aTable renders coverage of the entire pipeline.
func (s *Suite) Figure4aTable() *stats.Table {
	total, _ := s.Figure4()
	return fig4Table("Figure 4a: Hard-error instruction coverage, entire pipeline", total)
}

// Figure4bTable renders backend-only coverage.
func (s *Suite) Figure4bTable() *stats.Table {
	_, backend := s.Figure4()
	return fig4Table("Figure 4b: Hard-error instruction coverage, backend only", backend)
}

// Fig5Row is one benchmark's interference data point.
type Fig5Row struct {
	Benchmark string
	TT        float64 // trailing-trailing, fraction of issue cycles
	LT        float64 // leading-trailing
}

// Figure5 returns the interference breakdown under BlackJack.
func (s *Suite) Figure5() []Fig5Row {
	bs := s.complete()
	rows := make([]Fig5Row, 0, len(bs)+1)
	var tt, lt float64
	for _, b := range bs {
		st := s.get(b, pipeline.ModeBlackJack).Stats
		rows = append(rows, Fig5Row{b, st.TTInterferenceFrac(), st.LTInterferenceFrac()})
		tt += st.TTInterferenceFrac()
		lt += st.LTInterferenceFrac()
	}
	n := float64(len(bs))
	return append(rows, Fig5Row{"average", tt / n, lt / n})
}

// Figure5Table renders the interference breakdown.
func (s *Suite) Figure5Table() *stats.Table {
	t := stats.NewTable("Figure 5: Issue cycles with interference violating spatial diversity",
		"benchmark", "trailing-trailing(%)", "leading-trailing(%)")
	for _, r := range s.Figure5() {
		t.AddRow(r.Benchmark, stats.Pct(r.TT), stats.Pct(r.LT))
	}
	return t
}

// Fig6Row is one benchmark's issue-burstiness data point.
type Fig6Row struct {
	Benchmark string
	SingleCtx float64 // fraction of issue cycles issuing from one context
}

// Figure6 returns the fraction of issue cycles in which all issued
// instructions came from the same context (BlackJack runs).
func (s *Suite) Figure6() []Fig6Row {
	bs := s.complete()
	rows := make([]Fig6Row, 0, len(bs)+1)
	var sum float64
	for _, b := range bs {
		st := s.get(b, pipeline.ModeBlackJack).Stats
		rows = append(rows, Fig6Row{b, st.SingleContextFrac()})
		sum += st.SingleContextFrac()
	}
	return append(rows, Fig6Row{"average", sum / float64(len(bs))})
}

// Figure6Table renders issue burstiness.
func (s *Suite) Figure6Table() *stats.Table {
	t := stats.NewTable("Figure 6: Issue cycles with all instructions from one context",
		"benchmark", "single-context(%)")
	for _, r := range s.Figure6() {
		t.AddRow(r.Benchmark, stats.Pct(r.SingleCtx))
	}
	return t
}

// Fig7Row is one benchmark's normalized performance data point.
type Fig7Row struct {
	Benchmark   string
	SRT         float64 // performance normalized to single-thread (1.0 = equal)
	BlackJackNS float64
	BlackJack   float64
}

// Figure7 returns performance of SRT, BlackJack-NS and BlackJack normalized
// to the non-fault-tolerant single thread, in the suite's (increasing-IPC)
// benchmark order.
func (s *Suite) Figure7() []Fig7Row {
	bs := s.complete()
	rows := make([]Fig7Row, 0, len(bs)+1)
	var a, b2, c float64
	for _, b := range bs {
		single := s.get(b, pipeline.ModeSingle)
		row := Fig7Row{
			Benchmark:   b,
			SRT:         s.get(b, pipeline.ModeSRT).NormalizedPerf(single),
			BlackJackNS: s.get(b, pipeline.ModeBlackJackNS).NormalizedPerf(single),
			BlackJack:   s.get(b, pipeline.ModeBlackJack).NormalizedPerf(single),
		}
		rows = append(rows, row)
		a += row.SRT
		b2 += row.BlackJackNS
		c += row.BlackJack
	}
	n := float64(len(bs))
	return append(rows, Fig7Row{"average", a / n, b2 / n, c / n})
}

// Figure7Table renders normalized performance.
func (s *Suite) Figure7Table() *stats.Table {
	t := stats.NewTable("Figure 7: Performance normalized to single thread (benchmarks in increasing-IPC order)",
		"benchmark", "IPC(1T)", "SRT(%)", "BlackJack-NS(%)", "BlackJack(%)")
	rows := s.Figure7()
	for _, r := range rows {
		ipc := ""
		if r.Benchmark != "average" {
			ipc = stats.F2(s.get(r.Benchmark, pipeline.ModeSingle).Stats.IPC())
		}
		t.AddRow(r.Benchmark, ipc, stats.Pct(r.SRT), stats.Pct(r.BlackJackNS), stats.Pct(r.BlackJack))
	}
	return t
}

// Headline aggregates the numbers quoted in the paper's abstract and
// conclusions for quick comparison.
type Headline struct {
	SRTCoverage     float64 // paper: 0.34
	BJCoverage      float64 // paper: 0.97
	SRTSlowdown     float64 // paper: 0.21
	BJSlowdown      float64 // paper: 0.33
	BJOverSRT       float64 // paper: 0.15
	AvgSingleCtx    float64 // paper: 0.70
	AvgTTInterf     float64 // paper: 0.005
	AvgLTInterf     float64 // paper: 0.023
	ShuffleSlowdown float64 // BJ vs BJ-NS; paper: 0.05
}

// Headline computes the aggregate comparison numbers.
func (s *Suite) Headline() Headline {
	var h Headline
	h.SRTCoverage = s.mean(func(b string) float64 { return s.get(b, pipeline.ModeSRT).Stats.Coverage() })
	h.BJCoverage = s.mean(func(b string) float64 { return s.get(b, pipeline.ModeBlackJack).Stats.Coverage() })
	h.SRTSlowdown = 1 - s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeSRT).NormalizedPerf(s.get(b, pipeline.ModeSingle))
	})
	h.BJSlowdown = 1 - s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).NormalizedPerf(s.get(b, pipeline.ModeSingle))
	})
	h.BJOverSRT = 1 - s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).NormalizedPerf(s.get(b, pipeline.ModeSRT))
	})
	h.ShuffleSlowdown = 1 - s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).NormalizedPerf(s.get(b, pipeline.ModeBlackJackNS))
	})
	h.AvgSingleCtx = s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).Stats.SingleContextFrac()
	})
	h.AvgTTInterf = s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).Stats.TTInterferenceFrac()
	})
	h.AvgLTInterf = s.mean(func(b string) float64 {
		return s.get(b, pipeline.ModeBlackJack).Stats.LTInterferenceFrac()
	})
	return h
}

// HeadlineTable renders the paper-vs-measured headline comparison.
func (s *Suite) HeadlineTable() *stats.Table {
	h := s.Headline()
	t := stats.NewTable("Headline paper-vs-measured comparison", "metric", "paper", "measured")
	t.AddRow("SRT coverage (%)", "34", stats.Pct(h.SRTCoverage))
	t.AddRow("BlackJack coverage (%)", "97", stats.Pct(h.BJCoverage))
	t.AddRow("SRT slowdown vs single (%)", "21", stats.Pct(h.SRTSlowdown))
	t.AddRow("BlackJack slowdown vs single (%)", "33", stats.Pct(h.BJSlowdown))
	t.AddRow("BlackJack slowdown vs SRT (%)", "15", stats.Pct(h.BJOverSRT))
	t.AddRow("Shuffle (split) cost vs BlackJack-NS (%)", "5", stats.Pct(h.ShuffleSlowdown))
	t.AddRow("Single-context issue cycles (%)", "70", stats.Pct(h.AvgSingleCtx))
	t.AddRow("Trailing-trailing interference (%)", "0.5", stats.Pct(h.AvgTTInterf))
	t.AddRow("Leading-trailing interference (%)", "2.3", stats.Pct(h.AvgLTInterf))
	return t
}

// ExtARow summarizes a fault-injection campaign for one mode.
type ExtARow struct {
	Mode      pipeline.Mode
	Sites     int
	Activated int
	Detected  int
	Silent    int
	Benign    int
	Wedged    int
	// Quarantined counts runs the resilience layer excluded (panic or
	// exhausted budget); their repro commands are on the campaign summary.
	Quarantined int
	Rate        float64 // detected / (detected+silent) among activated sites
	// AvgDetectLatency is the mean cycles from a fault's first activation to
	// its first detection, over detected runs (-1 when none).
	AvgDetectLatency float64
}

// ExtAFaultInjection runs the standard fault campaign on every mode
// (experiment Ext-A): the empirical validation of the analytic coverage
// metric.
func ExtAFaultInjection(opts Options, benchmark string) ([]ExtARow, error) {
	opts.fill()
	return campaignRows(&opts, benchmark, sim.StandardSites(opts.Machine))
}

// extARowFromSummary aggregates one campaign summary into an ExtARow (shared
// by the hard-fault Ext-A and soft-error Ext-G experiments).
func extARowFromSummary(mode pipeline.Mode, sites int, sum *sim.CampaignSummary) ExtARow {
	row := ExtARow{Mode: mode, Sites: sites, Activated: sum.ActiveRuns, Rate: sum.DetectionRate()}
	var latSum float64
	var latN int
	for _, r := range sum.Results {
		switch r.Outcome {
		case sim.OutcomeDetected:
			row.Detected++
			if r.DetectionLatency >= 0 {
				latSum += float64(r.DetectionLatency)
				latN++
			}
		case sim.OutcomeSilent:
			row.Silent++
		case sim.OutcomeBenign:
			row.Benign++
		case sim.OutcomeWedged:
			row.Wedged++
		case sim.OutcomeQuarantined:
			row.Quarantined++
		}
	}
	row.AvgDetectLatency = -1
	if latN > 0 {
		row.AvgDetectLatency = latSum / float64(latN)
	}
	return row
}

// ExtATable renders the campaign summary.
func ExtATable(rows []ExtARow, benchmark string) *stats.Table {
	return campaignTable(fmt.Sprintf("Ext-A: Empirical fault-injection outcomes on %q (split payload RAMs)", benchmark), rows)
}

// ExtBTable decomposes BlackJack's slowdown over SRT (experiment Ext-B): the
// one-packet-per-cycle fetch cost (SRT to BlackJack-NS) versus the shuffle
// packet-splitting cost (BlackJack-NS to BlackJack). BlackJack-NS is the
// paper's proxy for an ideal no-split shuffle (Section 6.2).
func (s *Suite) ExtBTable() *stats.Table {
	t := stats.NewTable("Ext-B: Slowdown decomposition (ideal-shuffle bound)",
		"benchmark", "SRT->BJ-NS(%)", "BJ-NS->BJ(%)", "SRT->BJ total(%)")
	bs := s.complete()
	var g1, g2, g3 float64
	for _, b := range bs {
		srt := s.get(b, pipeline.ModeSRT)
		ns := s.get(b, pipeline.ModeBlackJackNS)
		bj := s.get(b, pipeline.ModeBlackJack)
		d1 := 1 - ns.NormalizedPerf(srt)
		d2 := 1 - bj.NormalizedPerf(ns)
		d3 := 1 - bj.NormalizedPerf(srt)
		t.AddRow(b, stats.Pct(d1), stats.Pct(d2), stats.Pct(d3))
		g1 += d1
		g2 += d2
		g3 += d3
	}
	n := float64(len(bs))
	t.AddRow("average", stats.Pct(g1/n), stats.Pct(g2/n), stats.Pct(g3/n))
	return t
}

// ExtCRow compares shared vs split payload RAM escapes.
type ExtCRow struct {
	Benchmark                    string
	SharedSilent, SharedDetected int
	SplitSilent, SplitDetected   int
}

// ExtCPayloadRAM sweeps payload-RAM fault slots under shared and split
// payload RAMs (experiment Ext-C, paper Section 4.5).
func ExtCPayloadRAM(opts Options, benchmarks []string) ([]ExtCRow, error) {
	opts.fill()
	if len(benchmarks) == 0 {
		benchmarks = []string{"gzip", "equake"}
	}
	var sites []fault.Site
	for slot := 0; slot < opts.Machine.IssueQueue; slot++ {
		sites = append(sites, fault.Site{
			Class: fault.PayloadRAM, Slot: slot, Thread: 0, Field: fault.FieldImm, BitMask: 2,
		})
	}
	// The benchmark loop stays serial: each Campaign already fans its sites
	// out across opts.Parallel workers, and nesting pools would oversubscribe.
	var rows []ExtCRow
	for _, b := range benchmarks {
		shared, err := runCampaign(&opts, pipeline.ModeBlackJack, b, sites, nil, sim.InjectOptions{SplitPayload: false})
		if err != nil {
			return nil, err
		}
		split, err := runCampaign(&opts, pipeline.ModeBlackJack, b, sites, nil, sim.InjectOptions{SplitPayload: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ExtCRow{
			Benchmark:      b,
			SharedSilent:   shared.Counts[sim.OutcomeSilent],
			SharedDetected: shared.Counts[sim.OutcomeDetected],
			SplitSilent:    split.Counts[sim.OutcomeSilent],
			SplitDetected:  split.Counts[sim.OutcomeDetected],
		})
	}
	return rows, nil
}

// ExtCTable renders the payload-RAM comparison.
func ExtCTable(rows []ExtCRow) *stats.Table {
	t := stats.NewTable("Ext-C: Payload-RAM faults, shared vs split payload RAMs (per-slot campaign)",
		"benchmark", "shared detected", "shared silent", "split detected", "split silent")
	for _, r := range rows {
		t.AddRow(r.Benchmark, fmt.Sprint(r.SharedDetected), fmt.Sprint(r.SharedSilent),
			fmt.Sprint(r.SplitDetected), fmt.Sprint(r.SplitSilent))
	}
	return t
}

// ExtDRow is one slack/DTQ configuration's data point.
type ExtDRow struct {
	Param     string
	Value     int
	Perf      float64 // normalized to single thread
	Coverage  float64
	TTInterf  float64
	Benchmark string
}

// ExtDSweep sweeps the slack target and the DTQ size under BlackJack
// (experiment Ext-D).
func ExtDSweep(opts Options, benchmark string, slacks, dtqs []int) ([]ExtDRow, error) {
	opts.fill()
	if len(slacks) == 0 {
		slacks = []int{64, 128, 256, 512, 1024}
	}
	if len(dtqs) == 0 {
		dtqs = []int{128, 256, 512, 1024}
	}
	sort.Ints(slacks)
	sort.Ints(dtqs)

	p, err := prog.Benchmark(benchmark)
	if err != nil {
		return nil, err
	}
	baseline, err := sim.RunProgram(opts.RunConfig(pipeline.ModeSingle, opts.Machine), p)
	if err != nil {
		return nil, err
	}

	// Flatten both sweeps into one point list and fan out: every point is an
	// independent machine on the shared program.
	type point struct {
		param string
		value int
	}
	points := make([]point, 0, len(slacks)+len(dtqs))
	for _, sl := range slacks {
		points = append(points, point{"slack", sl})
	}
	for _, d := range dtqs {
		points = append(points, point{"dtq", d})
	}
	rows, err := parallel.MapCtx(opts.Ctx, opts.Parallel, len(points), func(i int) (ExtDRow, error) {
		machine := opts.Machine
		if points[i].param == "slack" {
			machine.Slack = points[i].value
		} else {
			machine.DTQ = points[i].value
		}
		r, err := sim.RunProgram(opts.RunConfig(pipeline.ModeBlackJack, machine), p)
		if err != nil {
			return ExtDRow{}, err
		}
		return ExtDRow{
			Param: points[i].param, Value: points[i].value, Benchmark: benchmark,
			Perf:     r.NormalizedPerf(baseline),
			Coverage: r.Stats.Coverage(),
			TTInterf: r.Stats.TTInterferenceFrac(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ExtDTable renders the sweep.
func ExtDTable(rows []ExtDRow) *stats.Table {
	t := stats.NewTable("Ext-D: Slack / DTQ sensitivity (BlackJack)",
		"benchmark", "param", "value", "perf-vs-1T(%)", "coverage(%)", "tt-interference(%)")
	for _, r := range rows {
		t.AddRow(r.Benchmark, r.Param, fmt.Sprint(r.Value),
			stats.Pct(r.Perf), stats.Pct(r.Coverage), stats.Pct(r.TTInterf))
	}
	return t
}

// ExtERow compares baseline BlackJack with the merging-shuffle extension.
type ExtERow struct {
	Benchmark   string
	BasePerf    float64 // normalized to single thread
	MergePerf   float64
	BaseCov     float64
	MergeCov    float64
	Merged      uint64 // packet pairs combined
	PacketsBase uint64
	PacketsMrg  uint64
}

// ExtEMergingShuffle evaluates the paper's Section 6.2 future-work
// suggestion: a shuffle that uses the DTQ's inter-packet dependence
// information to combine adjacent independent packets, recovering trailing
// fetch bandwidth lost to the one-packet-per-cycle rule.
func ExtEMergingShuffle(opts Options, benchmarks []string) ([]ExtERow, error) {
	opts.fill()
	if len(benchmarks) == 0 {
		benchmarks = []string{"equake", "gcc", "gzip", "sixtrack"}
	}
	// Fan out over (benchmark, variant) runs — three independent machines per
	// benchmark — then assemble rows from the ordered results.
	const variants = 3 // single, BlackJack, BlackJack+merge
	runs, err := parallel.MapCtx(opts.Ctx, opts.Parallel, len(benchmarks)*variants, func(k int) (*sim.Result, error) {
		p, err := prog.Benchmark(benchmarks[k/variants])
		if err != nil {
			return nil, err
		}
		machine, mode := opts.Machine, pipeline.ModeBlackJack
		switch k % variants {
		case 0:
			mode = pipeline.ModeSingle
		case 2:
			machine.MergePackets = true
		}
		return sim.RunProgram(opts.RunConfig(mode, machine), p)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ExtERow, 0, len(benchmarks))
	for i, b := range benchmarks {
		single, base, merged := runs[i*variants], runs[i*variants+1], runs[i*variants+2]
		rows = append(rows, ExtERow{
			Benchmark:   b,
			BasePerf:    base.NormalizedPerf(single),
			MergePerf:   merged.NormalizedPerf(single),
			BaseCov:     base.Stats.Coverage(),
			MergeCov:    merged.Stats.Coverage(),
			Merged:      merged.Stats.MergedPackets,
			PacketsBase: base.Stats.TrailingPackets,
			PacketsMrg:  merged.Stats.TrailingPackets,
		})
	}
	return rows, nil
}

// ExtETable renders the merging-shuffle comparison.
func ExtETable(rows []ExtERow) *stats.Table {
	t := stats.NewTable("Ext-E: Merging shuffle (Section 6.2 extension) vs baseline BlackJack",
		"benchmark", "perf base(%)", "perf merge(%)", "cov base(%)", "cov merge(%)", "pairs merged", "trail packets base", "trail packets merge")
	for _, r := range rows {
		t.AddRow(r.Benchmark, stats.Pct(r.BasePerf), stats.Pct(r.MergePerf),
			stats.Pct(r.BaseCov), stats.Pct(r.MergeCov),
			fmt.Sprint(r.Merged), fmt.Sprint(r.PacketsBase), fmt.Sprint(r.PacketsMrg))
	}
	return t
}

// ExtFRow summarizes a multi-fault campaign round.
type ExtFRow struct {
	Faults    int
	Runs      int
	Activated int
	Detected  int
	Silent    int
	Wedged    int
}

// ExtFMultiFault injects combinations of multiple uncorrelated hard faults
// simultaneously (paper Section 4.5: "BlackJack can be effective for
// multiple uncorrelated errors") and classifies outcomes under BlackJack.
func ExtFMultiFault(opts Options, benchmark string, maxFaults int) ([]ExtFRow, error) {
	opts.fill()
	if maxFaults <= 0 {
		maxFaults = 3
	}
	all := sim.StandardSites(opts.Machine)
	// Deterministic combinations: consecutive windows over the standard site
	// list, stride chosen so the k faults land in distinct classes. Each
	// (k, start) window is one entry of a single campaign; rows aggregate
	// the ordered results per fault count afterwards.
	var windows []sim.Window
	for k := 1; k <= maxFaults; k++ {
		for start := 0; start+k <= len(all); start += k + 2 {
			windows = append(windows, sim.Window{Lo: start, Hi: start + k})
		}
	}
	sum, err := runCampaign(&opts, pipeline.ModeBlackJack, benchmark, all, windows, sim.InjectOptions{SplitPayload: true})
	if err != nil {
		return nil, err
	}
	rows := make([]ExtFRow, maxFaults)
	for k := 1; k <= maxFaults; k++ {
		rows[k-1].Faults = k
	}
	for i, r := range sum.Results {
		row := &rows[windows[i].Hi-windows[i].Lo-1]
		row.Runs++
		if r.Activations > 0 {
			row.Activated++
		}
		switch r.Outcome {
		case sim.OutcomeDetected:
			row.Detected++
		case sim.OutcomeSilent:
			row.Silent++
		case sim.OutcomeWedged:
			row.Wedged++
		}
	}
	return rows, nil
}

// ExtFTable renders the multi-fault campaign.
func ExtFTable(rows []ExtFRow, benchmark string) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ext-F: Multiple uncorrelated hard faults on %q (BlackJack)", benchmark),
		"faults", "runs", "activated", "detected", "silent", "wedged")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.Faults), fmt.Sprint(r.Runs), fmt.Sprint(r.Activated),
			fmt.Sprint(r.Detected), fmt.Sprint(r.Silent), fmt.Sprint(r.Wedged))
	}
	return t
}

// ExtGSoftErrors runs the transient (soft-error) campaign per mode
// (experiment Ext-G): one-shot corruptions that temporal redundancy alone
// catches. Expected shape: the unprotected machine corrupts silently or is
// lucky (wrong-path hits are benign); SRT and BlackJack detect every
// activated transient.
func ExtGSoftErrors(opts Options, benchmark string) ([]ExtARow, error) {
	opts.fill()
	return campaignRows(&opts, benchmark, sim.TransientSites(opts.Machine, 20))
}

// ExtGTable renders the soft-error campaign.
func ExtGTable(rows []ExtARow, benchmark string) *stats.Table {
	return campaignTable(fmt.Sprintf("Ext-G: Transient (soft-error) injection on %q — one corruption per site", benchmark), rows)
}

// ExtHRow is one seed set's aggregate metrics over the chosen benchmarks.
type ExtHRow struct {
	SeedOffset uint64
	SRTCov     float64
	BJCov      float64
	SRTPerf    float64 // normalized to single thread
	BJPerf     float64
}

// ExtHSeedRobustness re-runs the headline metrics with the workload
// generator reseeded per offset: the conclusions must not be artifacts of one
// random instruction stream. Each run's seed is derived from its (benchmark,
// offset) identity via prog.DeriveSeed — never from shared mutable state —
// so an offset means the same instruction stream at any worker count and in
// any execution order, and distinct (benchmark, offset) pairs never alias
// (the suite's base seeds are consecutive; naive base+offset arithmetic
// would collide one benchmark's offset stream with a neighbour's baseline).
func ExtHSeedRobustness(opts Options, offsets []uint64) ([]ExtHRow, error) {
	opts.fill()
	if len(offsets) == 0 {
		offsets = []uint64{0, 10_000, 20_000}
	}
	// One flattened work list over (offset, benchmark): each item generates
	// its reseeded program and runs the three modes on it.
	type cell struct{ res [3]*sim.Result }
	nb := len(opts.Benchmarks)
	cells, err := parallel.MapCtx(opts.Ctx, opts.Parallel, len(offsets)*nb, func(k int) (cell, error) {
		off, bench := offsets[k/nb], opts.Benchmarks[k%nb]
		p, err := prog.SeededBenchmark(bench, off)
		if err != nil {
			return cell{}, err
		}
		var c cell
		for i, mode := range comparedModes {
			r, err := sim.RunProgram(opts.RunConfig(mode, opts.Machine), p)
			if err != nil {
				return cell{}, err
			}
			if !r.OutputMatches {
				return cell{}, fmt.Errorf("experiments: %s seed+%d/%v diverged from golden model", bench, off, mode)
			}
			c.res[i] = r
		}
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ExtHRow, 0, len(offsets))
	for oi, off := range offsets {
		row := ExtHRow{SeedOffset: off}
		for bi := 0; bi < nb; bi++ {
			res := cells[oi*nb+bi].res
			row.SRTCov += res[1].Stats.Coverage()
			row.BJCov += res[2].Stats.Coverage()
			row.SRTPerf += res[1].NormalizedPerf(res[0])
			row.BJPerf += res[2].NormalizedPerf(res[0])
		}
		f := float64(nb)
		row.SRTCov /= f
		row.BJCov /= f
		row.SRTPerf /= f
		row.BJPerf /= f
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtHTable renders the seed-robustness study.
func ExtHTable(rows []ExtHRow, benchmarks []string) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ext-H: Seed robustness over %v", benchmarks),
		"seed-offset", "SRT cov(%)", "BJ cov(%)", "SRT perf(%)", "BJ perf(%)")
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.SeedOffset), stats.Pct(r.SRTCov), stats.Pct(r.BJCov),
			stats.Pct(r.SRTPerf), stats.Pct(r.BJPerf))
	}
	return t
}

// ExtIRow is one (fault kind, mode) campaign outcome of the fault-model
// diversity study.
type ExtIRow struct {
	Kind fault.Kind
	ExtARow
}

// ExtISoftIntermittent runs the fault-model diversity study (experiment
// Ext-I): the canonical campaign of every non-permanent fault kind —
// one-shot transients, duty-cycled intermittents, multi-bit stuck-at/flip
// patterns, and control-flow errors — under the unprotected machine, SRT,
// and BlackJack. The paper targets hard errors (Section 3); this table shows
// the same temporal-redundancy machinery degrades gracefully across the
// soft and intermittent regimes: SRT and BlackJack detect every activated
// fault the comparison points can see, and the unprotected machine's silent
// column is the exposure being bought down.
func ExtISoftIntermittent(opts Options, benchmark string) ([]ExtIRow, error) {
	opts.fill()
	kinds := []fault.Kind{
		fault.KindTransient, fault.KindIntermittent,
		fault.KindMultiBit, fault.KindControlFlow,
	}
	var rows []ExtIRow
	for _, kind := range kinds {
		sites, err := sim.SitesForKind(opts.Machine, kind)
		if err != nil {
			return nil, err
		}
		kindRows, err := campaignRows(&opts, benchmark, sites)
		if err != nil {
			return nil, err
		}
		for _, r := range kindRows {
			rows = append(rows, ExtIRow{Kind: kind, ExtARow: r})
		}
	}
	return rows, nil
}

// ExtITable renders the fault-model diversity study.
func ExtITable(rows []ExtIRow, benchmark string) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ext-I: Fault-model diversity on %q — SRT vs BlackJack beyond hard errors", benchmark),
		append([]string{"kind"}, campaignColumns...)...)
	for _, r := range rows {
		t.AddRow(append([]string{r.Kind.String()}, r.cells()...)...)
	}
	return t
}
