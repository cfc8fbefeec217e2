// Package sim wires the substrates into runnable experiments: it builds a
// machine for one of the four configurations (single, SRT, BlackJack-NS,
// BlackJack), runs a workload for a committed-instruction budget, validates
// the released store stream against the functional golden model, and runs
// hard-fault injection campaigns with outcome classification.
package sim

import (
	"context"
	"fmt"

	"blackjack/internal/detect"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/runcache"
)

// Config describes one simulation.
type Config struct {
	// Machine is the core configuration (Table 1 defaults via Default()).
	Machine pipeline.Config
	// Mode selects the redundancy configuration.
	Mode pipeline.Mode
	// MaxInstructions is the leading-thread committed-instruction budget.
	MaxInstructions int
	// Parallel bounds the worker count of batch entry points built on this
	// config (Campaign, RunAllModes); <= 0 selects runtime.NumCPU(). A single
	// simulation is always one machine on one goroutine — results are
	// byte-identical at every worker count.
	Parallel int
	// CheckpointInterval, when positive, makes campaigns snapshot their
	// fault-free warmup and fork each injection from the latest snapshot
	// preceding its fault's first activation, instead of replaying the
	// warmup prefix cold (see CampaignPlan). Snapshots, like fast-forward
	// marks, lie on a grid of gcd(CheckpointInterval, 500) cycles. A run
	// whose faults are spent compares against every kept snapshot it
	// passes, and ends early where its state equals one. Besides fork
	// sources, the plan keeps as such reconvergence references the three
	// grid points after each one-shot transient's shot and, once a shot
	// has fired, every multiple of the interval. Results are byte-identical
	// at every interval; only wall-clock and memory change (a retained
	// snapshot holds the machine's state, sharing the pages that equal the
	// previous one's). 0 disables checkpointing.
	CheckpointInterval int64
	// FastForward enables sampled campaign execution: an injection whose
	// fault cannot corrupt anything before a known warmup cycle is served by
	// running the golden ISA emulator functionally to a handoff instruction
	// just before that window, seeding a warm cycle-accurate machine from the
	// architectural state (see pipeline.NewFromArch), and simulating only the
	// activation window. Outcome tables are identical to full simulation
	// (serve's TestCampaignPathMatrix checks it); cycle counts, activation
	// totals and detection latencies of fast-forwarded runs are
	// window-relative, not whole-program. Composes with CheckpointInterval:
	// sites with an early first activation still fork from warmup
	// snapshots.
	FastForward bool
	// FFWarmup is the fast-forward warmup lead in committed instructions:
	// the handoff is placed this many instructions before the activation
	// window so queues, the predictor and the redundancy coupling re-approach
	// steady state before the fault can fire. <= 0 selects DefaultFFWarmup.
	FFWarmup int
	// Trace, when non-nil, records structured pipeline events of the
	// single-machine entry points, RunProgram and InjectProgram, for
	// Chrome-trace export. InjectProgram traces the machine its one-site
	// campaign's run steps, cold, forked or fast-forwarded (a never-fires
	// run served from the warmup records nothing). Campaign entry points
	// refuse a tracer: a trace of many interleaved machines would be
	// meaningless and racy. Simulation results are unaffected.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives the run's metrics: the machine's
	// occupancy histograms and the final Stats counters for single runs;
	// campaign outcome/latency counters (merged deterministically from
	// per-worker registries) for Campaign entry points; and both for
	// InjectProgram, whose machine metrics cover the run it traces. An
	// observed (traced or metered) injection runs once, live: it bypasses
	// Cache and refuses Resilience.Retries. Must not be shared with
	// concurrently running simulations. Simulation results are unaffected.
	Metrics *obs.Registry
	// Ctx, when non-nil, bounds every entry point built on this config:
	// cancellation (typically SIGINT via signal.NotifyContext) stops new
	// runs, drains in-flight ones at the next context poll, flushes
	// partial metrics, and surfaces the context's error. Every cell that
	// completed is already in Cache, so rerunning the campaign on the same
	// store resumes it. nil means uncancellable.
	Ctx context.Context
	// Resilience tunes per-run isolation, wall-clock budgets and retries
	// for campaign entry points, InjectProgram among them; single runs
	// honor RunTimeout. The zero value disables all of it.
	Resilience Resilience
	// Cache, when non-nil, is the run store (see internal/runcache), the
	// one place completed work is kept: campaign cells (standalone
	// injections among them) and verified single runs whose full identity
	// (program content, machine, mode, budget, site or window, execution
	// plan) matches a stored entry are served from it instead of
	// simulated. Simulation determinism makes this sound; results and
	// stdout tables are byte-identical with or without the store. It is
	// also how a campaign resumes: a live cell is stored, durably, before
	// its progress event fires, so rerunning an interrupted campaign on
	// the same store simulates only the cells it had not finished. Without
	// a store there is no resume. Quarantined runs are never stored, so a
	// resume runs them again, and an evicted cell is simulated again.
	// Single runs and injections bypass the store when Trace or Metrics is
	// attached — live occupancy histograms and event traces cannot be
	// replayed from a stored outcome.
	Cache *runcache.Store
	// CacheVerify is the trust-but-verify sampling fraction in [0,1]: that
	// share of cache hits (deterministically chosen by entry address) is
	// recomputed live and diffed against the stored outcome, with
	// divergences counted on the store and the live result served.
	CacheVerify float64
	// OnProgress, when non-nil, receives one RunProgress per completed
	// campaign run — live and store-served alike — as the campaign
	// executes, after a live run's cell is in Cache. This is the job-level
	// progress hook the campaign service streams events from. Called from
	// worker goroutines
	// (never concurrently for the same index, but concurrently across
	// indices), so the callback must be safe for concurrent use; it must
	// not block, and it cannot change results.
	OnProgress func(RunProgress)
}

// RunProgress is one completed campaign run as reported to
// Config.OnProgress.
type RunProgress struct {
	// Index is the entry index within the campaign (the site index, or the
	// window index of CampaignWindows); Total the entry count.
	Index int
	Total int
	// Result is the run's classification (OutcomeQuarantined for runs the
	// resilience layer excluded).
	Result InjectionResult
	// Served names what produced the record: "cache" (a run-store hit,
	// which is how a resumed campaign's finished cells come back), or the
	// live execution path ("cold", "forked", "warm", "fast-forward").
	Served string
	// Reason says why the run took its path, e.g. "never-fires",
	// "ff-ineligible:transient" or "cache-verify-divergence" ("" when it
	// took the cheapest path its plan offers).
	Reason string
	// Retries counts re-executions beyond the run's first attempt.
	Retries int
	// Quarantined marks runs excluded by the resilience layer.
	Quarantined bool
}

// DefaultFFWarmup is the default fast-forward warmup lead (committed
// instructions simulated cycle-accurately before the activation window).
// Several times the machine's maximum in-flight window, so queues, the
// predictor and the redundancy coupling re-approach steady state before the
// fault can fire; sampled-equivalence outcomes are empirically stable from
// a few hundred instructions up (the campaign path matrix re-checks it).
// Raise Config.FFWarmup for conservative latency studies.
const DefaultFFWarmup = 500

// ffWarmup resolves the configured warmup lead.
func (c Config) ffWarmup() int {
	if c.FFWarmup > 0 {
		return c.FFWarmup
	}
	return DefaultFFWarmup
}

// Default returns a Table 1 machine in the given mode with the given budget.
func Default(mode pipeline.Mode, maxInstructions int) Config {
	return Config{
		Machine:         pipeline.DefaultConfig(),
		Mode:            mode,
		MaxInstructions: maxInstructions,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxInstructions <= 0 {
		return fmt.Errorf("sim: non-positive instruction budget %d", c.MaxInstructions)
	}
	return c.Machine.Validate()
}

// Result is one simulation's outcome.
type Result struct {
	Benchmark string
	Mode      pipeline.Mode
	Stats     *pipeline.Stats

	// GoldenSignature is the golden model's store-stream signature over the
	// same committed instructions; OutputMatches reports agreement with the
	// machine's released stores.
	GoldenSignature uint64
	GoldenStores    uint64
	OutputMatches   bool
}

// Slowdown returns cycles relative to a baseline result (>1 means slower).
func (r *Result) Slowdown(baseline *Result) float64 {
	if baseline.Stats.Cycles == 0 {
		return 0
	}
	return float64(r.Stats.Cycles) / float64(baseline.Stats.Cycles)
}

// NormalizedPerf returns the paper's Figure 7 metric: performance relative to
// the baseline as a fraction (baseline cycles / this run's cycles).
func (r *Result) NormalizedPerf(baseline *Result) float64 {
	if r.Stats.Cycles == 0 {
		return 0
	}
	return float64(baseline.Stats.Cycles) / float64(r.Stats.Cycles)
}

// runContext derives one run attempt's context from the config: cfg.Ctx
// plus the per-run wall-clock budget, doubled per retry (attempt k runs
// under RunTimeout<<k). The returned context is nil — meaning "no polling
// at all" — when neither is configured, preserving the legacy hot-loop
// exactly.
func (c Config) runContext(attempt int) (context.Context, context.CancelFunc) {
	if d := c.Resilience.RunTimeout; d > 0 {
		base := c.Ctx
		if base == nil {
			base = context.Background()
		}
		return context.WithTimeout(base, d<<uint(attempt))
	}
	return c.Ctx, func() {}
}

// obsOptions translates the config's observability attachments into machine
// options.
func (c Config) obsOptions() []pipeline.Option {
	var opts []pipeline.Option
	if c.Trace != nil {
		opts = append(opts, pipeline.WithObsTracer(c.Trace))
	}
	if c.Metrics != nil {
		opts = append(opts, pipeline.WithMetrics(c.Metrics))
	}
	return opts
}

// observeDetections wires a machine's detection sink into the config's
// tracer and registry.
func (c Config) observeDetections(sink *detect.Sink) {
	if c.Trace == nil && c.Metrics == nil {
		return
	}
	var detections *obs.Counter
	if c.Metrics != nil {
		detections = c.Metrics.Counter("detect.events")
	}
	tr := c.Trace
	sink.Observer = func(e detect.Event) {
		if tr != nil {
			tr.Record(obs.Event{
				Cycle: e.Cycle, Kind: obs.KindDetect, Thread: -1,
				PC: int64(e.PC), Arg: uint64(e.Checker),
			})
		}
		if detections != nil {
			detections.Inc()
		}
	}
}

// observeActivations wires a fault injector's activation hook into the
// config's tracer and registry.
func (c Config) observeActivations(inj *fault.Injector) {
	var activations *obs.Counter
	if c.Metrics != nil {
		activations = c.Metrics.Counter("fault.activations")
	}
	tr := c.Trace
	inj.OnActivate = func() {
		if tr != nil {
			var cycle int64
			if inj.Now != nil {
				cycle = inj.Now()
			}
			tr.Record(obs.Event{
				Cycle: cycle, Kind: obs.KindFaultActivate, Thread: -1,
				Arg: inj.Activations(),
			})
		}
		if activations != nil {
			activations.Inc()
		}
	}
}

// RunProgram executes one program on one machine configuration and verifies
// the output stream against the golden model. A deadlocked run returns a
// typed *DeadlockError; a run stopped by cfg.Ctx or the per-run budget
// returns a typed *InterruptedError.
func RunProgram(cfg Config, p *isa.Program) (*Result, error) {
	return RunSampledProgram(cfg, p, 0)
}

// runLive is RunSampledProgram past validation, clamping and cache lookup
// (skip is in [0, budget]): the golden emulator retires the first skip
// instructions, and the pipeline simulates the rest.
func runLive(cfg Config, p *isa.Program, skip int) (*Result, error) {
	mopts := cfg.obsOptions()
	ctx, cancel := cfg.runContext(0)
	defer cancel()
	if ctx != nil {
		mopts = append(mopts, pipeline.WithRunContext(ctx))
	}
	var m *pipeline.Machine
	var err error
	if skip == 0 {
		m, err = pipeline.New(cfg.Machine, cfg.Mode, p, mopts...)
	} else {
		g, gerr := isa.AcquireMachine(p)
		if gerr != nil {
			return nil, gerr
		}
		g.Run(skip)
		arch := g.CaptureArch()
		isa.ReleaseMachine(g)
		m, err = pipeline.NewFromArch(cfg.Machine, cfg.Mode, p, arch, mopts...)
	}
	if err != nil {
		return nil, err
	}
	cfg.observeDetections(m.Sink())
	st := m.Run(cfg.MaxInstructions)
	if cfg.Metrics != nil {
		st.Export(cfg.Metrics)
	}
	if st.Interrupted {
		return nil, &InterruptedError{Benchmark: p.Name, Mode: cfg.Mode, Cycle: st.Cycles, Cause: ctx.Err()}
	}
	if st.Deadlocked {
		return nil, &DeadlockError{
			Benchmark: p.Name, Mode: cfg.Mode, Cycle: st.Cycles,
			Committed: st.Committed[0], Budget: cfg.MaxInstructions,
		}
	}
	return verifyGolden(cfg, p, st)
}

// verifyGolden builds a Result by replaying the golden model (on a pooled
// functional machine) up to the run's committed count and comparing output
// streams.
func verifyGolden(cfg Config, p *isa.Program, st *pipeline.Stats) (*Result, error) {
	g, err := isa.AcquireMachine(p)
	if err != nil {
		return nil, err
	}
	defer isa.ReleaseMachine(g)
	g.Run(int(st.Committed[0]))
	return &Result{
		Benchmark:       p.Name,
		Mode:            cfg.Mode,
		Stats:           st,
		GoldenSignature: g.StoreSignature(),
		GoldenStores:    uint64(g.Stores()),
		OutputMatches:   st.StoreSignature == g.StoreSignature() && st.ReleasedStores == uint64(g.Stores()),
	}, nil
}

// RunSampledProgram executes p with a functional fast-forward: the golden
// ISA emulator retires the first skip instructions, a warm cycle-accurate
// machine is seeded from that architectural state, and the pipeline
// simulates only the remaining budget. The Result's committed counts and
// output verification are in whole-program terms (fast-forwarded stores are
// part of the signature chain); Stats.Cycles covers only the simulated
// window. A skip of 0 is exactly RunProgram; a skip at or past the budget
// leaves nothing to simulate.
func RunSampledProgram(cfg Config, p *isa.Program, skip int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if skip < 0 {
		return nil, fmt.Errorf("sim: negative fast-forward skip %d", skip)
	}
	skip = min(skip, cfg.MaxInstructions)
	live := func() (*Result, error) { return runLive(cfg, p, skip) }
	// A tracer or registry wants live pipeline internals (event streams,
	// occupancy histograms) that a cached outcome cannot replay.
	if cfg.Cache == nil || cfg.Trace != nil || cfg.Metrics != nil {
		return live()
	}
	res, _, _, err := cachedRun(cfg, runIdentity(cfg, p, skip), live, nil)
	return res, err
}

// Run executes one built-in benchmark.
func Run(cfg Config, benchmark string) (*Result, error) {
	return RunSampled(cfg, benchmark, 0)
}

// RunSampled is RunSampledProgram over a built-in benchmark.
func RunSampled(cfg Config, benchmark string, skip int) (*Result, error) {
	p, err := prog.Benchmark(benchmark)
	if err != nil {
		return nil, err
	}
	return RunSampledProgram(cfg, p, skip)
}

// AllModes lists the four machine configurations of the paper's evaluation.
var AllModes = []pipeline.Mode{
	pipeline.ModeSingle, pipeline.ModeSRT, pipeline.ModeBlackJackNS, pipeline.ModeBlackJack,
}

// RunAllModes runs a benchmark under single, SRT, BlackJack-NS and BlackJack
// from one config (its Mode is ignored), returning results keyed by mode.
// The four runs are independent machines and fan out across cfg.Parallel
// workers under cfg.Ctx; each honors cfg.Resilience's run budget and
// cfg.Cache. A tracer or registry cannot be shared by concurrent machines,
// so a config with Trace or Metrics attached is refused.
func RunAllModes(cfg Config, benchmark string) (map[pipeline.Mode]*Result, error) {
	if cfg.Trace != nil || cfg.Metrics != nil {
		return nil, fmt.Errorf("sim: RunAllModes runs four machines at once; it takes no Trace or Metrics")
	}
	p, err := prog.Benchmark(benchmark)
	if err != nil {
		return nil, err
	}
	rs, err := parallel.MapCtx(cfg.Ctx, cfg.Parallel, len(AllModes), func(i int) (*Result, error) {
		c := cfg
		c.Mode = AllModes[i]
		return RunProgram(c, p)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[pipeline.Mode]*Result, len(AllModes))
	for i, mode := range AllModes {
		out[mode] = rs[i]
	}
	return out, nil
}
