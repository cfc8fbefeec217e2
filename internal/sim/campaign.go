package sim

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"blackjack/internal/detect"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/rename"
)

// Outcome classifies one fault-injection run.
type Outcome uint8

// Injection outcomes.
const (
	// OutcomeBenign: the fault never changed the program's observable
	// output (never activated, masked, or confined to wrong-path work).
	OutcomeBenign Outcome = iota
	// OutcomeDetected: a redundancy checker flagged the fault.
	OutcomeDetected
	// OutcomeSilent: the output stream differs from the golden model with
	// no detection — silent data corruption, the failure mode BlackJack
	// exists to prevent.
	OutcomeSilent
	// OutcomeWedged: the machine stopped making progress (or tripped an
	// internal invariant); observable as a hang, distinct from silent
	// corruption.
	OutcomeWedged
	// OutcomeQuarantined: the run never produced a classifiable result —
	// it panicked in the harness or exhausted its wall-clock budget on
	// every attempt — and the resilience layer excluded it from the
	// campaign (see RunFailure) instead of aborting. Distinct from
	// OutcomeWedged, which is a deterministic, classified simulation
	// outcome (the injected fault observably hung the machine).
	OutcomeQuarantined
)

var outcomeNames = map[Outcome]string{
	OutcomeBenign: "benign", OutcomeDetected: "detected",
	OutcomeSilent: "silent-corruption", OutcomeWedged: "wedged",
	OutcomeQuarantined: "quarantined",
}

// String names the outcome.
func (o Outcome) String() string {
	if s, ok := outcomeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// InjectionResult is one fault-injection run's classification. The run
// stops at its first detection, so Activations, Detections and Cycles count
// up to it.
type InjectionResult struct {
	Site        fault.Site
	Mode        pipeline.Mode
	Outcome     Outcome
	Activations uint64
	Detections  uint64
	FirstEvent  *detect.Event
	Cycles      int64
	// DetectionLatency is the cycle distance from the fault's first
	// activation to the first detection event (-1 when not applicable).
	DetectionLatency int64
}

// InjectOptions tune a fault run.
type InjectOptions struct {
	// SplitPayload models per-thread payload RAMs (Section 4.5).
	SplitPayload bool
}

// InjectProgram runs p in the given mode with one hard fault installed and
// classifies the outcome against the golden model. Machine panics caused by
// fault-wedged bookkeeping are caught and classified as OutcomeWedged.
// Several simultaneous faults (Section 4.5) run as a window of a campaign
// (CampaignWindows).
//
// The injection is a one-site campaign (CampaignProgram), so it takes a
// campaign's store-then-live chain and its run's plan path, and
// returns exactly the row any campaign over site reports under cfg: a
// cell's result depends only on its own sites and the plan cadence. With
// Trace or Metrics attached, the campaign observes its run's live machine
// and runs it exactly once (see Config.Metrics).
func InjectProgram(cfg Config, p *isa.Program, site fault.Site, opts InjectOptions) (InjectionResult, error) {
	sum, err := campaignWindows(cfg, p, []fault.Site{site}, nil, opts, cfg.Trace != nil || cfg.Metrics != nil)
	if err != nil {
		return InjectionResult{}, err
	}
	return sum.Results[0], nil
}

// validateInjection reports the configuration and site-list errors every
// injection entry point refuses.
func validateInjection(cfg Config, sites []fault.Site) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if len(sites) == 0 {
		return fmt.Errorf("sim: no fault sites")
	}
	if err := fault.ValidateSites(sites); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// injectSites is the cold injection path: a fresh machine from cycle 0 with
// the faults installed, built into the worker's reusable run storage (see
// runStorage) and classified against the campaign's shared golden oracle. A
// non-nil ctx bounds the run's wall clock: an expired budget surfaces as
// *InterruptedError, never as a (mis)classified outcome. A non-nil plan lets
// the run end where it reconverges with the plan's warmup (see
// CampaignPlan.run).
func injectSites(ctx context.Context, cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions, rs *runStorage, oracle *goldenOracle, pl *CampaignPlan) (InjectionResult, pathInfo, error) {
	inj := &fault.Injector{Sites: sites, SplitPayload: opts.SplitPayload}
	if err := rs.machine().Init(cfg.Machine, cfg.Mode, p, rs.options(ctx, inj)...); err != nil {
		return InjectionResult{}, pathInfo{}, err
	}
	r, pi, err := execute(ctx, cfg, p.Name, rs, inj, sites[0], oracle, pl)
	pi.Path = pathCold
	return r, pi, err
}

// options assembles the machine options every live injection path (cold,
// forked, fast-forwarded) shares: the injector, the stop at the first
// detection (a caught error is all coverage asks; outcome, first event
// and latency are those of the unstopped run), the run budget (nil ctx:
// unbudgeted) and the storage's sink, reset here. Observed storage also
// attaches its tracer and registry and wires them to the sink and the
// injector.
func (rs *runStorage) options(ctx context.Context, inj *fault.Injector) []pipeline.Option {
	mopts := []pipeline.Option{pipeline.WithInjector(inj), pipeline.WithStopOnDetect()}
	if ctx != nil {
		mopts = append(mopts, pipeline.WithRunContext(ctx))
	}
	rs.sink.Reset()
	mopts = append(mopts, pipeline.WithSink(rs.sink))
	if o := rs.observe; o != nil {
		mopts = append(mopts, o.obsOptions()...)
		o.observeDetections(rs.sink)
		o.observeActivations(inj)
	}
	return mopts
}

// execute is the one run body behind the cold, forked and fast-forwarded
// paths: it runs rs.m, with inj installed, to its end or first detection
// and classifies the outcome against oracle, so the paths agree exactly. A
// panic inside the machine is an observable hang, not silent corruption: a
// fault can wedge bookkeeping the hardware would also wedge (e.g. a
// corrupted instruction class desynchronizing queue pairing). An expired
// run budget surfaces as
// *InterruptedError. With a plan the run may end early where it reconverges
// with the warmup, and is then served the warmup's result (see
// CampaignPlan.run). Observed storage's registry receives the final
// statistics. The returned pathInfo carries the early-stop and convergence
// notes; the caller fills in the path.
func execute(ctx context.Context, cfg Config, bench string, rs *runStorage, inj *fault.Injector, site fault.Site, oracle *goldenOracle, pl *CampaignPlan) (res InjectionResult, pi pathInfo, err error) {
	m := rs.m
	inj.Now = m.Cycle
	res = InjectionResult{Site: site, Mode: cfg.Mode, DetectionLatency: -1}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = OutcomeWedged
			res.Activations = inj.Activations()
			pi, err = pathInfo{}, nil
		}
	}()
	st, warm, err := pl.run(m, inj, cfg.MaxInstructions)
	if err != nil {
		return InjectionResult{}, pathInfo{}, err
	}
	if rs.observe != nil && rs.observe.Metrics != nil {
		st.Export(rs.observe.Metrics)
	}
	if st.Interrupted {
		return InjectionResult{}, pathInfo{}, &InterruptedError{
			Benchmark: bench, Mode: cfg.Mode, Cycle: st.Cycles, Cause: ctx.Err(),
		}
	}
	if warm != nil {
		pi.Converged, pi.ConvergedAt = true, st.Cycles
		st = warm
	}
	if cerr := classify(&res, st, inj, oracle); cerr != nil {
		return InjectionResult{}, pathInfo{}, cerr
	}
	pi.EarlyStop = st.StoppedOnDetect
	return res, pi, nil
}

// Inject runs a built-in benchmark with one fault.
func Inject(cfg Config, benchmark string, site fault.Site, opts InjectOptions) (InjectionResult, error) {
	p, err := prog.Benchmark(benchmark)
	if err != nil {
		return InjectionResult{}, err
	}
	return InjectProgram(cfg, p, site, opts)
}

// StandardSites returns a canonical fault campaign for the given machine:
// one decode fault per frontend way, one value fault per backend way of
// every class, branch-direction and address faults on representative ways,
// a handful of payload-RAM slots, and a few physical registers.
func StandardSites(cfg pipeline.Config) []fault.Site {
	var sites []fault.Site
	for w := 0; w < cfg.FetchWidth; w++ {
		sites = append(sites, fault.Site{Class: fault.FrontendWay, Way: w, Field: fault.FieldRs2})
	}
	for cls := isa.UnitClass(0); cls < isa.NumUnitClasses; cls++ {
		for w := 0; w < cfg.Units[cls]; w++ {
			sites = append(sites, fault.Site{
				Class: fault.BackendWay, Unit: cls, Way: w, BitMask: 1 << uint(8+w),
			})
		}
	}
	sites = append(sites,
		fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, FlipBranch: true},
		fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, CorruptAddr: true, BitMask: 1},
	)
	for _, slot := range []int{0, 1, cfg.IssueQueue / 2} {
		sites = append(sites, fault.Site{
			Class: fault.PayloadRAM, Slot: slot, Field: fault.FieldImm, BitMask: 2,
		})
	}
	for _, reg := range []rename.PhysReg{200, 300, 400} {
		if int(reg) < cfg.PhysRegs {
			sites = append(sites, fault.Site{Class: fault.RegisterFile, Reg: reg, BitMask: 1 << 5})
		}
	}
	return sites
}

// LatentSites returns a 16-site campaign modeling the paper's motivating
// scenario (Section 1): latent hard defects in rarely-exercised hardware. One
// always-on fault anchors the comparison; five wear-out faults arm only on a
// deep eligible use (dormant silicon degrading into a persistent defect),
// and ten trigger-gated faults wait for an operand pattern that may never
// occur in the measured window. Checkpointed campaigns fork these runs late
// (or serve them straight from the warmup result), and sampled campaigns
// (Config.FastForward) skip their long fault-free prefixes functionally,
// where a cold campaign replays the whole prefix once per site — the
// campaign shape the checkpoint/fork and fast-forward machinery exists to
// accelerate.
func LatentSites(cfg pipeline.Config) []fault.Site {
	never := func(s fault.Site) fault.Site {
		s.TriggerMask = ^uint64(0)
		s.TriggerValue = 0xDEADBEEFDEADBEEF
		return s
	}
	sites := []fault.Site{
		// Always-on control site: fires within cycles of reset, so its fork
		// replays essentially the whole run — the worst case for the plan.
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2},
		// Late-arming wear-out faults: dormant until a deep eligible use,
		// persistent from then on.
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 9, ArmAt: 12_000},
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 2, BitMask: 1 << 10, ArmAt: 7000},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, BitMask: 1 << 8, ArmAt: 5500},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 9, ArmAt: 5000},
		{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs1, ArmAt: 13_000},
		// Trigger-gated: corruption waits for an operand value that never
		// shows up in the window. (Payload-RAM faults are untriggered —
		// reading a slot always corrupts — so none appears here.)
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}),
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3, BitMask: 1}),
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 0, BitMask: 1 << 4}),
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitFPALU, Way: 0, BitMask: 1 << 6}),
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntMul, Way: 0, BitMask: 1 << 7}),
		never(fault.Site{Class: fault.FrontendWay, Way: 2, Field: fault.FieldRd, BitMask: 1}),
		never(fault.Site{Class: fault.FrontendWay, Way: 3, Field: fault.FieldImm, BitMask: 4}),
		never(fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, CorruptAddr: true, BitMask: 1}),
		never(fault.Site{Class: fault.RegisterFile, Reg: 300, BitMask: 1}),
		never(fault.Site{Class: fault.RegisterFile, Reg: 400, BitMask: 1 << 3}),
	}
	for i := range sites {
		if sites[i].Class == fault.RegisterFile && int(sites[i].Reg) >= cfg.PhysRegs {
			sites[i].Reg = rename.PhysReg(cfg.PhysRegs - 1)
		}
	}
	return sites
}

// TransientSites derives a soft-error campaign from the standard sites:
// each fault corrupts exactly one use (the FireAt-th) and vanishes. Temporal
// redundancy alone suffices for these, so SRT and BlackJack should both
// detect every activated one — the property BlackJack inherits from SRT
// (Section 1).
func TransientSites(cfg pipeline.Config, fireAt uint64) []fault.Site {
	sites := StandardSites(cfg)
	out := make([]fault.Site, 0, len(sites))
	for _, s := range sites {
		s.Transient = true
		s.FireAt = fireAt
		out = append(out, s)
	}
	return out
}

// IntermittentSites derives a duty-cycled campaign from the standard sites:
// every site corrupts the first `on` eligible uses of each `period`-use
// window, thinned by an activation probability of prob percent (0 means
// 100). Timing-sensitive like one-shot transients, these stay on bit-exact
// cold/fork paths in sampled campaigns.
func IntermittentSites(cfg pipeline.Config, period, on uint64, prob uint8) []fault.Site {
	sites := StandardSites(cfg)
	out := make([]fault.Site, 0, len(sites))
	for _, s := range sites {
		s.Kind = fault.KindIntermittent
		s.DutyPeriod = period
		s.DutyOn = on
		s.DutyProb = prob
		out = append(out, s)
	}
	return out
}

// MultiBitSites derives a multi-bit campaign from the standard sites: value
// sites alternate between wide flip masks and stuck-at patterns, decode
// sites widen their immediate masks. Branch-direction and address shapes are
// dropped (their corruption is not a bit pattern).
func MultiBitSites(cfg pipeline.Config) []fault.Site {
	sites := StandardSites(cfg)
	out := make([]fault.Site, 0, len(sites))
	for i, s := range sites {
		if s.FlipBranch || s.CorruptAddr {
			continue
		}
		s.Kind = fault.KindMultiBit
		switch {
		case s.Class == fault.FrontendWay || s.Class == fault.PayloadRAM:
			s.Field = fault.FieldImm
			s.BitMask = 0x3C // a 4-bit flip in the immediate
		case i%2 == 0:
			s.BitMask = 0
			s.StuckMask = 0xFF << 8
			s.StuckValue = 0xA5 << 8
		default:
			s.BitMask = 0xF << 16
		}
		out = append(out, s)
	}
	return out
}

// ControlFlowSites returns a control-flow-error campaign: branch-target
// mis-latches on every integer-ALU way (where branches execute) plus one
// direction-flip CFE per machine. Timing-sensitive (the outcome depends on
// speculative wrong-path state), so sampled campaigns keep them on
// bit-exact paths.
func ControlFlowSites(cfg pipeline.Config) []fault.Site {
	var sites []fault.Site
	for w := 0; w < cfg.Units[isa.UnitIntALU]; w++ {
		sites = append(sites, fault.Site{
			Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: w,
			Kind: fault.KindControlFlow, BitMask: uint64(1 + w%2),
		})
	}
	sites = append(sites, fault.Site{
		Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0,
		Kind: fault.KindControlFlow, FlipBranch: true,
	})
	return sites
}

// SitesForKind builds the canonical campaign for one fault kind — the
// per-kind axis the soft/intermittent-error experiments and the CLIs'
// -fault-kind flag iterate over.
func SitesForKind(cfg pipeline.Config, kind fault.Kind) ([]fault.Site, error) {
	switch kind {
	case fault.KindPermanent:
		return StandardSites(cfg), nil
	case fault.KindTransient:
		return TransientSites(cfg, 20), nil
	case fault.KindIntermittent:
		return IntermittentSites(cfg, 64, 16, 75), nil
	case fault.KindMultiBit:
		return MultiBitSites(cfg), nil
	case fault.KindControlFlow:
		return ControlFlowSites(cfg), nil
	}
	return nil, fmt.Errorf("sim: no site builder for fault kind %v", kind)
}

// IsLatentCampaign reports whether the site list is exactly the canonical
// 16-site latent campaign for the machine — how quarantine repro commands
// know to say `-sites latent`.
func IsLatentCampaign(cfg pipeline.Config, sites []fault.Site) bool {
	return slices.Equal(LatentSites(cfg), sites)
}

// canonicalKind reports which kind's canonical campaign (SitesForKind)
// exactly matches the site list, if any — how quarantine repro commands
// know to include -fault-kind.
func canonicalKind(cfg pipeline.Config, sites []fault.Site) (fault.Kind, bool) {
	for _, k := range fault.Kinds() {
		if ref, err := SitesForKind(cfg, k); err == nil && slices.Equal(ref, sites) {
			return k, true
		}
	}
	return fault.KindPermanent, false
}

// CampaignSummary aggregates injection outcomes.
type CampaignSummary struct {
	Results []InjectionResult
	Counts  map[Outcome]int
	// ActiveRuns counts runs whose fault actually corrupted at least one
	// value; DetectedOfActive is the empirical detection coverage over those.
	ActiveRuns       int
	DetectedOfActive int
	// Quarantined lists the runs the resilience layer excluded (panic,
	// exhausted budget), each with a standalone repro command where one
	// exists (see RunFailure.Repro). Their
	// Results entries carry OutcomeQuarantined.
	Quarantined []RunFailure
	// Retried counts re-executions beyond each run's first attempt, in this
	// session only: a store-served run reports none.
	Retried int
	// CacheHits counts runs served from Config.Cache instead of executed,
	// the cells a resumed campaign had already finished among them. It is
	// reported here (and typically on stderr), never in the metrics
	// registry or the stdout table, so warm, resumed and cold campaigns
	// stay byte-identical.
	CacheHits int
}

// DetectionRate returns detected / (detected + silent) over activated runs —
// the empirical analogue of the paper's coverage metric.
func (s *CampaignSummary) DetectionRate() float64 {
	det := 0
	bad := 0
	for _, r := range s.Results {
		if r.Activations == 0 {
			continue
		}
		switch r.Outcome {
		case OutcomeDetected:
			det++
		case OutcomeSilent:
			bad++
		}
	}
	if det+bad == 0 {
		return 0
	}
	return float64(det) / float64(det+bad)
}

// Campaign injects every site into the same benchmark and summarizes. The
// per-site runs are independent machines and fan out across cfg.Parallel
// workers (default runtime.NumCPU()); results are assembled in site order, so
// the summary is byte-identical at every worker count — and, because forked
// runs are bit-identical to cold runs, at every cfg.CheckpointInterval.
func Campaign(cfg Config, benchmark string, sites []fault.Site, opts InjectOptions) (*CampaignSummary, error) {
	p, err := prog.Benchmark(benchmark)
	if err != nil {
		return nil, err
	}
	return CampaignProgram(cfg, p, sites, opts)
}

// Campaign-metrics histogram bounds: detection latency in cycles from first
// activation to first detection, and the warmup cycle each forked run
// resumed from (also used for the cycles a run cut at reconvergence did
// not simulate).
var (
	detectLatencyBounds = []float64{0, 10, 25, 50, 100, 250, 500, 1000, 2500, 10000}
	forkCycleBounds     = []float64{0, 1000, 2500, 5000, 10000, 25000, 50000, 100000}
	// ffSkipBounds buckets how many instructions each fast-forwarded run
	// skipped functionally — the campaign's sampled-speedup profile.
	ffSkipBounds = []float64{0, 1000, 2500, 5000, 10000, 25000, 50000, 100000}
)

// runStorage is what one campaign worker reuses from run to run: a
// detection sink, reset before each run, and one machine every run is built
// into (pipeline.Machine.Init, InitFromArch or ForkFrom), so a run allocates
// no machine of its own. It lives as long as one campaign call.
type runStorage struct {
	sink *detect.Sink
	// m is nil until the first run, which takes the plan's idle warmup
	// machine when there is one (CampaignPlan.injectCtx), else a new one.
	m *pipeline.Machine
	// observe, when non-nil, is the config whose Trace and Metrics an
	// observed InjectProgram's live run records into (see options).
	observe *Config
}

// newRunStorage returns empty run storage for one worker.
func newRunStorage() *runStorage {
	return &runStorage{sink: &detect.Sink{}}
}

// machine returns the machine the worker's runs are built into.
func (rs *runStorage) machine() *pipeline.Machine {
	if rs.m == nil {
		rs.m = &pipeline.Machine{}
	}
	return rs.m
}

// campaignWorker is one worker's reusable scratch state: the run storage,
// and — with campaign metrics enabled — a private registry merged into
// Config.Metrics after the fan-out (per-worker recording plus a commutative
// merge keeps metrics identical at every worker count).
type campaignWorker struct {
	runs *runStorage
	reg  *obs.Registry
	// ff mirrors Config.FastForward: a cold run inside a sampled campaign is
	// a fallback worth counting; the same cold run in a full campaign is just
	// the normal path.
	ff bool
}

// recordRecord accumulates one run record: the classified result plus
// path-choice and retry counters. This is the single place a campaign run
// touches the registry, for both live and store-served runs — the property
// that makes resumed metrics byte-identical.
// Quarantined runs contribute only campaign.quarantined* keys, so a
// campaign's metrics over its healthy sites are unchanged by the presence
// of quarantined ones.
func (w *campaignWorker) recordRecord(rec runRecord) {
	if w.reg == nil {
		return
	}
	switch rec.Path {
	case pathWarm:
		w.reg.Counter("campaign.warm_served").Inc()
	case pathForked:
		w.reg.Counter("campaign.forked_runs").Inc()
		w.reg.Histogram("campaign.fork.cycle", forkCycleBounds).Observe(float64(rec.ForkCycle))
	case pathCold:
		w.reg.Counter("campaign.cold_runs").Inc()
		if w.ff {
			w.reg.Counter("campaign.ff.fallback_cold").Inc()
		}
	case pathFF:
		w.reg.Counter("campaign.ff.runs").Inc()
		w.reg.Histogram("campaign.ff.skipped_instrs", ffSkipBounds).Observe(float64(rec.FFSkipped))
		if rec.EarlyStop {
			w.reg.Counter("campaign.ff.early_stops").Inc()
		}
	}
	if rec.Converged {
		w.reg.Counter("campaign.converged.runs").Inc()
		w.reg.Histogram("campaign.converged.saved_cycles", forkCycleBounds).Observe(float64(rec.Result.Cycles - rec.ConvergedAt))
	}
	if rec.Failure != nil {
		w.reg.Counter("campaign.quarantined").Inc()
		if rec.Retries > 0 {
			w.reg.Counter("campaign.quarantined.retries").Add(uint64(rec.Retries))
		}
		return
	}
	if rec.Retries > 0 {
		w.reg.Counter("campaign.retries").Add(uint64(rec.Retries))
	}
	r := rec.Result
	w.reg.Counter("campaign.simulated_cycles").Add(rec.simulatedCycles())
	w.reg.Counter("campaign.runs").Inc()
	w.reg.Counter("campaign.outcome." + r.Outcome.String()).Inc()
	w.reg.Counter("campaign.activations").Add(r.Activations)
	w.reg.Counter("campaign.detections").Add(r.Detections)
	if r.DetectionLatency >= 0 {
		w.reg.Histogram("campaign.detect.latency", detectLatencyBounds).Observe(float64(r.DetectionLatency))
	}
}

// CampaignProgram is Campaign over an explicit program. With
// cfg.CheckpointInterval > 0 the per-site runs fork from periodic snapshots
// of one shared fault-free warmup (see CampaignPlan); with cfg.FastForward
// they skip the fault-free prefix functionally and simulate only each
// site's activation window (sampled simulation — outcome tables match full
// runs, window-relative figures); otherwise every run is cold. In all cases
// the golden reference is served from one memoized oracle and each worker
// reuses one detection sink across its runs.
//
// The resilience layer wraps every run: cfg.Resilience isolates, budgets
// and retries failures; cfg.Cache keeps every completed cell, so rerunning
// on the same store resumes; cfg.Ctx cancellation (SIGINT) drains the
// fan-out and merges the partial per-worker registries into cfg.Metrics
// before returning the context's error.
func CampaignProgram(cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions) (*CampaignSummary, error) {
	return CampaignWindows(cfg, p, sites, nil, opts)
}

// Window is one entry of a windowed campaign: the sites [Lo, Hi) of the
// campaign's site list, installed together as simultaneous uncorrelated
// hard faults (the multi-error scenario of Section 4.5). The entry's
// result reports the window's first site.
type Window struct{ Lo, Hi int }

// CampaignWindows is CampaignProgram with one run per window of sites
// instead of one per site; nil windows means one window per site, exactly
// CampaignProgram. Every window runs on the one result chain (run store,
// then live run) under the one plan built over the whole site list, and
// results come back in window order. A cell's store key is the campaign
// identity plus the cell's own window, so a cell is only ever served to a
// window of the same sites on the same plan. A campaign runs many
// machines at once, so a config with Trace attached is refused;
// cfg.Metrics receives the campaign.* counters.
func CampaignWindows(cfg Config, p *isa.Program, sites []fault.Site, windows []Window, opts InjectOptions) (*CampaignSummary, error) {
	return campaignWindows(cfg, p, sites, windows, opts, false)
}

// campaignWindows is CampaignWindows, observing its one run's live machine
// into cfg.Trace and cfg.Metrics when observe is set (see InjectProgram).
func campaignWindows(cfg Config, p *isa.Program, sites []fault.Site, windows []Window, opts InjectOptions, observe bool) (*CampaignSummary, error) {
	if err := validateInjection(cfg, sites); err != nil {
		return nil, err
	}
	switch {
	case !observe && cfg.Trace != nil:
		return nil, fmt.Errorf("sim: a campaign runs many machines at once; it takes no Trace")
	case observe && cfg.Resilience.Retries > 0:
		// A retry would be observed twice.
		return nil, fmt.Errorf("sim: an observed injection runs once, live; it takes no Resilience.Retries")
	}
	windows, err := siteWindows(sites, windows)
	if err != nil {
		return nil, err
	}
	newWorker := func() *campaignWorker {
		w := &campaignWorker{runs: newRunStorage(), ff: cfg.FastForward}
		if cfg.Metrics != nil {
			w.reg = obs.NewRegistry()
		}
		if observe {
			w.runs.observe = &cfg
		}
		return w
	}

	runner := &campaignRunner{cfg: cfg, prog: p, sites: sites, windows: windows, opts: opts}
	if cfg.CheckpointInterval > 0 || cfg.FastForward {
		// The plan's warmup is a fault-free simulation, up to the budget's end
		// or to where no run can read further — deferred until the first
		// live run actually needs it, so a fully-stored campaign never pays
		// for it.
		plan := sync.OnceValues(func() (*CampaignPlan, error) { return NewCampaignPlan(cfg, p, sites, opts) })
		runner.attempt = func(w *campaignWorker, win Window, runCtx context.Context) (InjectionResult, pathInfo, error) {
			pl, err := plan()
			if err != nil {
				return InjectionResult{}, pathInfo{}, err
			}
			return pl.injectCtx(runCtx, win.Lo, win.Hi, w.runs)
		}
	} else {
		oracle := newGoldenOracle(p)
		runner.attempt = func(w *campaignWorker, win Window, runCtx context.Context) (InjectionResult, pathInfo, error) {
			r, pi, err := injectSites(runCtx, cfg, p, sites[win.Lo:win.Hi], opts, w.runs, oracle, nil)
			pi.Reason = reasonNoPlan
			return r, pi, err
		}
	}

	if cfg.Cache != nil && !observe {
		runner.cell = campaignIdentity(cfg, p.Name, opts).Add("prog_fp", programFingerprint(p))
	}
	runOne := func(w *campaignWorker, i int) (InjectionResult, error) {
		rec, served, err := runner.serve(w, i)
		if err != nil {
			return InjectionResult{}, err
		}
		w.recordRecord(rec)
		if cfg.OnProgress != nil {
			cfg.OnProgress(RunProgress{
				Index: i, Total: len(windows), Result: rec.Result, Served: served,
				Reason: rec.Reason, Retries: rec.Retries, Quarantined: rec.Failure != nil,
			})
		}
		return rec.Result, nil
	}
	results, states, err := parallel.MapWorkerStateCtx(cfg.Ctx, cfg.Parallel, len(windows), newWorker, runOne)
	// Partial flush happens even on error/cancel: the per-worker registries
	// hold completed runs.
	if cfg.Metrics != nil {
		for _, w := range states {
			if merr := cfg.Metrics.Merge(w.reg); merr != nil && err == nil {
				err = merr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	sum := &CampaignSummary{
		Results: results, Counts: make(map[Outcome]int),
		Quarantined: runner.quarantined(),
		Retried:     int(runner.retried.Load()),
		CacheHits:   int(runner.cacheHits.Load()),
	}
	for _, r := range results {
		sum.Counts[r.Outcome]++
		if r.Activations > 0 {
			sum.ActiveRuns++
			if r.Outcome == OutcomeDetected {
				sum.DetectedOfActive++
			}
		}
	}
	return sum, nil
}

// siteWindows returns the campaign's windows over sites: one per site when
// windows is nil, else windows itself once each is a non-empty range of
// the list.
func siteWindows(sites []fault.Site, windows []Window) ([]Window, error) {
	if windows == nil {
		windows = make([]Window, len(sites))
		for i := range windows {
			windows[i] = Window{i, i + 1}
		}
		return windows, nil
	}
	for i, w := range windows {
		if w.Lo < 0 || w.Hi > len(sites) || w.Lo >= w.Hi {
			return nil, fmt.Errorf("sim: window %d [%d,%d) invalid for %d sites", i, w.Lo, w.Hi, len(sites))
		}
	}
	return windows, nil
}
