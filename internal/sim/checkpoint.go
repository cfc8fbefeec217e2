package sim

import (
	"context"
	"errors"
	"slices"
	"sort"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
)

// This file implements checkpoint/fork fault campaigns. A campaign over N
// sites previously ran N cold simulations, each replaying the same fault-free
// prefix before its fault first fired — for trigger-gated or late-firing
// faults, nearly the whole run. Instead, a CampaignPlan runs ONE fault-free
// warmup with a probe attached (fault.NewProbe: an injector that never
// corrupts), snapshotting the machine on a grid of cycles (Config.planGrid)
// and recording each site's first activation cycle on the pristine
// trajectory. It keeps only the snapshots a run can read: fork sources, on
// any grid point, and reconvergence references, after a one-shot
// transient's shot on the next reconvergeSteps grid points and on multiples
// of CheckpointInterval (CampaignPlan.readable); the rest are rebuilt over
// in place. A spent run compares against every kept snapshot it passes. A
// kept snapshot shares every memory and tag page that did not change since
// the previous kept one (pipeline.Machine.SnapshotInto). Once
// every site has fired on a list with no one-shot transient, no run can
// read the rest of the warmup, and it ends there (CampaignPlan.warmup).
// Each injection then forks from the latest checkpoint strictly preceding
// its sites' first activation; sites that can never activate are served
// straight from the warmup result. The golden ISA-reference state used for
// outcome classification is memoized in a goldenOracle shared by every run
// of the campaign.
//
// Soundness: the probe never corrupts, so every site observes the pristine
// trajectory, and a cold injected run is byte-identical to that trajectory
// until its first corruption. A checkpoint taken strictly before the earliest
// member activation is therefore on the injected run's own path, and
// pipeline.Fork resumes it bit-identically (snapshot_test.go proves this per
// cycle), so the grid changes only which cycle a run starts from. Transient
// FireAt counters are seeded from the probe's use counts at the
// checkpoint, so one-shot faults fire on exactly the same eligible use.
//
// With Config.FastForward the plan goes further (sampled simulation): the
// fault-free prefix before a site's activation window is executed on the
// golden ISA emulator — roughly two orders of magnitude faster than the
// pipeline — and a warm cycle-accurate machine is seeded from the resulting
// architectural state one warmup lead of instructions before the window
// (pipeline.NewFromArch). This trades the forked path's bit-exactness for
// speed: outcome tables and detection classifications still match full
// simulation (serve's TestCampaignPathMatrix checks this per site list),
// but cycle counts, activation totals and detection latencies of
// fast-forwarded runs are relative to the simulated window.

// goldenOracle serves golden-model state along one memoized functional
// trajectory (isa.Trajectory), shared across campaign workers: the
// store-stream signature for outcome classification, and full architectural
// snapshots for fast-forward handoffs. The trajectory's snapshot cache makes
// repeated rewinds cheap — no per-run machine allocation, no replay from
// instruction 0 once a nearby snapshot exists.
type goldenOracle struct {
	tr *isa.Trajectory
}

func newGoldenOracle(p *isa.Program) *goldenOracle {
	return &goldenOracle{tr: isa.NewTrajectory(p)}
}

// at returns the golden store signature and store count after k retired
// instructions (or the program's halt, whichever comes first).
func (o *goldenOracle) at(k uint64) (sig, stores uint64, err error) {
	return o.tr.SigAt(k)
}

// archAt returns the full architectural state after k retired instructions —
// the fast-forward handoff state. The snapshot is shared; do not mutate.
func (o *goldenOracle) archAt(k uint64) (*isa.ArchState, error) {
	return o.tr.At(k)
}

// classify fills an InjectionResult from a finished run's statistics,
// resolving benign vs silent through the oracle. Shared by the cold, forked
// and never-fires paths so the three agree exactly.
func classify(res *InjectionResult, st *pipeline.Stats, inj *fault.Injector, oracle *goldenOracle) error {
	res.Activations = inj.Activations()
	res.Detections = st.Detections
	res.FirstEvent = st.FirstEvent
	res.Cycles = st.Cycles
	if first, ok := inj.FirstActivation(); ok && st.FirstEvent != nil {
		res.DetectionLatency = st.FirstEvent.Cycle - first
	}
	switch {
	case st.Detections > 0:
		res.Outcome = OutcomeDetected
	case st.Deadlocked:
		res.Outcome = OutcomeWedged
	default:
		sig, stores, err := oracle.at(st.Committed[0])
		if err != nil {
			return err
		}
		if st.StoreSignature == sig && st.ReleasedStores == stores {
			res.Outcome = OutcomeBenign
		} else {
			res.Outcome = OutcomeSilent
		}
	}
	return nil
}

// planCheckpoint is one warmup snapshot: the machine state, the cycle it was
// taken at, and the probe's per-site eligible-use counters at that cycle.
type planCheckpoint struct {
	cycle int64
	snap  *pipeline.Checkpoint
	uses  []uint64
}

// ffMark is one fast-forward anchor on the warmup trajectory: at warmup
// cycle `cycle`, both threads had committed at least `instrs` instructions.
// The probe's per-site use counts at mark k are the k-th run of len(sites)
// counters in CampaignPlan.markUses. Marks map a fault's first-activation
// cycle back to a committed-instruction handoff target, and seed transient
// use counters at that target. Unlike planCheckpoints, marks hold no
// machine state — two words plus their share of one plan-wide array, so a
// fast-forward campaign without checkpoints stays near-zero-memory.
type ffMark struct {
	cycle  int64
	instrs uint64
}

// gridStep is the plan grid's cadence in cycles, unless CheckpointInterval
// does not divide it (see Config.planGrid).
const gridStep = 500

// reconvergeSteps is how many grid points from a one-shot transient's shot
// on the plan keeps as reconvergence references, whatever
// CheckpointInterval. Most masked shots reconverge within it: over the
// transient lists of 16 seeded benchmarks (6,000 instructions, 500-cycle
// grid), 312 of 345 converged runs matched within two grid steps of their
// shot. Keeping every grid point instead simulated as many cycles, but
// kept 4.7 times the checkpoints on a 120,000-instruction plan.
const reconvergeSteps = 3

// planGrid returns the cadence, in cycles, of the warmup's and the runs'
// hooks: the warmup's fast-forward marks and snapshots lie on multiples of
// it, and a run compares against a kept snapshot at any of them. It
// divides CheckpointInterval, and it is
// gcd(CheckpointInterval, gridStep) with checkpoints, gridStep with
// fast-forward alone, and 0 (no hook) with neither.
func (c Config) planGrid() int64 {
	switch {
	case c.CheckpointInterval > 0:
		a, b := c.CheckpointInterval, int64(gridStep)
		for b != 0 {
			a, b = b, a%b
		}
		return a
	case c.FastForward:
		return gridStep
	}
	return 0
}

// CampaignPlan amortizes a fault campaign's shared fault-free prefix: build
// it once per (config, mode, program, site list), then run each entry of
// the campaign — one site, or a window of simultaneous faults
// (CampaignWindows) — from it.
type CampaignPlan struct {
	cfg   Config
	prog  *isa.Program
	sites []fault.Site
	opts  InjectOptions

	oracle    *goldenOracle
	probe     *fault.Injector
	cps       []planCheckpoint
	marks     []ffMark
	markUses  []uint64 // each mark's use counts, in mark order (see ffMark)
	warm      pipeline.Stats
	warmValid bool
	// idle holds the warmup's machine once the warmup is over, until the
	// first run storage that has no machine yet takes it (injectCtx): that
	// worker's runs then rebuild the storage the warmup grew instead of
	// growing their own.
	idle chan *pipeline.Machine
	// warmCut records a warmup ended early, at the first grid point
	// with every site fired and no one-shot transient in the list: warm
	// then holds the statistics of a prefix, never to be served.
	warmCut bool
}

// NewCampaignPlan runs the fault-free warmup (one simulation with a probe
// attached, ended early once no run can read the rest of it; see warmup),
// snapshots it on the plan grid (cfg.planGrid) and keeps the snapshots a
// run can read (see readable). An interval <= 0 takes no snapshots — every
// injection then runs cold, but the never-fires shortcut and the memoized
// oracle still apply.
func NewCampaignPlan(cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions) (*CampaignPlan, error) {
	if err := validateInjection(cfg, sites); err != nil {
		return nil, err
	}
	pl := &CampaignPlan{
		cfg: cfg, prog: p, sites: sites, opts: opts,
		oracle: newGoldenOracle(p),
		probe:  fault.NewProbe(sites, opts.SplitPayload),
	}
	pl.warmup()
	return pl, nil
}

// warmup runs the pristine simulation. A panic during warmup (a wedged
// simulator without any fault would be a bug, but campaigns must be robust)
// just disables the plan: every injection falls back to a cold run.
//
// The warmup ends at the first grid point where every site has fired and
// the list has no one-shot transient, because no run reads past it:
//   - never-fires windows read the final statistics; there are none;
//   - reconvergence cuts read checkpointAt and the final statistics, but
//     only once an injector is spent, which only a transient can be;
//   - fork sources (latestBefore) and fast-forward handoffs (marks) lie
//     before their run's first fire, at or before this boundary;
//   - the pending snapshot settles with this boundary as its next cycle,
//     as it would were the warmup to go on.
//
// Every lookup a run makes therefore returns what it would after the whole
// warmup, and Checkpoints does not change.
func (pl *CampaignPlan) warmup() {
	defer func() {
		if r := recover(); r != nil {
			pl.invalidate()
		}
	}()
	wopts := []pipeline.Option{pipeline.WithInjector(pl.probe)}
	if pl.cfg.Ctx != nil {
		// Honor campaign-level shutdown during the warmup too; the
		// injections that follow observe the same cancellation and abort.
		wopts = append(wopts, pipeline.WithRunContext(pl.cfg.Ctx))
	}
	m, err := pipeline.New(pl.cfg.Machine, pl.cfg.Mode, pl.prog, wopts...)
	if err != nil {
		return
	}
	pl.probe.Now = m.Cycle
	snapshots := pl.cfg.CheckpointInterval > 0
	if pl.cfg.FastForward {
		// Implicit reset-state mark, so every positive handoff target has a
		// use-counter seed at or below it.
		pl.marks = append(pl.marks, ffMark{})
		pl.markUses = make([]uint64, len(pl.sites))
	}
	// Each snapshot waits as the pending checkpoint until the warmup has
	// seen every fire it could serve; then it is kept, or the storage it
	// owns is spare for the next snapshot. It shares the pages that equal
	// those of the latest kept checkpoint, which stays as it is.
	forkBoundList := !pl.cfg.FastForward || pl.ffIneligible(0, len(pl.sites)) != ""
	// Only a one-shot transient's injector is ever spent (Injector.Spent).
	mayEnd := !slices.ContainsFunc(pl.sites, func(s fault.Site) bool { return s.EffectiveKind() == fault.KindTransient })
	var pending, spare planCheckpoint
	settle := func(next int64) {
		if pending.snap == nil {
			return
		}
		if pl.readable(pending.cycle, next, forkBoundList) {
			pl.cps = append(pl.cps, pending)
		} else {
			spare = pending
		}
		pending = planCheckpoint{}
	}
	st := m.RunWithCheckpoints(pl.cfg.MaxInstructions, pl.cfg.planGrid(), func(live *pipeline.Machine) {
		if pl.cfg.FastForward {
			lead, trail := live.CommittedInstrs()
			pl.marks = append(pl.marks, ffMark{cycle: live.Cycle(), instrs: min(lead, trail)})
			pl.markUses = pl.probe.AppendUses(pl.markUses)
			// ffHandoff succeeds for every fire after a mark past the
			// warmup lead, and a list that may fast-forward has no
			// transient to reconverge: no later snapshot can be read.
			if !forkBoundList && min(lead, trail) > uint64(pl.cfg.ffWarmup()) {
				snapshots = false
			}
		}
		settle(live.Cycle())
		fired := pl.allFired()
		if mayEnd && fired {
			pl.warmCut = true
			live.Stop()
			return
		}
		// A fork source at cycle c serves only a site that first fires
		// after c: once every site has fired, only a reference point can
		// be read.
		if snapshots && (!fired || pl.referenceAt(live.Cycle())) {
			var prev *pipeline.Checkpoint
			if n := len(pl.cps); n > 0 {
				prev = pl.cps[n-1].snap
			}
			pending = planCheckpoint{
				cycle: live.Cycle(),
				snap:  live.SnapshotInto(spare.snap, prev),
				uses:  pl.probe.AppendUses(spare.uses[:0]),
			}
			spare = planCheckpoint{}
		}
	})
	// A cut warmup may stop before the machine's next context poll, so a
	// cancelled campaign is checked here too.
	if st.Interrupted || pl.warmCut && pl.cfg.Ctx != nil && pl.cfg.Ctx.Err() != nil {
		pl.invalidate()
		return
	}
	settle(st.Cycles)
	pl.warm = *st
	pl.warmValid = true
	pl.idle = make(chan *pipeline.Machine, 1)
	pl.idle <- m
}

// invalidate drops a failed warmup's checkpoints and marks: every injection
// then runs cold.
func (pl *CampaignPlan) invalidate() {
	pl.cps, pl.marks, pl.markUses = nil, nil, nil
	pl.warmValid = false
}

// readable reports whether a run can read the warmup snapshot taken at
// grid point c, once the warmup has recorded every fire up to next, the
// next grid point (or the warmup's end). A run reads a snapshot in two
// ways:
//   - as its fork source: latestBefore picks c for a run whose earliest fire
//     is in (c, next], if the run does not fast-forward. It does not when
//     forkBoundList (fast-forward off, or a site the handoff's timing
//     cannot serve) or when ffHandoff fails for that fire.
//   - as a reconvergence reference: run compares against c only once its
//     injector is spent, when every site of the run is a one-shot transient
//     past its shot. A run equals the warmup until its first corruption,
//     which is one of its sites firing where the probe saw it fire; and a
//     run with no corruption by c has seen the warmup's shots by c, one of
//     which fires (else the run is served warm). Either way a transient of
//     the list fired at or before c. The plan keeps c as a reference for
//     such a shot when referenceAt says so.
//
// Every latestBefore a run makes therefore returns what it would return
// with every snapshot kept. A checkpointAt may not: a spent run passes
// grid points the plan did not keep, and is cut at the first kept one it
// equals. Any kept snapshot is the pristine state at its cycle, so the cut
// is exact wherever it lands (see run).
func (pl *CampaignPlan) readable(c, next int64, forkBoundList bool) bool {
	if pl.referenceAt(c) {
		return true
	}
	for i := range pl.sites {
		fire := pl.probe.FireCycle(i)
		if fire <= c || fire > next {
			continue
		}
		if forkBoundList {
			return true
		}
		if _, _, ok := pl.ffHandoff(fire); !ok {
			return true
		}
	}
	return false
}

// referenceAt reports whether grid point c is a reconvergence reference: a
// one-shot transient of the list fired at or before c, and c is one of the
// reconvergeSteps grid points from its shot on or a multiple of
// CheckpointInterval.
func (pl *CampaignPlan) referenceAt(c int64) bool {
	steps := reconvergeSteps * pl.cfg.planGrid()
	for i, s := range pl.sites {
		fire := pl.probe.FireCycle(i)
		if fire >= 0 && fire <= c && s.EffectiveKind() == fault.KindTransient &&
			(c-fire < steps || c%pl.cfg.CheckpointInterval == 0) {
			return true
		}
	}
	return false
}

// allFired reports whether every site has fired on the warmup so far.
func (pl *CampaignPlan) allFired() bool {
	for i := range pl.sites {
		if pl.probe.FireCycle(i) < 0 {
			return false
		}
	}
	return true
}

// warmStats returns the warmup's final statistics, which never-fires and
// reconverged runs are served. A warmup cut early holds only a prefix's
// statistics, and no run of its plan may read them (see warmup): reading
// them is an internal error, never a result.
func (pl *CampaignPlan) warmStats() (*pipeline.Stats, error) {
	if pl.warmCut {
		return nil, errors.New("sim: internal error: the statistics of a warmup cut early were read")
	}
	return &pl.warm, nil
}

// Checkpoints returns how many warmup snapshots the plan keeps.
func (pl *CampaignPlan) Checkpoints() int { return len(pl.cps) }

// injectCtx runs the subset sites[lo:hi] in a worker's reusable run storage
// (nil: the run allocates its own) under an optional run context (nil:
// unbudgeted). It reports which path served the run — warm, fast-forwarded,
// forked or cold, with that path's parameters and the reason it took it —
// so callers can record and store path-choice metrics that replay
// identically on resume.
//
// Path policy: a subset no member of which can ever corrupt is served from
// the warmup result. Otherwise, with fast-forward on, the functional model
// skips to a handoff one warmup lead before the subset's earliest
// activation cycle — the cheapest path, since skipped instructions cost
// ~1% of cycle-accurate ones. When no usable handoff exists (a
// timing-sensitive kind, activation too close to reset, or the warmup
// failed), the plan falls back to a checkpoint fork, then to a cold run.
func (pl *CampaignPlan) injectCtx(ctx context.Context, lo, hi int, rs *runStorage) (InjectionResult, pathInfo, error) {
	if rs.m == nil {
		select {
		case rs.m = <-pl.idle:
		default:
		}
	}
	subset := pl.sites[lo:hi]
	minFire := int64(-1)
	reason := reasonWarmupInvalid
	if pl.warmValid {
		fires := false
		for i := lo; i < hi; i++ {
			if c := pl.probe.FireCycle(i); c >= 0 && (!fires || c < minFire) {
				minFire, fires = c, true
			}
		}
		if !fires {
			// No member can ever corrupt a value: the injected run would
			// replay the warmup cycle for cycle. Serve the warmup's result.
			warm, err := pl.warmStats()
			if err != nil {
				return InjectionResult{}, pathInfo{}, err
			}
			res := InjectionResult{Site: subset[0], Mode: pl.cfg.Mode, DetectionLatency: -1}
			if err := classify(&res, warm, &fault.Injector{}, pl.oracle); err != nil {
				return InjectionResult{}, pathInfo{}, err
			}
			return res, pathInfo{Path: pathWarm, Reason: reasonNeverFires}, nil
		}
		reason = ""
		if pl.cfg.FastForward {
			reason = pl.ffIneligible(lo, hi)
			if reason == "" {
				if handoff, uses, ok := pl.ffHandoff(minFire); ok {
					return pl.ffRun(ctx, lo, hi, handoff, uses, rs)
				}
				reason = reasonBeforeFirstMark
			}
		}
	}
	if cp := pl.latestBefore(minFire); cp != nil {
		return pl.forkRun(ctx, cp, lo, hi, rs, reason)
	}
	if pl.warmValid && pl.cfg.CheckpointInterval > 0 {
		reason = reasonNoCheckpoint
	}
	r, pi, err := injectSites(ctx, pl.cfg, pl.prog, subset, pl.opts, rs, pl.oracle, pl)
	pi.Reason = reason
	return r, pi, err
}

// ffIneligible reports why sites[lo:hi] may not be served by fast-forward
// ("" when they may): the reasonFFIneligible prefix plus the kind of the
// first timing-sensitive site (fault.Site.FFEligible). A one-shot
// transient's outcome depends on the exact dynamic use its shot corrupts, an
// intermittent's duty windows are indexed by exact eligible-use counts, and
// a control-flow error's outcome depends on speculative wrong-path state —
// microarchitectural detail only the bit-exact paths (fork, cold)
// reproduce. Persistent faults (always-on, trigger-gated, arming,
// multi-bit) corrupt every eligible use once active, so their
// classification is robust to the handoff's timing perturbation — the
// property the campaign path matrix checks.
func (pl *CampaignPlan) ffIneligible(lo, hi int) string {
	for _, s := range pl.sites[lo:hi] {
		if !s.FFEligible() {
			return reasonFFIneligible + s.EffectiveKind().String()
		}
	}
	return ""
}

// ffHandoff maps a subset's earliest possible activation cycle to a
// fast-forward handoff: the committed-instruction target the functional
// model runs to, and the transient use-counter seed at (or just below) that
// target. Reports ok=false when the activation is too close to reset for a
// full warmup lead — the fork/cold paths handle those.
//
// The anchor is the latest warmup mark strictly before minFire: every
// instruction committed by then is committed (by both threads) before the
// fault can corrupt anything, so handing off warmup-lead instructions
// earlier leaves the whole activation window plus the lead cycle-accurate.
// Use counters are seeded from the latest mark at or below the target. The
// seed is off in both directions: it lags by up to one mark interval of
// progress, but a mark also counts the decodes the leading thread ran ahead
// of its committed count, which the handoff machine, starting both threads
// empty at the target, decodes again. So a seeded fault may fire a few
// hundred eligible uses early or late; the warmup lead keeps it inside the
// cycle-accurate window. Outcome-table equivalence under this seeding is
// what the campaign path matrix checks; a wear-out site arming within about
// one slack of the budget's end can differ (EXPERIMENTS.md, "Known
// divergences").
//
// The seed is cut from markUses, which grows while the warmup runs; the
// warmup reads only ok (readable), and runs read the seed once it has ended.
func (pl *CampaignPlan) ffHandoff(minFire int64) (handoff uint64, uses []uint64, ok bool) {
	if minFire < 0 || len(pl.marks) == 0 {
		return 0, nil, false
	}
	j := sort.Search(len(pl.marks), func(i int) bool { return pl.marks[i].cycle >= minFire })
	if j == 0 {
		return 0, nil, false
	}
	anchor := pl.marks[j-1].instrs
	lead := uint64(pl.cfg.ffWarmup())
	if anchor <= lead {
		return 0, nil, false
	}
	target := anchor - lead
	k := sort.Search(len(pl.marks), func(i int) bool { return pl.marks[i].instrs > target })
	if k == 0 {
		return 0, nil, false
	}
	n := len(pl.sites)
	return target, pl.markUses[(k-1)*n : k*n], true
}

// ffRun serves one injection by sampled simulation: functional golden state
// at the handoff, a warm arch-seeded machine, and a cycle-accurate run over
// just the remainder, to its first detection like every injection run.
// Classification matches the cold and forked paths exactly; Cycles,
// Activations and DetectionLatency are window-relative, so the warmup's
// checkpoints are no convergence reference here.
func (pl *CampaignPlan) ffRun(ctx context.Context, lo, hi int, handoff uint64, uses []uint64, rs *runStorage) (InjectionResult, pathInfo, error) {
	subset := pl.sites[lo:hi]
	arch, err := pl.oracle.archAt(handoff)
	if err != nil {
		return InjectionResult{}, pathInfo{}, err
	}
	inj := &fault.Injector{Sites: subset, SplitPayload: pl.opts.SplitPayload}
	inj.SeedUses(uses[lo:hi])
	if err := rs.machine().InitFromArch(pl.cfg.Machine, pl.cfg.Mode, pl.prog, arch, rs.options(ctx, inj)...); err != nil {
		return InjectionResult{}, pathInfo{}, err
	}
	r, pi, err := execute(ctx, pl.cfg, pl.prog.Name, rs, inj, subset[0], pl.oracle, nil)
	pi.Path, pi.FFSkipped = pathFF, int64(handoff)
	return r, pi, err
}

// latestBefore returns the newest checkpoint strictly before the given
// cycle (the fork point must precede the first corruption), or nil.
func (pl *CampaignPlan) latestBefore(cycle int64) *planCheckpoint {
	if cycle < 0 {
		return nil
	}
	j := sort.Search(len(pl.cps), func(i int) bool { return pl.cps[i].cycle >= cycle })
	if j == 0 {
		return nil
	}
	return &pl.cps[j-1]
}

// forkRun resumes the warmup from a checkpoint with a real injector
// installed, seeded so transient use counting continues where the probe's
// left off, and reports reason as the run's path reason.
func (pl *CampaignPlan) forkRun(ctx context.Context, cp *planCheckpoint, lo, hi int, rs *runStorage, reason string) (InjectionResult, pathInfo, error) {
	subset := pl.sites[lo:hi]
	inj := &fault.Injector{Sites: subset, SplitPayload: pl.opts.SplitPayload}
	inj.SeedUses(cp.uses[lo:hi])
	rs.machine().ForkFrom(cp.snap, rs.options(ctx, inj)...)
	r, pi, err := execute(ctx, pl.cfg, pl.prog.Name, rs, inj, subset[0], pl.oracle, pl)
	pi.Path, pi.ForkCycle, pi.Reason = pathForked, cp.cycle, reason
	return r, pi, err
}

// run runs m, with injector inj installed, to the end of its instruction
// budget — or until it reconverges with the golden warmup: at a grid point
// where the plan kept a snapshot (whether a fork source or a reference),
// inj can never corrupt again (fault.Injector.Spent) and m's whole state
// equals the snapshot's (pipeline.Machine.Matches). A run cut there returns
// the warmup's final statistics as warm (nil otherwise), or an error if the
// warmup was itself cut early.
//
// The cut is exact. Every kept snapshot is the pristine state at its cycle,
// and the machine is deterministic, so from equal state at an equal cycle,
// with an injector that corrupts nothing, the run replays the warmup's tail
// cycle for cycle: the same statistics, the same stores and no detection.
// A cut run is therefore served the warmup's final statistics, and its own
// injector's activation count. A warmup that reported a detection is never
// a reference, so a run that stops at its first detection cannot be cut
// where it would have stopped later. (A warmup cut early counts a prefix's
// detections; without a transient in its list no injector of its plan is
// ever spent, so no run is cut.) Without a plan or checkpoints, run is
// m.Run.
func (pl *CampaignPlan) run(m *pipeline.Machine, inj *fault.Injector, maxInstrs int) (st, warm *pipeline.Stats, err error) {
	if pl == nil || len(pl.cps) == 0 || pl.warm.Detections > 0 {
		return m.Run(maxInstrs), nil, nil
	}
	converged := false
	st = m.RunWithCheckpoints(maxInstrs, pl.cfg.planGrid(), func(live *pipeline.Machine) {
		if !inj.Spent() {
			return
		}
		if cp := pl.checkpointAt(live.Cycle()); cp != nil && live.Matches(cp.snap) {
			converged = true
			live.Stop()
		}
	})
	if converged {
		warm, err = pl.warmStats()
	}
	return st, warm, err
}

// checkpointAt returns the checkpoint taken at exactly the given cycle, or
// nil.
func (pl *CampaignPlan) checkpointAt(cycle int64) *planCheckpoint {
	j := sort.Search(len(pl.cps), func(i int) bool { return pl.cps[i].cycle >= cycle })
	if j < len(pl.cps) && pl.cps[j].cycle == cycle {
		return &pl.cps[j]
	}
	return nil
}
