package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/runcache"
)

// This file is the campaign resilience layer: per-run isolation (a panicking
// or hung run is quarantined with a repro command instead of killing the
// campaign) and per-run wall-clock budgets with escalating retry. Resuming
// after a crash or SIGINT is the run store's job (Config.Cache): every
// completed cell is durable there before it is reported.
//
// The layer is built so that it never changes results:
//
//   - every simulation is deterministic given (program, mode, site), so a
//     retry re-runs the identical computation with a bigger time budget —
//     nothing is reseeded, nothing drifts;
//   - a stored record replays EVERYTHING the run contributed to the
//     summary and the metrics registry (outcome counters, path counters,
//     fork-cycle and latency histograms), so a resumed campaign's table and
//     metrics are byte-identical to an uninterrupted one at any worker
//     count. The stored-vs-fresh split is reported on the summary only
//     (CacheHits), never in the registry.

// Resilience tunes the campaign resilience layer. The zero value disables
// it entirely: runs are unbudgeted and a panic aborts the campaign (as a
// structured *parallel.PanicError rather than a process crash).
type Resilience struct {
	// Isolate quarantines failed runs (panic, exhausted budget) as
	// RunFailure entries with repro commands, letting the rest of the
	// campaign complete, instead of aborting on the first failure.
	Isolate bool
	// RunTimeout is the per-run wall-clock budget. Attempt k runs under
	// RunTimeout<<k, so retries escalate geometrically. 0 means unbudgeted.
	RunTimeout time.Duration
	// Retries is how many times a failed run is re-executed before it is
	// quarantined (Isolate) or aborts the campaign.
	Retries int
}

// Failure reasons recorded on quarantined runs.
const (
	// ReasonPanic: the run panicked in the harness (outside the machine's
	// own fault-wedge recovery, which classifies as OutcomeWedged).
	ReasonPanic = "panic"
	// ReasonTimeout: the run exhausted its wall-clock budget on every
	// attempt — a livelock the cycle backstop has not caught.
	ReasonTimeout = "timeout"
	// ReasonError: the run failed with an ordinary error.
	ReasonError = "error"
)

// RunFailure describes one quarantined campaign run: what failed, why, and
// the exact command that reproduces it standalone.
type RunFailure struct {
	// Index is the run's entry index within the campaign: the site index,
	// or the window index of a windowed campaign (CampaignWindows).
	Index int `json:"index"`
	// Site is the injected fault site (a window's first site).
	Site fault.Site `json:"site"`
	// Reason is one of ReasonPanic, ReasonTimeout, ReasonError.
	Reason string `json:"reason"`
	// Detail is the failing error's message.
	Detail string `json:"detail"`
	// Stack is the panicking goroutine's stack, when Reason is panic.
	Stack string `json:"stack,omitempty"`
	// Attempts is how many times the run was tried (1 + retries).
	Attempts int `json:"attempts"`
	// Repro reproduces the run standalone: bjfault -site-index runs the
	// site as a one-site campaign on the same plan, which takes the path
	// the campaign's run took (InjectProgram). It is empty for a multi-site window, which no single-site command replays,
	// and for a site list bjfault cannot name (neither a fault kind's
	// canonical list nor the latent campaign), where -site-index would
	// replay a different site.
	Repro string `json:"repro"`
}

// InterruptedError reports a simulation stopped early by its run-context
// budget: either the per-run wall-clock deadline (retryable) or a
// campaign-level shutdown (not). Unwrap exposes the context error so
// callers can tell the two apart with errors.Is.
type InterruptedError struct {
	Benchmark string
	Mode      pipeline.Mode
	Cycle     int64
	Cause     error
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sim: %s/%v interrupted at cycle %d: %v", e.Benchmark, e.Mode, e.Cycle, e.Cause)
}

func (e *InterruptedError) Unwrap() error { return e.Cause }

// DeadlockError reports a standalone run that hit the cycle backstop
// without completing — the typed form of Stats.Deadlocked, so callers
// (bjsim) can distinguish a wedged machine from ordinary errors.
type DeadlockError struct {
	Benchmark string
	Mode      pipeline.Mode
	Cycle     int64
	Committed uint64
	Budget    int
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: %s/%v wedged at cycle %d (committed %d/%d)",
		e.Benchmark, e.Mode, e.Cycle, e.Committed, e.Budget)
}

// runPath records which execution path served a campaign run — the
// path-choice metrics must replay exactly from the run store.
type runPath string

const (
	pathCold   runPath = "cold"
	pathForked runPath = "forked"
	pathWarm   runPath = "warm"
	pathFF     runPath = "fast-forward"
)

// Path reasons: why a run took its path, i.e. why it did not take the
// cheaper one ahead of it (warm, fast-forward, fork, cold). They are
// stored and reported with each run, and stay out of the metrics
// registry.
const (
	// reasonNeverFires: no site of the run can ever corrupt a value on the
	// warmup trajectory, so the warmup's result serves it.
	reasonNeverFires = "never-fires"
	// reasonFFIneligible prefixes the first site kind fast-forward cannot
	// serve (fault.Site.FFEligible), e.g. "ff-ineligible:transient".
	reasonFFIneligible = "ff-ineligible:"
	// reasonBeforeFirstMark: the run's first activation comes too early for
	// a fast-forward handoff one warmup lead before it.
	reasonBeforeFirstMark = "activation-before-first-mark"
	// reasonNoCheckpoint: no warmup checkpoint precedes the first
	// activation, so the run cannot fork and runs cold.
	reasonNoCheckpoint = "no-checkpoint-before-activation"
	// reasonWarmupInvalid: the plan's warmup failed, so every run is cold.
	reasonWarmupInvalid = "warmup-invalid"
	// reasonNoPlan: the campaign neither checkpoints nor fast-forwards, so
	// every run is cold.
	reasonNoPlan = "no-plan"
	// reasonCacheDivergence: the run was a verified cache hit whose stored
	// record differed from the live one, which is served instead.
	reasonCacheDivergence = "cache-verify-divergence"
)

// pathInfo describes how a campaign run was served: the path plus that
// path's parameters (fork cycle, functionally skipped instructions,
// early-stop, the cycle it reconverged with the warmup at) and the reason
// it took that path. It is what injectCtx reports and what runRecord
// stores.
type pathInfo struct {
	Path      runPath `json:"path,omitempty"`
	ForkCycle int64   `json:"fork_cycle,omitempty"`
	FFSkipped int64   `json:"ff_skipped,omitempty"`
	EarlyStop bool    `json:"early_stop,omitempty"`
	// Converged marks a run cut at ConvergedAt, the checkpoint cycle where
	// it reconverged with the golden warmup (see CampaignPlan.run).
	Converged   bool  `json:"converged,omitempty"`
	ConvergedAt int64 `json:"converged_at,omitempty"`
	// Reason is one of the path reasons above ("" for a run on the
	// cheapest path its plan offers).
	Reason string `json:"reason,omitempty"`
}

// runRecord is one completed campaign run as stored: the classified result
// plus everything needed to replay the run's registry contributions
// byte-identically on resume. The path fields after the first are omitted
// when zero.
type runRecord struct {
	Result InjectionResult `json:"result"`
	pathInfo
	Retries int         `json:"retries,omitempty"`
	Failure *RunFailure `json:"failure,omitempty"`
}

// simulatedCycles is the number of cycle-accurate cycles the run stepped:
// from its fork cycle (0 for cold and fast-forwarded machines) to where it
// stopped — its convergence cut, else its final cycle. It is derived from
// stored fields only, so it replays identically from the run store.
// Warm-served runs stepped nothing. A run that wedged by panic
// records no final cycle and counts 0.
func (rec runRecord) simulatedCycles() uint64 {
	if rec.Path == pathWarm {
		return 0
	}
	end := rec.Result.Cycles
	if rec.Converged {
		end = rec.ConvergedAt
	}
	return uint64(max(end-rec.ForkCycle, 0))
}

// campaignTestHook, when non-nil, runs at the start of every campaign run
// attempt with the attempt's run context and the entry index. It exists so
// tests can make a specific site panic or livelock (block until the budget
// expires) without teaching the simulator to misbehave on demand.
var campaignTestHook func(ctx context.Context, i int) error

// campaignRunner executes one campaign entry — the window windows[i] of
// the site list — with isolation, budget and retry applied, producing the
// storable record.
type campaignRunner struct {
	cfg     Config
	prog    *isa.Program
	sites   []fault.Site
	windows []Window
	opts    InjectOptions

	// attempt runs the sites of win once under runCtx (nil means
	// unbudgeted) and reports which path served it.
	attempt func(w *campaignWorker, win Window, runCtx context.Context) (InjectionResult, pathInfo, error)

	// cell is the cache cell identity prefix (nil without a cache).
	cell *runcache.Identity

	retried   atomic.Int64
	cacheHits atomic.Int64

	mu       sync.Mutex
	failures []RunFailure
}

// repro builds the standalone reproduction command for entry i. bjfault's
// -site-index indexes into the canonical list of one fault kind, or the
// latent campaign under -sites latent, so only a campaign over such a list
// gets one, naming the list; on any other list the index would replay a
// different site. A multi-site window gets none either: -site-index
// replays one site alone, a different run.
func (c *campaignRunner) repro(i int) string {
	w := c.windows[i]
	if w.Hi-w.Lo > 1 {
		return ""
	}
	list := ""
	if IsLatentCampaign(c.cfg.Machine, c.sites) {
		list = " -sites latent"
	} else if kind, ok := canonicalKind(c.cfg.Machine, c.sites); !ok {
		return ""
	} else if kind != fault.KindPermanent {
		list = fmt.Sprintf(" -fault-kind %v", kind)
	}
	cmd := fmt.Sprintf("bjfault -bench %s -mode %v -n %d -site-index %d%s",
		c.prog.Name, c.cfg.Mode, c.cfg.MaxInstructions, w.Lo, list)
	if !c.opts.SplitPayload {
		cmd += " -split=false"
	}
	if c.cfg.CheckpointInterval > 0 {
		cmd += fmt.Sprintf(" -checkpoint-interval %d", c.cfg.CheckpointInterval)
	}
	if c.cfg.FastForward {
		cmd += fmt.Sprintf(" -ff -ff-warmup %d", c.cfg.ffWarmup())
	}
	return cmd
}

// attemptOnce runs one attempt of item i: derives the attempt's budget
// (Config.runContext), installs the isolation recover barrier, and
// fires the test seam.
func (c *campaignRunner) attemptOnce(w *campaignWorker, i, attempt int) (res InjectionResult, pi pathInfo, err error) {
	runCtx, cancel := c.cfg.runContext(attempt)
	defer cancel()
	if c.cfg.Resilience.Isolate {
		defer func() {
			if r := recover(); r != nil {
				err = &parallel.PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
	}
	if campaignTestHook != nil {
		if herr := campaignTestHook(runCtx, i); herr != nil {
			return InjectionResult{}, pathInfo{}, herr
		}
	}
	return c.attempt(w, c.windows[i], runCtx)
}

// failureReason classifies a run error for retry/quarantine purposes.
func failureReason(err error) string {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		return ReasonPanic
	}
	var ie *InterruptedError
	if errors.As(err, &ie) || errors.Is(err, context.DeadlineExceeded) {
		return ReasonTimeout
	}
	return ReasonError
}

// run executes item i to a storable record: retry loop with escalating
// budgets, then quarantine (under Isolate) or campaign abort.
func (c *campaignRunner) run(w *campaignWorker, i int) (runRecord, error) {
	res := c.cfg.Resilience
	for attempt := 0; ; attempt++ {
		r, pi, err := c.attemptOnce(w, i, attempt)
		if err == nil {
			if attempt > 0 {
				c.retried.Add(int64(attempt))
			}
			return runRecord{Result: r, pathInfo: pi, Retries: attempt}, nil
		}
		if c.cfg.Ctx != nil && c.cfg.Ctx.Err() != nil {
			// Campaign-level shutdown (SIGINT): not a run failure. Surface
			// the cancellation so the fan-out drains and partial state is
			// flushed.
			return runRecord{}, c.cfg.Ctx.Err()
		}
		if attempt < res.Retries {
			continue
		}
		if !res.Isolate {
			return runRecord{}, err
		}
		reason := failureReason(err)
		site := c.sites[c.windows[i].Lo]
		f := RunFailure{
			Index: i, Site: site, Reason: reason, Detail: err.Error(),
			Attempts: attempt + 1, Repro: c.repro(i),
		}
		var pe *parallel.PanicError
		if errors.As(err, &pe) {
			f.Stack = string(pe.Stack)
		}
		c.retried.Add(int64(attempt))
		c.mu.Lock()
		c.failures = append(c.failures, f)
		c.mu.Unlock()
		return runRecord{
			Result: InjectionResult{
				Site: site, Mode: c.cfg.Mode,
				Outcome: OutcomeQuarantined, DetectionLatency: -1,
			},
			Retries: attempt,
			Failure: &f,
		}, nil
	}
}

// serve returns item i's record from the run store when it holds the
// cell, else from a live run, which fills the store before serve returns.
// It also names the source as RunProgress.Served does: "cache" or the live
// path.
func (c *campaignRunner) serve(w *campaignWorker, i int) (runRecord, string, error) {
	if c.cell == nil {
		rec, err := c.run(w, i)
		return rec, string(rec.Path), err
	}
	id := addWindow(runcache.NewIdentity(c.cell.Parts()...), c.sites, c.windows[i])
	rec, hit, diverged, err := cachedRun(c.cfg, id, func() (runRecord, error) { return c.run(w, i) }, cacheForm)
	switch {
	case err != nil:
		return runRecord{}, "", err
	case !hit:
		return rec, string(rec.Path), nil
	}
	c.cacheHits.Add(1)
	if diverged {
		rec.Reason = reasonCacheDivergence
	}
	return rec, "cache", nil
}

// quarantined returns the accumulated failures sorted by entry index (the
// append order is completion order, which is scheduling-dependent).
func (c *campaignRunner) quarantined() []RunFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]RunFailure(nil), c.failures...)
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}
