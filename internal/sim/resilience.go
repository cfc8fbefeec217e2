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
	"blackjack/internal/journal"
	"blackjack/internal/parallel"
	"blackjack/internal/pipeline"
	"blackjack/internal/runcache"
)

// This file is the campaign resilience layer: per-run isolation (a panicking
// or hung run is quarantined with a repro command instead of killing the
// campaign), per-run wall-clock budgets with escalating retry, and a durable
// JSONL journal that makes campaigns resumable after a crash or SIGINT.
//
// The layer is built so that it never changes results:
//
//   - every simulation is deterministic given (program, mode, site), so a
//     retry re-runs the identical computation with a bigger time budget —
//     nothing is reseeded, nothing drifts;
//   - a journaled record replays EVERYTHING the run contributed to the
//     summary and the metrics registry (outcome counters, path counters,
//     fork-cycle and latency histograms), so a resumed campaign's table and
//     metrics are byte-identical to an uninterrupted one at any worker
//     count. The resumed-vs-fresh split is reported on the summary only,
//     never in the registry.

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
// path-choice metrics must replay exactly from the journal.
type runPath string

const (
	pathCold   runPath = "cold"
	pathForked runPath = "forked"
	pathWarm   runPath = "warm"
	pathFF     runPath = "fast-forward"
)

// Path reasons: why a run took its path, i.e. why it did not take the
// cheaper one ahead of it (warm, fast-forward, fork, cold). They are
// journaled and reported with each run, and stay out of the metrics
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
// journals.
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

// runRecord is one completed campaign run as journaled: the classified
// result plus everything needed to replay the run's registry contributions
// byte-identically on resume. The path fields after the first are additive
// and omitted when zero, so older journals still replay.
type runRecord struct {
	Result InjectionResult `json:"result"`
	pathInfo
	Retries int         `json:"retries,omitempty"`
	Failure *RunFailure `json:"failure,omitempty"`
}

// simulatedCycles is the number of cycle-accurate cycles the run stepped:
// from its fork cycle (0 for cold and fast-forwarded machines) to where it
// stopped — its convergence cut, else its final cycle. It is derived from
// journaled fields only, so it replays identically from the journal and
// the cache. Warm-served runs stepped nothing. A run that wedged by panic
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

// campaignJournalVersion is bumped when runRecord or the identity schema
// changes incompatibly. v2: keys fold through the canonical runcache
// identity encoder (adding the machine configuration) and headers record
// the human-readable parts. v3: the key is campaignIdentity plus every
// site in canonical JSON — v2 formatted sites with their lossy String
// method, so lists differing only in kind, shot, trigger or duty fields
// shared one key.
const campaignJournalVersion = 3

// openJournal opens (creating or resuming) cfg.JournalPath for the
// campaign about to run on exactly these arguments, or returns nil when
// the path is empty. The journal is keyed by campaignIdentity — program,
// machine, mode, instruction budget, split-payload option and
// checkpoint/fast-forward plan, the schema shared with the run cache —
// plus every window in order (addWindow), and refuses to resume a journal
// written for a different campaign or grouping of the sites
// (journal.ErrKeyMismatch), naming the changed parameter. Worker count is
// deliberately not part of the key: a campaign journaled under one
// -parallel value resumes under any other. With cfg.OnProgress set, every
// append is fsync'd before Append returns (see Config.JournalPath).
func openJournal(cfg Config, program string, sites []fault.Site, windows []Window, opts InjectOptions) (*journal.Journal[runRecord], error) {
	if cfg.JournalPath == "" {
		return nil, nil
	}
	id := campaignIdentity(cfg, program, opts)
	for _, w := range windows {
		addWindow(id, sites, w)
	}
	j, _, err := journal.Open[runRecord](cfg.JournalPath, journal.Header{
		Kind: "campaign", Key: id.Hash64(), Version: campaignJournalVersion,
		Parts: id.Parts(),
	})
	if err == nil && cfg.OnProgress != nil {
		j.SetSyncEvery(1)
	}
	return j, err
}

// campaignTestHook, when non-nil, runs at the start of every campaign run
// attempt with the attempt's run context and the entry index. It exists so
// tests can make a specific site panic or livelock (block until the budget
// expires) without teaching the simulator to misbehave on demand.
var campaignTestHook func(ctx context.Context, i int) error

// campaignRunner executes one campaign entry — the window windows[i] of
// the site list — with isolation, budget and retry applied, producing the
// journalable record.
type campaignRunner struct {
	cfg     Config
	prog    *isa.Program
	sites   []fault.Site
	windows []Window
	opts    InjectOptions
	// journal replays an earlier session's records (nil without
	// Config.JournalPath).
	journal *journal.Journal[runRecord]

	// attempt runs the sites of win once under runCtx (nil means
	// unbudgeted) and reports which path served it.
	attempt func(w *campaignWorker, win Window, runCtx context.Context) (InjectionResult, pathInfo, error)

	// cell is the cache cell identity prefix (nil without a cache).
	cell *runcache.Identity

	resumed   atomic.Int64
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

// run executes item i to a journalable record: retry loop with escalating
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

// serve returns item i's record from the first source that has it: the
// journal (a record replayed from an earlier session), then the cache,
// then a live run. It also names the source as RunProgress.Served does:
// "journal", "cache" or the live path.
func (c *campaignRunner) serve(w *campaignWorker, i int) (runRecord, string, error) {
	if c.journal != nil {
		if rec, ok := c.journal.Replayed(i); ok {
			// Contribute to the summary exactly as the original execution did.
			c.resumed.Add(1)
			c.retried.Add(int64(rec.Retries))
			if rec.Failure != nil {
				c.mu.Lock()
				c.failures = append(c.failures, *rec.Failure)
				c.mu.Unlock()
			}
			return rec, "journal", nil
		}
	}
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
