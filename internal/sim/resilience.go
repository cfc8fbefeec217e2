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
//     never in the registry;
//   - wall-clock observations (watchdog stalls) stay out of the registry
//     for the same reason.

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
	// StallAfter arms a hung-worker watchdog: any single run exceeding this
	// wall-clock age is reported via OnStall (observe-only — the run budget
	// is what actually stops it). 0 disables unless OnStall is set, in
	// which case parallel.DefaultStall applies.
	StallAfter time.Duration
	// OnStall receives watchdog reports; typically a stderr note. May be
	// nil.
	OnStall func(worker, item int, running time.Duration)
}

// watchdogArmed reports whether the hung-worker watchdog is configured.
func (r Resilience) watchdogArmed() bool { return r.StallAfter > 0 || r.OnStall != nil }

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
	// Index is the site index within the campaign.
	Index int `json:"index"`
	// Site is the injected fault site.
	Site fault.Site `json:"site"`
	// Reason is one of ReasonPanic, ReasonTimeout, ReasonError.
	Reason string `json:"reason"`
	// Detail is the failing error's message.
	Detail string `json:"detail"`
	// Stack is the panicking goroutine's stack, when Reason is panic.
	Stack string `json:"stack,omitempty"`
	// Attempts is how many times the run was tried (1 + retries).
	Attempts int `json:"attempts"`
	// Repro reproduces the run standalone, outside the campaign.
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

// pathInfo describes how a campaign run was served: the path plus that
// path's parameters (fork cycle, functionally skipped instructions,
// early-stop, the cycle it reconverged with the warmup at). It is what
// injectCtx reports and what runRecord journals.
type pathInfo struct {
	Path      runPath `json:"path,omitempty"`
	ForkCycle int64   `json:"fork_cycle,omitempty"`
	FFSkipped int64   `json:"ff_skipped,omitempty"`
	EarlyStop bool    `json:"early_stop,omitempty"`
	// Converged marks a run cut at ConvergedAt, the checkpoint cycle where
	// it reconverged with the golden warmup (see CampaignPlan.run).
	Converged   bool  `json:"converged,omitempty"`
	ConvergedAt int64 `json:"converged_at,omitempty"`
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

// CampaignJournal is the durable completed-run log of one campaign. Open it
// with OpenCampaignJournal, attach it via Config.Journal, and a crashed or
// interrupted campaign resumes by skipping (and replaying) the journaled
// runs.
type CampaignJournal struct {
	j    *journal.Journal[runRecord]
	done map[int]runRecord
}

// campaignJournalVersion is bumped when runRecord or the identity schema
// changes incompatibly. v2: keys fold through the canonical runcache
// identity encoder (adding the machine configuration) and headers record
// the human-readable parts.
const campaignJournalVersion = 2

// OpenCampaignJournal opens (creating or resuming) the campaign journal at
// path. The journal is keyed by everything that defines run identity —
// program, machine, mode, instruction budget, split-payload option,
// checkpoint/fast-forward plan and the exact site list — folded through
// the canonical identity encoder shared with the run cache
// (runcache.Identity), and refuses to resume a journal written for a
// different campaign, naming the changed parameter. Worker count is
// deliberately not part of the key: a campaign journaled under one
// -parallel value resumes under any other.
func OpenCampaignJournal(path string, cfg Config, program string, sites []fault.Site, opts InjectOptions) (*CampaignJournal, error) {
	id := runcache.NewIdentity().
		Add("kind", "campaign").
		Add("program", program).
		Addf("machine", "%+v", cfg.Machine).
		Addf("mode", "%v", cfg.Mode).
		Addf("n", "%d", cfg.MaxInstructions).
		Addf("split", "%v", opts.SplitPayload).
		Addf("ckpt", "%d", cfg.CheckpointInterval).
		Addf("ff", "%v", cfg.FastForward)
	if cfg.FastForward {
		// Sampled campaigns report window-relative figures, so a sampled
		// journal must not resume a full campaign across warmup leads.
		id.Addf("ffw", "%d", cfg.ffWarmup())
	}
	id.Addf("sites", "%d", len(sites))
	for _, s := range sites {
		id.Addf("site", "%+v", s)
	}
	j, done, err := journal.Open[runRecord](path, journal.Header{
		Kind: "campaign", Key: id.Hash64(), Version: campaignJournalVersion,
		Parts: id.Parts(),
	})
	if err != nil {
		return nil, err
	}
	return &CampaignJournal{j: j, done: done}, nil
}

// Done returns how many completed runs the journal already holds.
func (cj *CampaignJournal) Done() int { return len(cj.done) }

// SetSyncEvery overrides the fsync cadence: 1 makes every completed run
// durable before its Append returns (service posture — a SIGKILL at any
// instant loses nothing), <= 0 restores batched fsyncs.
func (cj *CampaignJournal) SetSyncEvery(n int) { cj.j.SetSyncEvery(n) }

// Sync flushes and fsyncs pending records (graceful-shutdown path).
func (cj *CampaignJournal) Sync() error { return cj.j.Sync() }

// Close flushes, fsyncs and closes the journal.
func (cj *CampaignJournal) Close() error { return cj.j.Close() }

// campaignTestHook, when non-nil, runs at the start of every campaign run
// attempt with the attempt's run context and the site index. It exists so
// tests can make a specific site panic or livelock (block until the budget
// expires) without teaching the simulator to misbehave on demand.
var campaignTestHook func(ctx context.Context, i int) error

// campaignRunner executes one campaign item with isolation, budget and
// retry applied, producing the journalable record.
type campaignRunner struct {
	cfg   Config
	prog  *isa.Program
	sites []fault.Site
	opts  InjectOptions

	// attempt runs sites[i:i+1] once under runCtx (nil means unbudgeted)
	// and reports which path served it.
	attempt func(w *campaignWorker, i int, runCtx context.Context) (InjectionResult, pathInfo, error)

	resumed atomic.Int64
	retried atomic.Int64

	mu       sync.Mutex
	failures []RunFailure
}

// repro builds the standalone reproduction command for site i.
func (c *campaignRunner) repro(i int) string {
	cmd := fmt.Sprintf("bjfault -bench %s -mode %v -n %d -site-index %d",
		c.prog.Name, c.cfg.Mode, c.cfg.MaxInstructions, i)
	// bjfault's -site-index indexes into the canonical list of one fault
	// kind (or the latent campaign under -sites latent); when this campaign
	// ran such a list, name it so the replay picks the same site.
	if IsLatentCampaign(c.cfg.Machine, c.sites) {
		cmd += " -sites latent"
	} else if kind, ok := canonicalKind(c.cfg.Machine, c.sites); ok && kind != fault.KindPermanent {
		cmd += fmt.Sprintf(" -fault-kind %v", kind)
	}
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
// (RunTimeout << attempt), installs the isolation recover barrier, and
// fires the test seam.
func (c *campaignRunner) attemptOnce(w *campaignWorker, i, attempt int) (res InjectionResult, pi pathInfo, err error) {
	var runCtx context.Context
	if c.cfg.Ctx != nil {
		runCtx = c.cfg.Ctx
	}
	if d := c.cfg.Resilience.RunTimeout; d > 0 {
		base := runCtx
		if base == nil {
			base = context.Background()
		}
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(base, d<<uint(attempt))
		defer cancel()
	}
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
	return c.attempt(w, i, runCtx)
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
		f := RunFailure{
			Index: i, Site: c.sites[i], Reason: reason, Detail: err.Error(),
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
				Site: c.sites[i], Mode: c.cfg.Mode,
				Outcome: OutcomeQuarantined, DetectionLatency: -1,
			},
			Retries: attempt,
			Failure: &f,
		}, nil
	}
}

// quarantined returns the accumulated failures sorted by site index (the
// append order is completion order, which is scheduling-dependent).
func (c *campaignRunner) quarantined() []RunFailure {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]RunFailure(nil), c.failures...)
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}
