package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"blackjack/internal/diffcheck"
	"blackjack/internal/fault"
	"blackjack/internal/pipeline"
	"blackjack/internal/sim"
)

// runJob executes one attempt of a job and settles its next state:
// done on success; queued (after exponential backoff) on deadline or
// transient failure with requeue budget left; quarantined when the failure
// is deterministic; failed otherwise; draining when the server is shutting
// down (resumable on restart).
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	prevDetail := j.Detail
	j.Attempt++
	j.Done = 0 // progress counters restart; journal replays re-count instantly
	s.transitionLocked(j, StateRunning, "")
	s.mu.Unlock()

	ctx := s.rootCtx
	deadline := time.Duration(j.Spec.Deadline)
	if deadline == 0 {
		deadline = s.opts.DefaultDeadline
	}
	cancel := context.CancelFunc(func() {})
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	result, err := s.execute(ctx, j)
	cancel()

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		if werr := atomicWrite(filepath.Join(jobDir(s.opts.StateDir, j.ID), "result.txt"), []byte(result)); werr != nil {
			s.transitionLocked(j, StateFailed, "result persist failed: "+werr.Error())
			s.metrics.Counter("serve.jobs.failed").Inc()
			return
		}
		s.transitionLocked(j, StateDone, "")
		s.metrics.Counter("serve.jobs.completed").Inc()
		s.metrics.Counter("serve.tenant." + j.Spec.Tenant + ".jobs_completed").Inc()

	case s.rootCtx.Err() != nil:
		// Server drain, not a job failure: checkpoint (the run journals
		// already hold every completed run) and leave the job resumable.
		s.transitionLocked(j, StateDraining, "server draining; job resumes on restart")

	case errors.Is(err, context.DeadlineExceeded) && j.Attempt <= j.Spec.Retries:
		backoff := s.opts.RequeueBase << uint(j.Attempt-1)
		s.transitionLocked(j, StateQueued, fmt.Sprintf("deadline exceeded on attempt %d; requeued with %s backoff", j.Attempt, backoff))
		s.metrics.Counter("serve.jobs.requeues").Inc()
		s.requeueLockedAfter(j, backoff)

	case errors.Is(err, context.DeadlineExceeded):
		s.transitionLocked(j, StateFailed, fmt.Sprintf("deadline exceeded; requeue budget exhausted after %d attempts", j.Attempt))
		s.metrics.Counter("serve.jobs.failed").Inc()

	case j.Attempt <= j.Spec.Retries:
		backoff := s.opts.RequeueBase << uint(j.Attempt-1)
		s.transitionLocked(j, StateQueued, fmt.Sprintf("attempt %d failed (%v); requeued with %s backoff", j.Attempt, err, backoff))
		s.metrics.Counter("serve.jobs.requeues").Inc()
		s.requeueLockedAfter(j, backoff)

	case j.Attempt > 1 && sameFailure(prevDetail, err):
		// The same error across attempts with fresh budgets each time:
		// retrying would burn capacity on a deterministic failure.
		s.transitionLocked(j, StateQuarantined, fmt.Sprintf("deterministic failure across %d attempts: %v", j.Attempt, err))
		s.metrics.Counter("serve.jobs.quarantined").Inc()

	default:
		s.transitionLocked(j, StateFailed, err.Error())
		s.metrics.Counter("serve.jobs.failed").Inc()
	}
}

// requeueLockedAfter is requeueAfter for callers already holding s.mu.
func (s *Server) requeueLockedAfter(j *Job, delay time.Duration) {
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		s.mu.Lock()
		delete(s.timers, t)
		if s.draining {
			s.mu.Unlock()
			return
		}
		s.sched.push(j)
		s.metrics.Gauge("serve.queue.depth").Set(float64(s.sched.depth))
		s.mu.Unlock()
		s.wakeup()
	})
	s.timers[t] = struct{}{}
}

// sameFailure reports whether a previous attempt's detail records the same
// error text (the quarantine heuristic for deterministic failures).
func sameFailure(prevDetail string, err error) bool {
	return prevDetail != "" && strings.Contains(prevDetail, err.Error())
}

// execute dispatches on job type and returns the rendered result — the
// exact bytes the equivalent batch CLI would print to stdout.
func (s *Server) execute(ctx context.Context, j *Job) (string, error) {
	switch j.Spec.Type {
	case JobCampaign:
		var out strings.Builder
		err := s.execCampaign(ctx, j, &out, j.Spec.Benchmark, j.Spec.Mode, "runs.journal", 0)
		return out.String(), err
	case JobSweep:
		return s.execSweep(ctx, j)
	case JobFuzz:
		return s.execFuzz(ctx, j)
	default:
		return "", fmt.Errorf("unknown job type %q", j.Spec.Type)
	}
}

// baseConfig translates the spec into the harness Config with the full
// Resilience envelope attached.
func (s *Server) baseConfig(ctx context.Context, spec *Spec, mode pipeline.Mode) sim.Config {
	cfg := sim.Default(mode, spec.Instructions)
	cfg.Ctx = ctx
	cfg.Parallel = spec.Parallel
	if cfg.Parallel <= 0 {
		cfg.Parallel = s.opts.RunParallel
	}
	cfg.Resilience = sim.Resilience{
		Isolate:    true, // a panicking run must never take the server down
		Retries:    spec.RunRetries,
		RunTimeout: time.Duration(spec.RunTimeout),
		StallAfter: s.opts.StallAfter,
	}
	if spec.Cache != "off" && s.cache != nil {
		cfg.Cache = s.cache
		if spec.Cache == "verify" {
			cfg.CacheVerify = spec.CacheVerify
		}
	}
	return cfg
}

// execCampaign runs one benchmark × mode campaign cell with a crash-safe
// journal and streams per-run progress. The rendered table is byte-for-byte
// what `bjfault` prints for the same work.
func (s *Server) execCampaign(ctx context.Context, j *Job, out *strings.Builder, bench, modeName, journalName string, totalBase int) error {
	mode, err := pipeline.ParseMode(modeName)
	if err != nil {
		return err
	}
	kind, err := fault.ParseKind(j.Spec.FaultKind)
	if err != nil {
		return err
	}
	cfg := s.baseConfig(ctx, j.Spec, mode)
	var sites []fault.Site
	if j.Spec.Sites == "latent" {
		sites = sim.LatentSites(cfg.Machine)
	} else if sites, err = sim.SitesForKind(cfg.Machine, kind); err != nil {
		return err
	}
	h := s.hub(j.ID)
	cfg.OnProgress = func(p sim.RunProgress) {
		h.publish(Event{Job: j.ID, Kind: "run", At: time.Now(),
			Index: totalBase + p.Index, Total: totalBase + p.Total,
			Site: p.Result.Site.String(), Outcome: p.Result.Outcome.String(),
			Served: p.Served, Reason: p.Reason})
		s.noteRun(j, totalBase+p.Total)
	}
	// The journal is opened resuming: a prior attempt's (or prior server
	// incarnation's) completed runs replay instead of re-simulating, and the
	// flock means a second server on the same state dir fails fast here
	// instead of interleaving appends. Every record fsyncs before its
	// progress event fires — SIGKILL at any instant loses nothing.
	cj, err := sim.OpenCampaignJournal(filepath.Join(jobDir(s.opts.StateDir, j.ID), journalName), cfg, bench, sites, sim.InjectOptions{SplitPayload: true})
	if err != nil {
		return err
	}
	defer cj.Close()
	cj.SetSyncEvery(1)
	cfg.Journal = cj
	sum, err := sim.Campaign(cfg, bench, sites, sim.InjectOptions{SplitPayload: true})
	if err != nil {
		return err
	}
	return sim.WriteCampaignTable(out, cfg.Mode, bench, sum)
}

// execSweep runs the benchmarks × modes grid as independent campaign cells,
// each with its own journal, concatenating the tables in grid order — the
// same bytes as running bjfault once per cell.
func (s *Server) execSweep(ctx context.Context, j *Job) (string, error) {
	var out strings.Builder
	base := 0
	for _, bench := range j.Spec.Benchmarks {
		for _, modeName := range j.Spec.Modes {
			jn := fmt.Sprintf("runs-%s-%s.journal", bench, modeName)
			if err := s.execCampaign(ctx, j, &out, bench, modeName, jn, base); err != nil {
				return "", err
			}
			base = s.jobTotal(j)
		}
	}
	return out.String(), nil
}

// execFuzz runs a differential-fuzzing session with a crash-safe journal,
// rendering the summary lines bjfuzz prints.
func (s *Server) execFuzz(ctx context.Context, j *Job) (string, error) {
	opts := diffcheck.FuzzOptions{
		Programs: j.Spec.Programs,
		Seed:     j.Spec.Seed,
		MaxInstr: j.Spec.Instructions,
		Workers:  j.Spec.Parallel,
		Ctx:      ctx,
	}
	if opts.Workers <= 0 {
		opts.Workers = s.opts.RunParallel
	}
	if j.Spec.Variant != "" {
		v, err := diffcheck.VariantByName(j.Spec.Variant)
		if err != nil {
			return "", err
		}
		opts.Variant = &v
	}
	h := s.hub(j.ID)
	opts.OnProgress = func(index int, resumed bool, divergences int) {
		served := "cold"
		if resumed {
			served = "journal"
		}
		outcome := "ok"
		if divergences > 0 {
			outcome = fmt.Sprintf("%d divergences", divergences)
		}
		h.publish(Event{Job: j.ID, Kind: "run", At: time.Now(),
			Index: index, Total: j.Spec.Programs, Outcome: outcome, Served: served})
		s.noteRun(j, j.Spec.Programs)
	}
	fj, err := diffcheck.OpenFuzzJournal(filepath.Join(jobDir(s.opts.StateDir, j.ID), "fuzz.journal"), opts)
	if err != nil {
		return "", err
	}
	defer fj.Close()
	fj.SetSyncEvery(1) // every completed program durable before its event fires
	opts.Journal = fj
	sum, err := diffcheck.Fuzz(opts)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	if err := diffcheck.WriteFuzzSummary(&out, sum); err != nil {
		return "", err
	}
	return out.String(), nil
}

// noteRun updates the job's progress counters and the per-tenant
// completed-run metric. Called from worker goroutines via OnProgress.
func (s *Server) noteRun(j *Job, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.Done++
	j.Total = total
	s.metrics.Counter("serve.runs.completed").Inc()
	s.metrics.Counter("serve.tenant." + j.Spec.Tenant + ".runs").Inc()
}

// jobTotal reads the job's current Total under the lock.
func (s *Server) jobTotal(j *Job) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.Total
}
