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
	"blackjack/internal/runcache"
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
	j.Done = 0 // progress counters restart; stored runs re-count instantly
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
		// Server drain, not a job failure: the job's run store already
		// holds every completed run, so the job stays resumable.
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
	store, err := s.jobStore(j)
	if err != nil {
		return "", err
	}
	switch j.Spec.Type {
	case JobCampaign:
		var out strings.Builder
		err := s.execCampaign(ctx, j, store, &out, j.Spec.Benchmark, j.Spec.Mode, 0)
		return out.String(), err
	case JobSweep:
		return s.execSweep(ctx, j, store)
	case JobFuzz:
		return s.execFuzz(ctx, j, store)
	default:
		return "", fmt.Errorf("unknown job type %q", j.Spec.Type)
	}
}

// jobStore returns the run store a job's runs are kept in, which is also
// how the job resumes after a drain, a requeue or a crash: the server's
// shared store, or a private one under the job's directory when the spec
// turns the cache off or the server has none. Every run is durable there
// before its progress event fires, so SIGKILL at any instant loses no
// reported run.
func (s *Server) jobStore(j *Job) (*runcache.Store, error) {
	if j.Spec.Cache != "off" && s.cache != nil {
		return s.cache, nil
	}
	return runcache.Open(filepath.Join(jobDir(s.opts.StateDir, j.ID), "runs"), 0)
}

// baseConfig translates the spec into the harness Config with the full
// Resilience envelope attached and store as its run store.
func (s *Server) baseConfig(ctx context.Context, spec *Spec, mode pipeline.Mode, store *runcache.Store) sim.Config {
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
	}
	cfg.Cache = store
	if spec.Cache == "verify" {
		cfg.CacheVerify = spec.CacheVerify
	}
	return cfg
}

// execCampaign runs one benchmark × mode campaign cell on the job's run
// store and streams per-run progress. The rendered table is byte-for-byte
// what `bjfault` prints for the same work.
func (s *Server) execCampaign(ctx context.Context, j *Job, store *runcache.Store, out *strings.Builder, bench, modeName string, totalBase int) error {
	mode, err := pipeline.ParseMode(modeName)
	if err != nil {
		return err
	}
	kind, err := fault.ParseKind(j.Spec.FaultKind)
	if err != nil {
		return err
	}
	cfg := s.baseConfig(ctx, j.Spec, mode, store)
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
	sum, err := sim.Campaign(cfg, bench, sites, sim.InjectOptions{SplitPayload: true})
	if err != nil {
		return err
	}
	return sim.WriteCampaignTable(out, cfg.Mode, bench, sum)
}

// execSweep runs the benchmarks × modes grid as independent campaigns on
// the job's run store, concatenating the tables in grid order — the same
// bytes as running bjfault once per grid point.
func (s *Server) execSweep(ctx context.Context, j *Job, store *runcache.Store) (string, error) {
	var out strings.Builder
	base := 0
	for _, bench := range j.Spec.Benchmarks {
		for _, modeName := range j.Spec.Modes {
			if err := s.execCampaign(ctx, j, store, &out, bench, modeName, base); err != nil {
				return "", err
			}
			base = s.jobTotal(j)
		}
	}
	return out.String(), nil
}

// execFuzz runs a differential-fuzzing session on the job's run store,
// rendering the summary lines bjfuzz prints.
func (s *Server) execFuzz(ctx context.Context, j *Job, store *runcache.Store) (string, error) {
	opts := diffcheck.FuzzOptions{
		Programs: j.Spec.Programs,
		Seed:     j.Spec.Seed,
		MaxInstr: j.Spec.Instructions,
		Workers:  j.Spec.Parallel,
		Ctx:      ctx,
		Cache:    store,
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
	opts.OnProgress = func(index int, cached bool, divergences int) {
		served := "cold"
		if cached {
			served = "cache"
		}
		outcome := "ok"
		if divergences > 0 {
			outcome = fmt.Sprintf("%d divergences", divergences)
		}
		h.publish(Event{Job: j.ID, Kind: "run", At: time.Now(),
			Index: index, Total: j.Spec.Programs, Outcome: outcome, Served: served})
		s.noteRun(j, j.Spec.Programs)
	}
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
