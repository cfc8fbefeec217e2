package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"blackjack/internal/obs"
	"blackjack/internal/runcache"
)

// Options configures a Server. The zero value is usable for tests: jobs run
// in a temp-style state dir the caller supplies, with two executor slots
// and a 64-job queue.
type Options struct {
	// StateDir is the durable root: specs, state journals, private run
	// stores and rendered results all live under it, and one server at a
	// time holds it (ErrLocked). Required.
	StateDir string
	// Workers is the number of executor slots — jobs running
	// concurrently. Each job's internal fan-out is its own Parallel
	// setting. <= 0 selects 2.
	Workers int
	// QueueCap bounds the admission queue (queued jobs across tenants).
	// Submissions beyond it are rejected with ErrOverCapacity (HTTP 429).
	// <= 0 selects 64.
	QueueCap int
	// RunParallel is the default per-job worker fan-out when the spec
	// leaves parallel at 0 (<= 0 keeps the harness NumCPU default).
	RunParallel int
	// CacheDir attaches the shared content-addressable run store ("": none,
	// so every job runs on a private store under its job directory).
	CacheDir string
	// DefaultDeadline bounds each job attempt when the spec has no
	// deadline (0 = unbounded attempts).
	DefaultDeadline time.Duration
	// RequeueBase is the exponential-backoff base for requeues after a
	// deadline or transient failure: base << attempt. <= 0 selects 1s.
	RequeueBase time.Duration
}

// ErrOverCapacity is returned by Submit when the admission queue is full.
// The HTTP layer translates it into 429 with a Retry-After hint.
var ErrOverCapacity = errors.New("serve: queue at capacity")

// ErrDraining is returned by Submit once shutdown has begun (HTTP 503).
var ErrDraining = errors.New("serve: server is draining")

// ErrLocked is returned by New when another live server holds the state
// directory: two servers would run the same jobs at once and interleave
// their state journals, so the second fails fast instead. The lock is
// advisory and dies with the holder's file descriptor, so a SIGKILLed
// server never leaves a stale lock behind.
var ErrLocked = errors.New("serve: state directory is locked by another server")

// Server is the campaign service: admission control, weighted-fair
// scheduling, a bounded executor, durable job state, and event fan-out.
// Create with New, start the executor with Start, stop with Drain.
type Server struct {
	opts  Options
	cache *runcache.Store
	// lock holds the state directory's flock from New until Drain finds
	// every executor slot stopped.
	lock *os.File

	mu       sync.Mutex
	jobs     map[string]*Job
	hubs     map[string]*hub
	sched    *scheduler
	seq      int
	draining bool
	metrics  *obs.Registry // obs.Registry is not goroutine-safe; mu guards it

	rootCtx context.Context
	cancel  context.CancelFunc
	wake    chan struct{}
	wg      sync.WaitGroup
	timers  map[*time.Timer]struct{} // pending requeue backoffs
}

// New locks and loads the state directory and recovers every persisted
// job: terminal jobs become queryable history, incomplete ones (queued,
// running, or draining at crash time) are requeued — every run they
// finished is in their run store, so the replay is free. A state
// directory another server holds is refused with ErrLocked. No goroutines
// start until Start.
func New(opts Options) (s *Server, err error) {
	if opts.StateDir == "" {
		return nil, errors.New("serve: Options.StateDir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 64
	}
	if opts.RequeueBase <= 0 {
		opts.RequeueBase = time.Second
	}
	if err := os.MkdirAll(filepath.Join(opts.StateDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(opts.StateDir, "lock"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(lock); err != nil {
		lock.Close()
		return nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	s = &Server{
		opts:    opts,
		lock:    lock,
		jobs:    map[string]*Job{},
		hubs:    map[string]*hub{},
		sched:   newScheduler(),
		metrics: obs.NewRegistry(),
		wake:    make(chan struct{}, 1),
		timers:  map[*time.Timer]struct{}{},
	}
	s.rootCtx, s.cancel = context.WithCancel(context.Background())
	if opts.CacheDir != "" {
		c, err := runcache.Open(opts.CacheDir, 0)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	jobs, err := loadJobs(opts.StateDir)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if n := parseSeq(j.ID); n > s.seq {
			s.seq = n
		}
		s.jobs[j.ID] = j
		s.hubs[j.ID] = newHub()
		if j.State.terminal() {
			// A crash may have come between the terminal transition and
			// the store's removal.
			s.removePrivateStore(j)
			s.hubs[j.ID].close()
			continue
		}
		// queued, running, or draining at crash/drain time: requeue. The
		// run store serves completed work, so nothing is lost.
		if j.State != StateQueued {
			s.transitionLocked(j, StateQueued, "resumed after restart")
		}
		s.sched.push(j)
	}
	s.metrics.Gauge("serve.queue.depth").Set(float64(s.sched.depth))
	return s, nil
}

// parseSeq extracts the numeric sequence from a job ID ("j000042" → 42).
func parseSeq(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		return 0
	}
	return n
}

// Start launches the executor slots. Call once.
func (s *Server) Start() {
	for w := 0; w < s.opts.Workers; w++ {
		s.wg.Add(1)
		go s.executorLoop()
	}
}

// Submit admits one parsed spec: capacity check, durable persist, enqueue.
// It returns a copy of the new job and, on ErrOverCapacity, a Retry-After
// estimate.
func (s *Server) Submit(spec *Spec) (*Job, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, 0, ErrDraining
	}
	if s.sched.depth >= s.opts.QueueCap {
		s.metrics.Counter("serve.jobs.rejected").Inc()
		return nil, s.retryAfterLocked(), ErrOverCapacity
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j%06d", s.seq),
		Spec:      spec,
		State:     StateQueued,
		Submitted: time.Now(),
		Updated:   time.Now(),
	}
	dir := jobDir(s.opts.StateDir, j.ID)
	if err := persistSpec(dir, spec); err != nil {
		return nil, 0, err
	}
	s.jobs[j.ID] = j
	s.hubs[j.ID] = newHub()
	s.transitionLocked(j, StateQueued, "")
	s.sched.push(j)
	s.metrics.Counter("serve.jobs.admitted").Inc()
	s.metrics.Counter("serve.tenant." + spec.Tenant + ".jobs").Inc()
	s.metrics.Gauge("serve.queue.depth").Set(float64(s.sched.depth))
	s.wakeup()
	// A copy: the executor mutates the live job as soon as the lock drops.
	view := *j
	return &view, 0, nil
}

// retryAfterLocked estimates when capacity frees up: the queue ahead of the
// caller divided across executor slots, floored at one second.
func (s *Server) retryAfterLocked() time.Duration {
	est := time.Duration(s.sched.depth/s.opts.Workers+1) * time.Second
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// Job returns a copy of one job's current view (ok=false when unknown).
func (s *Server) Job(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs lists every known job, sorted by ID (admission order).
func (s *Server) Jobs() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, id := range sortedJobIDs(s.jobs) {
		out = append(out, *s.jobs[id])
	}
	return out
}

// Metrics copies the serve.* registry (plus run-cache counters when a cache
// is attached) into a fresh registry the caller may read without locking.
func (s *Server) Metrics() *obs.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := obs.NewRegistry()
	out.Merge(s.metrics)
	if s.cache != nil {
		s.cache.Export(out)
	}
	return out
}

// hub returns a job's event hub (nil when the job is unknown).
func (s *Server) hub(id string) *hub {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hubs[id]
}

// transitionLocked durably appends a state change and publishes it as an
// event. The caller holds s.mu.
func (s *Server) transitionLocked(j *Job, st State, detail string) {
	now := time.Now()
	j.State, j.Detail, j.Updated = st, detail, now
	if j.Submitted.IsZero() {
		j.Submitted = now
	}
	t := Transition{State: st, At: now, Attempt: j.Attempt, Detail: detail}
	if err := appendTransition(jobDir(s.opts.StateDir, j.ID), t); err != nil {
		// The in-memory view stays authoritative for this process; the
		// event stream carries the persistence failure.
		s.hubs[j.ID].publish(Event{Job: j.ID, Kind: "log", At: now,
			Detail: "state persist failed: " + err.Error()})
	}
	s.hubs[j.ID].publish(Event{Job: j.ID, Kind: "state", At: now, State: st, Detail: detail})
	if st.terminal() {
		s.removePrivateStore(j)
		s.hubs[j.ID].close()
	}
}

// removePrivateStore deletes a terminal job's private run store: no attempt
// will resume from it. (A drained or requeued job is not terminal, and a
// job on the shared store has none.) A failure is published as a log
// event; the job's state stands.
func (s *Server) removePrivateStore(j *Job) {
	if err := os.RemoveAll(privateStoreDir(s.opts.StateDir, j.ID)); err != nil {
		s.hubs[j.ID].publish(Event{Job: j.ID, Kind: "log", At: time.Now(),
			Detail: "private run store removal failed: " + err.Error()})
	}
}

func (s *Server) wakeup() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// executorLoop is one executor slot: pop the fairest queued job, run it,
// repeat. It exits when the root context cancels (drain).
func (s *Server) executorLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		if !s.draining {
			j = s.sched.pop()
		}
		if j != nil {
			s.metrics.Gauge("serve.queue.depth").Set(float64(s.sched.depth))
		}
		s.mu.Unlock()
		if j == nil {
			select {
			case <-s.rootCtx.Done():
				return
			case <-s.wake:
				continue
			}
		}
		s.runJob(j)
	}
}

// Drain performs the bounded graceful shutdown: stop admitting, cancel
// running jobs (their campaigns stop at the next run boundary; every
// finished run is already stored), wait for executor slots up to ctx's
// deadline, and report how many jobs remain incomplete (resumable on
// restart). Once every slot has stopped it releases the state directory's
// lock; past the deadline the lock stays with the process.
func (s *Server) Drain(ctx context.Context) int {
	s.mu.Lock()
	s.draining = true
	s.metrics.Counter("serve.drains").Inc()
	for t := range s.timers {
		t.Stop()
		delete(s.timers, t)
	}
	s.mu.Unlock()
	s.cancel()
	// Every slot re-checks rootCtx once its current job returns; wake any
	// idle ones.
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			s.lock.Close()
			return s.incomplete()
		case <-ctx.Done():
			return s.incomplete()
		case <-time.After(10 * time.Millisecond):
			s.wakeup()
		}
	}
}

// incomplete counts jobs that will resume on restart.
func (s *Server) incomplete() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.State.terminal() {
			n++
		}
	}
	return n
}

func sortedJobIDs(m map[string]*Job) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	// IDs are zero-padded, so lexicographic order is admission order.
	for i := 1; i < len(ids); i++ {
		for k := i; k > 0 && ids[k] < ids[k-1]; k-- {
			ids[k], ids[k-1] = ids[k-1], ids[k]
		}
	}
	return ids
}
