package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"blackjack/internal/obs"
	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

// profile is the profile group (-cpuprofile, -memprofile) once a tool
// registers it; Parse starts the profiles it names.
var profile *struct{ cpu, mem *string }

// ProfileFlags registers -cpuprofile and -memprofile.
func ProfileFlags() {
	profile = &struct{ cpu, mem *string }{
		cpu: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// startProfiles begins CPU profiling into cpuPath and arranges a heap
// profile to be written to memPath; either path may be empty to skip that
// profile. Both are flushed by Cleanup or Exit, whichever comes first, and
// errors writing them go to stderr.
func startProfiles(cpuPath, memPath string) error {
	var cpuFile *os.File
	if cpuPath != "" {
		var err error
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return fmt.Errorf("profiling: %w", err)
		}
	}
	onExit(func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				Logf("profiling: %v", err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			Logf("profiling: %v", err)
			return
		}
		defer f.Close()
		runtime.GC() // get up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			Logf("profiling: %v", err)
		}
	})
	return nil
}

// CacheDirFlag registers -cache-dir alone, for a tool with no cache hits
// to verify (it opens the store with OpenStore) or one that opens its own
// stores from it.
func CacheDirFlag() *string {
	return flag.String("cache-dir", runcache.DefaultDir(),
		"content-addressable run store directory: completed runs are served from it, so an interrupted command rerun on it resumes (default: $"+runcache.EnvDir+"; empty disables it)")
}

// OpenStore opens the run store at dir, or returns nil when dir is empty:
// no store, so nothing is cached and an interrupted run cannot resume. It
// is where Fatal's interrupted message learns where completed runs are
// kept. An open error is fatal.
func OpenStore(dir string) *runcache.Store {
	if dir == "" {
		return nil
	}
	s, err := runcache.Open(dir, 0)
	if err != nil {
		Fatal(err)
	}
	resumeHint = fmt.Sprintf("completed runs are stored in %s; rerun the same command on it to resume", dir)
	return s
}

// Cache is the run cache group: -cache-dir and -cache-verify, and the store
// they open.
type Cache struct {
	dir    *string
	verify *float64
	store  *runcache.Store
}

// CacheFlags registers -cache-dir and -cache-verify.
func CacheFlags() *Cache {
	return &Cache{
		dir: CacheDirFlag(),
		verify: flag.Float64("cache-verify", 0,
			"re-execute this fraction of cache hits and diff against the stored outcome; any divergence exits 4 (0 trusts hits, 1 recomputes all)"),
	}
}

// Open opens the store -cache-dir names (OpenStore) and returns it with
// the -cache-verify fraction, ready for a config's Cache and CacheVerify
// fields. With no directory it returns a nil store: caching is off.
func (c *Cache) Open() (*runcache.Store, float64) {
	if c.store = OpenStore(*c.dir); c.store == nil {
		return nil, 0
	}
	return c.store, *c.verify
}

// Report prints the store's traffic and failed writes to stderr, so stdout
// stays byte-identical to an uncached run, and exits ExitDiverged when
// verification found a stored outcome diverging from live re-execution.
func (c *Cache) Report() {
	if c.store == nil {
		return
	}
	st := c.store.Stats()
	if st.Hits+st.Misses > 0 {
		Logf("cache: %d hits, %d misses, %d evictions, %d bytes", st.Hits, st.Misses, st.Evictions, st.Bytes)
	}
	if st.PutErrors > 0 {
		Logf("cache: %d store writes failed; a rerun simulates those runs again", st.PutErrors)
	}
	if st.VerifyDivergences > 0 {
		Exitf(ExitDiverged, "cache verification: %d of %d recomputed hits diverged", st.VerifyDivergences, st.VerifyRuns)
	}
}

// RunTimeoutFlag registers -run-timeout alone, for a tool that runs one
// simulation and so has nothing to isolate or retry.
func RunTimeoutFlag() *time.Duration {
	return flag.Duration("run-timeout", 0,
		"per-run wall-clock budget (0 = unbudgeted); an exceeded run fails, or is quarantined when -isolate is set")
}

// Resilience is the campaign resilience group: -isolate, -retries and
// -run-timeout.
type Resilience struct {
	isolate *bool
	retries *int
	timeout *time.Duration
}

// ResilienceFlags registers -isolate, -retries and -run-timeout.
func ResilienceFlags() *Resilience {
	return &Resilience{
		isolate: flag.Bool("isolate", false, "quarantine panicking or over-budget runs (with repro commands) instead of aborting"),
		retries: flag.Int("retries", 0, "re-run a failing injection up to this many times with doubling budgets before quarantining it"),
		timeout: RunTimeoutFlag(),
	}
}

// Settings returns the sim.Resilience the flags select.
func (r *Resilience) Settings() sim.Resilience {
	return sim.Resilience{Isolate: *r.isolate, Retries: *r.retries, RunTimeout: *r.timeout}
}

// Execution is the campaign execution group: -parallel,
// -checkpoint-interval, -ff and -ff-warmup.
type Execution struct {
	parallel *int
	ckpt     *int64
	ff       *bool
	ffWarmup *int
}

// ExecutionFlags registers -parallel, -checkpoint-interval, -ff and
// -ff-warmup.
func ExecutionFlags() *Execution {
	return &Execution{
		parallel: flag.Int("parallel", 0, "worker count for campaign, suite and sweep fan-out (0 = NumCPU; output is identical at any value)"),
		ckpt:     flag.Int64("checkpoint-interval", 0, "campaign checkpoints on a grid of gcd(interval, 500) cycles: injections fork from the latest point before their fault fires, and a spent one-shot run may end at any kept point (the three after its shot, and multiples of the interval) (0 = every run cold; output is identical at any value)"),
		ff:       flag.Bool("ff", false, "sampled fault campaigns: fast-forward each injection's fault-free prefix on the functional model and simulate only its activation window (outcome tables match full simulation; cycle figures of fast-forwarded runs are window-relative)"),
		ffWarmup: flag.Int("ff-warmup", 0, "fast-forward warmup lead in committed instructions before the activation window (0 = default)"),
	}
}

// Fill sets cfg's Parallel, CheckpointInterval, FastForward and FFWarmup
// from the flags.
func (e *Execution) Fill(cfg *sim.Config) {
	cfg.Parallel, cfg.CheckpointInterval = *e.parallel, *e.ckpt
	cfg.FastForward, cfg.FFWarmup = *e.ff, *e.ffWarmup
}

// Outputs is the output group: -metrics-out, and -trace-out for tools that
// trace a run.
type Outputs struct {
	Metrics string
	Trace   string
}

// OutputFlags registers -metrics-out and -trace-out.
func OutputFlags() *Outputs {
	o := MetricsOutputFlag()
	flag.StringVar(&o.Trace, "trace-out", "", "write a Chrome trace-event JSON of a single run to this file (open in chrome://tracing or Perfetto)")
	return o
}

// MetricsOutputFlag registers -metrics-out alone.
func MetricsOutputFlag() *Outputs {
	o := &Outputs{}
	flag.StringVar(&o.Metrics, "metrics-out", "", "write the metrics registry as JSON to this file")
	return o
}

// WriteMetrics writes reg to the -metrics-out file, first folding in the
// runcache.* counters when cache has a store open (cache may be nil). An
// I/O error is fatal.
func (o *Outputs) WriteMetrics(reg *obs.Registry, cache *Cache) {
	if cache != nil && cache.store != nil {
		cache.store.Export(reg)
	}
	if err := obs.WriteMetricsFile(o.Metrics, reg); err != nil {
		Fatal(err)
	}
}
