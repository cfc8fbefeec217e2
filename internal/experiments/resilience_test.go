package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blackjack/internal/runcache"
	"blackjack/internal/sim"
)

func TestSuiteIsolationNoFailuresMatchesPlainRun(t *testing.T) {
	plain, err := RunSuite(smallOpts("gzip", "equake"))
	if err != nil {
		t.Fatal(err)
	}
	opts := smallOpts("gzip", "equake")
	opts.Resilience = sim.Resilience{Isolate: true}
	isolated, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(isolated.Failures) != 0 {
		t.Fatalf("healthy suite quarantined cells: %+v", isolated.Failures)
	}
	if got, want := isolated.Figure7Table().String(), plain.Figure7Table().String(); got != want {
		t.Fatalf("isolation changed a healthy suite's figures:\n got: %s\nwant: %s", got, want)
	}
}

func TestSuiteQuarantinesOverBudgetCells(t *testing.T) {
	opts := smallOpts("gzip", "equake")
	// A 1ns budget interrupts every run at its first context poll; the
	// budget must be long enough that every cell reaches one (the machine
	// polls every 4096 cycles). With Isolate set the suite must finish
	// with all cells quarantined instead of erroring out.
	opts.MaxInstructions = 30000
	opts.Resilience = sim.Resilience{Isolate: true, RunTimeout: time.Nanosecond}
	s, err := RunSuite(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Failures) != 2*4 {
		t.Fatalf("quarantined %d cells, want all 8: %+v", len(s.Failures), s.Failures)
	}
	for _, f := range s.Failures {
		if f.Repro == "" || !strings.Contains(f.Repro, f.Benchmark) {
			t.Fatalf("failure lacks usable repro: %+v", f)
		}
	}
	if bs := s.complete(); len(bs) != 0 {
		t.Fatalf("incomplete benchmarks still aggregated: %v", bs)
	}
	if rows := s.FailuresTable().String(); !strings.Contains(rows, "gzip") || !strings.Contains(rows, "equake") {
		t.Fatalf("failures table incomplete:\n%s", rows)
	}
}

func TestSuiteCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := smallOpts("gzip")
	opts.Ctx = ctx
	// Even with isolation on, a campaign-level cancellation is an abort,
	// not a quarantine-everything run.
	opts.Resilience = sim.Resilience{Isolate: true}
	if _, err := RunSuite(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled suite returned %v, want context.Canceled", err)
	}
}

// Every experiment entry point derives its runs from the one base config,
// so a cancelled base context stops all of them before any run completes:
// none returns rows, and none stores anything in the run cache.
func TestEntryPointsStopOnCancelledCtx(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	entries := map[string]func(Options) error{
		"RunSuite":  func(o Options) error { _, err := RunSuite(o); return err },
		"Calibrate": func(o Options) error { _, err := Calibrate(o); return err },
		"ExtA":      func(o Options) error { _, err := ExtAFaultInjection(o, "gcc"); return err },
		"ExtC":      func(o Options) error { _, err := ExtCPayloadRAM(o, []string{"gzip"}); return err },
		"ExtD":      func(o Options) error { _, err := ExtDSweep(o, "gcc", []int{128}, []int{256}); return err },
		"ExtE":      func(o Options) error { _, err := ExtEMergingShuffle(o, []string{"gzip"}); return err },
		"ExtF":      func(o Options) error { _, err := ExtFMultiFault(o, "gcc", 2); return err },
		"ExtG":      func(o Options) error { _, err := ExtGSoftErrors(o, "gcc"); return err },
		"ExtH":      func(o Options) error { _, err := ExtHSeedRobustness(o, []uint64{0}); return err },
		"ExtI":      func(o Options) error { _, err := ExtISoftIntermittent(o, "gcc"); return err },
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			store, err := runcache.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			opts := smallOpts("gzip")
			// Long enough for a started run to reach the machine's first
			// context poll.
			opts.MaxInstructions = 20_000
			opts.CheckpointInterval = 500
			opts.Ctx = ctx
			opts.Cache = store
			if err := run(opts); !errors.Is(err, context.Canceled) {
				t.Errorf("returned %v, want context.Canceled", err)
			}
			if st := store.Stats(); st.Puts != 0 {
				t.Errorf("stored %d runs under a cancelled context", st.Puts)
			}
		})
	}
}

func TestExtAJournalResumeIdenticalRows(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 2000
	opts.Parallel = 4
	fresh, err := ExtAFaultInjection(opts, "gzip")
	if err != nil {
		t.Fatal(err)
	}

	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = store
	stored, err := ExtAFaultInjection(opts, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, stored) {
		t.Fatalf("stored rows diverged:\n got: %+v\nwant: %+v", stored, fresh)
	}
	// Second run over the same store serves every campaign's runs from it;
	// the rendered table must be byte-identical.
	opts.Parallel = 2
	resumed, err := ExtAFaultInjection(opts, "gzip")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ExtATable(resumed, "gzip").String(), ExtATable(fresh, "gzip").String(); got != want {
		t.Fatalf("resumed table diverged:\n got: %s\nwant: %s", got, want)
	}
}

// Ext-F stores its windows like every campaign experiment: a stored run
// and a rerun served from its store give the fresh rows.
func TestExtFJournalResumeIdenticalRows(t *testing.T) {
	opts := smallOpts()
	opts.MaxInstructions = 2000
	opts.Parallel = 4
	fresh, err := ExtFMultiFault(opts, "gcc", 3)
	if err != nil {
		t.Fatal(err)
	}
	store, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Cache = store
	stored, err := ExtFMultiFault(opts, "gcc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, stored) {
		t.Fatalf("stored rows diverged:\n got: %+v\nwant: %+v", stored, fresh)
	}
	opts.Parallel = 2
	var runs, replayed atomic.Int64
	opts.OnProgress = func(p sim.RunProgress) {
		runs.Add(1)
		if p.Served == "cache" {
			replayed.Add(1)
		}
	}
	resumed, err := ExtFMultiFault(opts, "gcc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, resumed) {
		t.Fatalf("resumed rows diverged:\n got: %+v\nwant: %+v", resumed, fresh)
	}
	if runs.Load() == 0 || replayed.Load() != runs.Load() {
		t.Fatalf("rerun served %d of %d windows from the store, want all", replayed.Load(), runs.Load())
	}
}
