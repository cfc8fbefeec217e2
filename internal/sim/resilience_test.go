package sim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// resilienceSites is a small campaign with a mix of firing and latent
// faults, cheap enough to run many times per test.
func resilienceSites() []fault.Site {
	return []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 9},
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs1},
		{Class: fault.FrontendWay, Way: 2, Field: fault.FieldRs2},
		{Class: fault.PayloadRAM, Slot: 3, Field: fault.FieldImm, BitMask: 2},
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 4},
		{Class: fault.RegisterFile, Reg: 200, BitMask: 1 << 5},
	}
}

// summaryString serializes a campaign summary down to every per-site field so
// two campaigns can be compared byte-for-byte.
func summaryString(sum *CampaignSummary) string {
	var b strings.Builder
	for _, r := range sum.Results {
		fmt.Fprintf(&b, "%v|%v|%d|%d|%v\n",
			r.Site, r.Outcome, r.Activations, r.DetectionLatency, r.FirstEvent)
	}
	fmt.Fprintf(&b, "active=%d counts=%v\n", sum.ActiveRuns, sum.Counts)
	return b.String()
}

func metricsText(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// withTestHook installs the campaign test seam for the duration of the test.
// Campaigns in this package's tests run sequentially, so the global is safe.
func withTestHook(t *testing.T, hook func(ctx context.Context, i int) error) {
	t.Helper()
	campaignTestHook = hook
	t.Cleanup(func() { campaignTestHook = nil })
}

// AC3: a campaign with one artificially panicking and one livelocked site
// completes, quarantines exactly those two runs with repro commands, and
// its table/metrics for the remaining sites are byte-identical to a clean
// campaign over those sites. The campaign runs the canonical permanent
// list, whose indexes bjfault -site-index replays.
func TestCampaignQuarantinesPanicAndLivelock(t *testing.T) {
	sites := StandardSites(pipeline.DefaultConfig())
	const panicIdx, hangIdx = 2, 5

	for _, ckpt := range []int64{0, 500} {
		t.Run(fmt.Sprintf("ckpt=%d", ckpt), func(t *testing.T) {
			// Reference: a clean campaign over the sites that stay healthy.
			var clean []fault.Site
			for i, s := range sites {
				if i != panicIdx && i != hangIdx {
					clean = append(clean, s)
				}
			}
			cleanCfg := Default(pipeline.ModeBlackJack, 2000)
			cleanCfg.CheckpointInterval = ckpt
			cleanCfg.Metrics = obs.NewRegistry()
			cleanSum, err := Campaign(cleanCfg, "crafty", clean, InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}

			withTestHook(t, func(ctx context.Context, i int) error {
				switch i {
				case panicIdx:
					panic("poisoned site")
				case hangIdx:
					<-ctx.Done() // livelock until the run budget fires
					return &InterruptedError{Benchmark: "crafty", Mode: pipeline.ModeBlackJack, Cause: ctx.Err()}
				}
				return nil
			})
			cfg := Default(pipeline.ModeBlackJack, 2000)
			cfg.CheckpointInterval = ckpt
			cfg.Parallel = 4
			cfg.Metrics = obs.NewRegistry()
			cfg.Resilience = Resilience{Isolate: true, RunTimeout: 30 * time.Millisecond, Retries: 1}
			sum, err := Campaign(cfg, "crafty", sites, InjectOptions{})
			if err != nil {
				t.Fatalf("resilient campaign aborted: %v", err)
			}

			if len(sum.Results) != len(sites) {
				t.Fatalf("got %d results for %d sites", len(sum.Results), len(sites))
			}
			if len(sum.Quarantined) != 2 {
				t.Fatalf("quarantined %d runs, want 2: %+v", len(sum.Quarantined), sum.Quarantined)
			}
			wantReasons := map[int]string{panicIdx: ReasonPanic, hangIdx: ReasonTimeout}
			for _, f := range sum.Quarantined {
				want, ok := wantReasons[f.Index]
				if !ok {
					t.Errorf("unexpected quarantined index %d", f.Index)
					continue
				}
				if f.Reason != want {
					t.Errorf("site %d reason = %q, want %q", f.Index, f.Reason, want)
				}
				if !strings.Contains(f.Repro, "bjfault") || !strings.Contains(f.Repro, fmt.Sprintf("-site-index %d", f.Index)) {
					t.Errorf("site %d repro %q lacks a usable command", f.Index, f.Repro)
				}
				if f.Reason == ReasonPanic && f.Stack == "" {
					t.Errorf("panic failure carries no stack")
				}
				if sum.Results[f.Index].Outcome != OutcomeQuarantined {
					t.Errorf("site %d result outcome = %v, want quarantined", f.Index, sum.Results[f.Index].Outcome)
				}
			}
			// The livelocked site burned its retry budget; the panicking one
			// was retried too (all failures are). Both count as retried.
			if sum.Retried == 0 {
				t.Errorf("Retried = 0, want > 0 (quarantined runs were retried)")
			}

			// Healthy rows must match the clean campaign exactly.
			j := 0
			for i, r := range sum.Results {
				if i == panicIdx || i == hangIdx {
					continue
				}
				want := cleanSum.Results[j]
				j++
				got := r
				if fmt.Sprintf("%v|%v|%d|%d|%v", got.Site, got.Outcome, got.Activations, got.DetectionLatency, got.FirstEvent) !=
					fmt.Sprintf("%v|%v|%d|%d|%v", want.Site, want.Outcome, want.Activations, want.DetectionLatency, want.FirstEvent) {
					t.Errorf("site %d diverged from clean campaign:\n got %+v\nwant %+v", i, got, want)
				}
			}

			// Metrics for the healthy sites must be byte-identical to the
			// clean campaign; the only extra keys are campaign.quarantined*.
			var kept []string
			for _, line := range strings.Split(metricsText(t, cfg.Metrics), "\n") {
				if strings.HasPrefix(line, "counter campaign.quarantined") {
					continue
				}
				kept = append(kept, line)
			}
			if got, want := strings.Join(kept, "\n"), metricsText(t, cleanCfg.Metrics); got != want {
				t.Errorf("healthy-site metrics diverged:\n--- resilient (filtered) ---\n%s\n--- clean ---\n%s", got, want)
			}
		})
	}
}

// A quarantined window reports its first site. A multi-site window prints
// no bjfault -site-index repro, which would replay one site alone; a
// one-site window's repro names its site's index in the list, not the
// window's, and only on a list bjfault can name: on any other list that
// index replays a different site.
func TestCampaignWindowQuarantineReportsFirstSite(t *testing.T) {
	windows := []Window{{3, 4}, {1, 4}, {4, 7}}
	withTestHook(t, func(_ context.Context, i int) error {
		if i < 2 {
			panic("poisoned window")
		}
		return nil
	})
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Resilience = Resilience{Isolate: true}
	for _, tc := range []struct {
		name  string
		sites []fault.Site
		repro string // the one-site window's, "" for none
	}{
		{"standard", StandardSites(cfg.Machine), "-site-index 3"},
		{"non-canonical", resilienceSites(), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sites := tc.sites
			sum, err := CampaignWindows(cfg, prog.MustBenchmark("crafty"), sites, windows, InjectOptions{})
			if err != nil {
				t.Fatalf("resilient campaign aborted: %v", err)
			}
			if len(sum.Quarantined) != 2 {
				t.Fatalf("quarantined %d windows, want 2: %+v", len(sum.Quarantined), sum.Quarantined)
			}
			for i, f := range sum.Quarantined {
				first := sites[windows[i].Lo]
				if f.Index != i || f.Site != first || sum.Results[i].Site != first || sum.Results[i].Outcome != OutcomeQuarantined {
					t.Errorf("window %d: failure %+v, result %+v; want index %d, site %v, quarantined", i, f, sum.Results[i], i, first)
				}
			}
			if r := sum.Quarantined[0].Repro; (tc.repro == "") != (r == "") || !strings.Contains(r, tc.repro) {
				t.Errorf("one-site window [3,4) repro %q, want %q", r, tc.repro)
			}
			if r := sum.Quarantined[1].Repro; strings.Contains(r, "-site-index") {
				t.Errorf("multi-site window repro %q replays a single site", r)
			}
		})
	}
}

// A panicking site without Isolate aborts the campaign — but as a
// structured error, not a process crash.
func TestCampaignPanicWithoutIsolateAborts(t *testing.T) {
	withTestHook(t, func(ctx context.Context, i int) error {
		if i == 1 {
			panic("unisolated")
		}
		return nil
	})
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Parallel = 2
	_, err := Campaign(cfg, "crafty", resilienceSites(), InjectOptions{})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want contained panic error", err)
	}
}

// Retry semantics: a run that fails transiently succeeds on a later attempt
// with escalated budget, and the retry is counted but never quarantined.
func TestCampaignRetriesTransientFailure(t *testing.T) {
	failures := map[int]int{3: 1} // site 3 fails once, then heals
	withTestHook(t, func(ctx context.Context, i int) error {
		if failures[i] > 0 {
			failures[i]--
			return errors.New("transient wobble")
		}
		return nil
	})
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Parallel = 1 // serialize so the map needs no lock
	cfg.Metrics = obs.NewRegistry()
	cfg.Resilience = Resilience{Isolate: true, Retries: 2}
	sum, err := Campaign(cfg, "crafty", resilienceSites(), InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Quarantined) != 0 {
		t.Fatalf("healed run still quarantined: %+v", sum.Quarantined)
	}
	if sum.Retried != 1 {
		t.Errorf("Retried = %d, want 1", sum.Retried)
	}
	if got := metricsText(t, cfg.Metrics); !strings.Contains(got, "campaign.retries") {
		t.Errorf("metrics lack campaign.retries:\n%s", got)
	}
}

// A journal keyed to a different campaign refuses to resume.
func TestCampaignJournalKeyMismatch(t *testing.T) {
	sites := resilienceSites()
	cfg := Default(pipeline.ModeBlackJack, 2000)
	path := filepath.Join(t.TempDir(), "c.journal")
	jr, err := OpenCampaignJournal(path, cfg, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	if _, err := OpenCampaignJournal(path, cfg, "gcc", sites, InjectOptions{}); err == nil {
		t.Error("journal accepted a different benchmark")
	}
	cfg2 := cfg
	cfg2.MaxInstructions = 4000
	if _, err := OpenCampaignJournal(path, cfg2, "crafty", sites, InjectOptions{}); err == nil {
		t.Error("journal accepted a different instruction budget")
	}
	if _, err := OpenCampaignJournal(path, cfg, "crafty", sites[:3], InjectOptions{}); err == nil {
		t.Error("journal accepted a different site list")
	}
	// A sampled campaign's records mean something else than a full one's.
	cfg3 := cfg
	cfg3.FastForward = true
	if _, err := OpenCampaignJournal(path, cfg3, "crafty", sites, InjectOptions{}); err == nil {
		t.Error("journal of a full campaign accepted a sampled one")
	}
}

// Campaign-level cancellation (SIGINT) stops the fan-out, surfaces
// context.Canceled, and leaves the journal resumable with whatever had
// completed.
func TestCampaignGracefulCancellation(t *testing.T) {
	sites := resilienceSites()
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	withTestHook(t, func(_ context.Context, i int) error {
		ran++
		if ran == 3 {
			cancel() // "SIGINT" mid-campaign
		}
		return nil
	})
	path := filepath.Join(t.TempDir(), "int.journal")
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Parallel = 1
	cfg.Ctx = ctx
	jr, err := OpenCampaignJournal(path, cfg, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = jr
	_, err = Campaign(cfg, "crafty", sites, InjectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	jr.Close()

	// Resume under a live context: the journaled prefix is skipped and the
	// final table matches an uninterrupted run.
	withTestHook(t, nil)
	refCfg := Default(pipeline.ModeBlackJack, 2000)
	refSum, err := Campaign(refCfg, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Default(pipeline.ModeBlackJack, 2000)
	jr2, err := OpenCampaignJournal(path, cfg2, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if jr2.Done() == 0 {
		t.Fatal("interrupted journal holds no completed runs")
	}
	cfg2.Journal = jr2
	sum, err := Campaign(cfg2, "crafty", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != jr2.Done() {
		t.Errorf("Resumed = %d, journal held %d", sum.Resumed, jr2.Done())
	}
	if got, want := summaryString(sum), summaryString(refSum); got != want {
		t.Errorf("post-interrupt resume differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// A standalone run that deadlocks surfaces the typed error.
func TestRunProgramTypedDeadlockError(t *testing.T) {
	cfg := Default(pipeline.ModeBlackJack, 2000)
	cfg.Machine.MaxCycles = 50 // far too few to finish: trips the backstop
	_, err := Run(cfg, "gcc")
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v (%T), want *DeadlockError", err, err)
	}
	if de.Benchmark != "gcc" || de.Mode != pipeline.ModeBlackJack {
		t.Errorf("DeadlockError = %+v", de)
	}
}

// A standalone run under an expired budget surfaces the typed interruption.
func TestRunProgramTypedInterruptedError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Default(pipeline.ModeBlackJack, 200000)
	cfg.Ctx = ctx
	_, err := Run(cfg, "gcc")
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InterruptedError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("InterruptedError does not unwrap to context.Canceled: %v", err)
	}
}
