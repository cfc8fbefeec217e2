package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// convergeConfig is the campaign setup of the convergence tests: BlackJack
// on small caches, long enough for several 250- and 2500-cycle checkpoints
// after the transients' shots.
func convergeConfig(interval int64, ff bool, workers int) Config {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 4000)
	cfg.CheckpointInterval = interval
	cfg.FastForward = ff
	cfg.Parallel = workers
	cfg.Metrics = obs.NewRegistry()
	return cfg
}

// A run cut where it reconverges with the golden warmup must report exactly
// what the full run reports. The transient campaign is byte-identical at
// every checkpoint interval (0 takes no checkpoints, so nothing is cut),
// with fast-forward off and on, at 1 and 8 workers — where 8 workers
// compare against the same shared checkpoints at once.
func TestCampaignConvergedRunsByteIdentical(t *testing.T) {
	sites := TransientSites(checkpointTestConfig(pipeline.ModeBlackJack, 0).Machine, 200)
	for _, ff := range []bool{false, true} {
		t.Run(fmt.Sprintf("ff=%v", ff), func(t *testing.T) {
			var ref *CampaignSummary
			converged := uint64(0)
			for _, interval := range []int64{0, 250, 2500} {
				var metrics string
				for _, workers := range []int{1, 8} {
					cfg := convergeConfig(interval, ff, workers)
					sum, err := Campaign(cfg, "gcc", sites, InjectOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = sum
					}
					if !reflect.DeepEqual(ref, sum) {
						t.Fatalf("interval %d, %d workers: summary differs from full runs:\n%s\nvs\n%s",
							interval, workers, summaryString(sum), summaryString(ref))
					}
					got := metricsText(t, cfg.Metrics)
					if metrics != "" && got != metrics {
						t.Fatalf("interval %d: metrics differ between 1 and 8 workers", interval)
					}
					metrics = got
					n := cfg.Metrics.CounterValue("campaign.converged.runs")
					if interval == 0 && n != 0 {
						t.Fatalf("%d runs cut without checkpoints", n)
					}
					converged += n
				}
			}
			if converged == 0 {
				t.Fatal("no run reconverged with the warmup; the test proves nothing")
			}
		})
	}
}

// A campaign resumed from a journal replays cut runs, with their
// campaign.converged.* metrics, byte-identically.
func TestCampaignConvergedJournalResume(t *testing.T) {
	sites := TransientSites(checkpointTestConfig(pipeline.ModeBlackJack, 0).Machine, 200)
	refCfg := convergeConfig(250, false, 2)
	ref, err := Campaign(refCfg, "gcc", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refMetrics := metricsText(t, refCfg.Metrics)
	if refCfg.Metrics.CounterValue("campaign.converged.runs") == 0 ||
		!strings.Contains(refMetrics, "campaign.converged.saved_cycles") {
		t.Fatalf("reference campaign cut no run:\n%s", refMetrics)
	}

	path := filepath.Join(t.TempDir(), "campaign.journal")
	fullCfg := convergeConfig(250, false, 2)
	jr, err := OpenCampaignJournal(path, fullCfg, "gcc", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fullCfg.Journal = jr
	if _, err := Campaign(fullCfg, "gcc", sites, InjectOptions{}); err != nil {
		t.Fatal(err)
	}
	jr.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"converged":true`) {
		t.Fatal("journal records no converged run")
	}
	// Keep the header and half of the records: a crash mid-campaign.
	lines := strings.SplitAfter(strings.TrimRight(string(raw), "\n"), "\n")
	kept := 1 + len(sites)/2
	if err := os.WriteFile(path, []byte(strings.Join(lines[:kept], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := convergeConfig(250, false, 8)
	jr, err = OpenCampaignJournal(path, cfg, "gcc", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	cfg.Journal = jr
	sum, err := Campaign(cfg, "gcc", sites, InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != kept-1 {
		t.Fatalf("Resumed = %d, want %d", sum.Resumed, kept-1)
	}
	if got := summaryString(sum); got != summaryString(ref) {
		t.Fatalf("resumed table differs:\n%s\nvs\n%s", got, summaryString(ref))
	}
	if got := metricsText(t, cfg.Metrics); got != refMetrics {
		t.Fatalf("resumed metrics differ:\n%s\nvs\n%s", got, refMetrics)
	}
}

// Multi-fault subsets: a subset of two transients may be cut once both
// shots have passed, and must still match the cold multi-fault run; a
// subset holding a permanent site is never spent, so it is never cut —
// not even when its permanent site can never fire.
func TestCampaignPlanConvergedSubsets(t *testing.T) {
	mc := checkpointTestConfig(pipeline.ModeBlackJack, 0).Machine
	sites := TransientSites(mc, 200)
	pairs := len(sites) / 2
	// The shot reconverges when run alone (checked below), so only the
	// permanent partner can keep the mixed subsets from being cut.
	const shotIdx = 1
	shot := sites[shotIdx]
	sites = append(sites,
		shot, fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 9},
		shot, fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3,
			TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF},
	)
	for _, ff := range []bool{false, true} {
		cold := convergeConfig(0, ff, 1)
		cold.Metrics = nil
		converged := 0
		for _, interval := range []int64{0, 250, 2500} {
			cfg := convergeConfig(interval, ff, 1)
			cfg.Metrics = nil
			pl, err := NewCampaignPlan(cfg, prog.MustBenchmark("gcc"), sites, InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(lo, hi int, mixed bool) {
				want, err := injectCold(cold, pl.prog, sites[lo:hi], InjectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, pi, err := pl.injectCtx(nil, lo, hi, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("ff=%v interval %d subset [%d,%d) via %s: %+v, cold run gives %+v",
						ff, interval, lo, hi, pi.Path, got, want)
				}
				if mixed && pi.Converged {
					t.Fatalf("ff=%v interval %d: subset [%d,%d) holds a permanent site but was cut", ff, interval, lo, hi)
				}
				if pi.Converged {
					converged++
				}
			}
			for i := 0; i < pairs; i++ {
				check(2*i, 2*i+2, false)
			}
			if _, pi, err := pl.injectCtx(nil, shotIdx, shotIdx+1, nil); err != nil || (interval > 0 && !pi.Converged) {
				t.Fatalf("ff=%v interval %d: the shot alone did not reconverge (err %v)", ff, interval, err)
			}
			n := len(sites)
			check(n-4, n-2, true)
			check(n-2, n, true)
		}
		if converged == 0 {
			t.Fatalf("ff=%v: no two-transient subset reconverged; the test proves nothing", ff)
		}
	}
}
