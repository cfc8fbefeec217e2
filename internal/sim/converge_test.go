package sim

import (
	"reflect"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// convergeConfig is the campaign setup of the convergence tests: BlackJack
// on small caches, long enough for several 250- and 2500-cycle checkpoints
// after the transients' shots.
func convergeConfig(interval int64, ff bool) Config {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 4000)
	cfg.CheckpointInterval = interval
	cfg.FastForward = ff
	cfg.Parallel = 1
	return cfg
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
		cold := convergeConfig(0, ff)
		converged := 0
		for _, interval := range []int64{0, 250, 2500} {
			cfg := convergeConfig(interval, ff)
			pl, err := NewCampaignPlan(cfg, prog.MustBenchmark("gcc"), sites, InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			check := func(lo, hi int, mixed bool) {
				want, err := injectCold(cold, pl.prog, sites[lo:hi], InjectOptions{})
				if err != nil {
					t.Fatal(err)
				}
				got, pi, err := pl.injectCtx(nil, lo, hi, newRunStorage())
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
			if _, pi, err := pl.injectCtx(nil, shotIdx, shotIdx+1, newRunStorage()); err != nil || (interval > 0 && !pi.Converged) {
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
