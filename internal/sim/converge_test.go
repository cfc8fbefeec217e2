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

// A spent run compares against every snapshot its plan kept, fork sources
// and the references after each shot alike, not only at multiples of the
// interval. On the transient list at interval 2500, with fast-forward off
// and on, every row equals the uncut row of a plan without checkpoints,
// every cut lands on a kept snapshot, and some land between multiples of
// the interval.
func TestCampaignPlanConvergesAtKeptSnapshots(t *testing.T) {
	const interval = 2500
	p := prog.MustBenchmark("gcc")
	for _, ff := range []bool{false, true} {
		base := Default(pipeline.ModeBlackJack, 6000)
		base.Parallel, base.FastForward = 1, ff
		sites := TransientSites(base.Machine, 200)
		plan := func(interval int64) *CampaignPlan {
			cfg := base
			cfg.CheckpointInterval = interval
			pl, err := NewCampaignPlan(cfg, p, sites, InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return pl
		}
		uncut, pl := plan(0), plan(interval)
		rs, uncutRS := newRunStorage(), newRunStorage()
		converged, between := 0, 0
		for i := range sites {
			want, _, err := uncut.injectCtx(nil, i, i+1, uncutRS)
			if err != nil {
				t.Fatal(err)
			}
			got, pi, err := pl.injectCtx(nil, i, i+1, rs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ff=%v site %d via %s: %+v, uncut %+v", ff, i, pi.Path, got, want)
			}
			if !pi.Converged {
				continue
			}
			converged++
			if pl.checkpointAt(pi.ConvergedAt) == nil {
				t.Errorf("ff=%v site %d: cut at cycle %d, where the plan kept no snapshot", ff, i, pi.ConvergedAt)
			}
			if pi.ConvergedAt%interval != 0 {
				between++
			}
		}
		t.Logf("ff=%v: %d of %d runs cut, %d between multiples of %d; %d snapshots kept",
			ff, converged, len(sites), between, interval, pl.Checkpoints())
		if between == 0 {
			t.Errorf("ff=%v: no run was cut between multiples of the interval", ff)
		}
	}
}
