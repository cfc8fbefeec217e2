package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// checkpointTestConfig shrinks the caches so per-cycle snapshots (interval 1)
// stay cheap; outcome classification does not depend on cache geometry.
func checkpointTestConfig(mode pipeline.Mode, n int) Config {
	cfg := Default(mode, n)
	cfg.Machine.Cache.L1SizeKB = 16
	cfg.Machine.Cache.L2SizeKB = 64
	// Bound the deadlock backstop so wedged outcomes classify quickly; the
	// limit is an absolute cycle count, identical for cold and forked runs.
	cfg.Machine.MaxCycles = 50_000
	cfg.Parallel = 2
	return cfg
}

// mixedSites builds a campaign exercising every checkpoint path: always-on
// faults (fire early: fork from an early checkpoint or run cold), transients
// with a late FireAt (fire late: fork from a late checkpoint), and
// trigger-gated sites that can never fire (served from the warmup).
func mixedSites(cfg pipeline.Config) []fault.Site {
	sites := []fault.Site{
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9},
		{Class: fault.FrontendWay, Way: 1, Field: fault.FieldRs2},
		{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1 << 10},
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 2, FlipBranch: true},
		{Class: fault.RegisterFile, Reg: 200, BitMask: 1 << 5},
		{Class: fault.PayloadRAM, Slot: 3, Field: fault.FieldImm, BitMask: 2},
		// Late transients: one shot on a deep eligible use.
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, BitMask: 1 << 9, Transient: true, FireAt: 300},
		{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs1, Transient: true, FireAt: 150},
		// Never fires: impossible trigger pattern.
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3,
			TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF},
		{Class: fault.RegisterFile, Reg: 300, BitMask: 1,
			TriggerMask: ^uint64(0), TriggerValue: 0xFEEDFACEFEEDFACE},
	}
	return sites
}

// The checkpointed campaign must actually take and use snapshots (guard
// against the fast path silently never engaging).
func TestCampaignPlanTakesCheckpoints(t *testing.T) {
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 1500)
	cfg.CheckpointInterval = 250
	p, err := prog.Benchmark("gcc")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewCampaignPlan(cfg, p, mixedSites(cfg.Machine), InjectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Checkpoints() == 0 {
		t.Fatal("warmup took no checkpoints")
	}
	if len(pl.sites) != len(mixedSites(cfg.Machine)) {
		t.Fatalf("plan holds %d sites", len(pl.sites))
	}
	// The late transient must fork from a checkpoint, not run cold.
	late := 6 // index of the FireAt: 300 transient in mixedSites
	fire := pl.probe.FireCycle(late)
	if fire < 0 {
		t.Skip("late transient never became eligible in this window")
	}
	if pl.latestBefore(fire) == nil {
		t.Fatalf("no checkpoint precedes fire cycle %d despite interval 250", fire)
	}
}

// injectCold is the cold multi-fault reference: a fresh machine from
// cycle 0 with every site installed, outside any campaign, plan or cache.
func injectCold(cfg Config, p *isa.Program, sites []fault.Site, opts InjectOptions) (InjectionResult, error) {
	r, _, err := injectSites(nil, cfg, p, sites, opts, newRunStorage(), newGoldenOracle(p), nil)
	return r, err
}

// Every window of a windowed campaign (several simultaneous faults, one
// entry) must match the cold multi-fault run exactly, whether the
// campaign runs cold or forks from one plan.
func TestCampaignWindowsMatchCold(t *testing.T) {
	p, err := prog.Benchmark("crafty")
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []int64{0, 300} {
		cfg := checkpointTestConfig(pipeline.ModeBlackJack, 1500)
		sites := mixedSites(cfg.Machine)
		windows := []Window{{0, 3}, {3, 6}, {6, 10}, {0, len(sites)}}
		cfg.CheckpointInterval = interval
		sum, err := CampaignWindows(cfg, p, sites, windows, InjectOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range windows {
			cold, err := injectCold(cfg, p, sites[w.Lo:w.Hi], InjectOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cold, sum.Results[i]) {
				t.Errorf("interval %d window [%d,%d): cold %+v, campaign %+v", interval, w.Lo, w.Hi, cold, sum.Results[i])
			}
		}
	}
}

// A window runs under the campaign's context like every other campaign
// run: cancelled while the window starts, it stops instead of falling back
// to an unbudgeted cold run, and the campaign returns context.Canceled.
func TestCampaignWindowsStopOnCancelledCtx(t *testing.T) {
	// Long enough to reach the machine's first context poll.
	cfg := checkpointTestConfig(pipeline.ModeBlackJack, 20_000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Ctx = ctx
	cfg.CheckpointInterval = 300
	withTestHook(t, func(context.Context, int) error { cancel(); return nil })
	_, err := CampaignWindows(cfg, prog.MustBenchmark("crafty"), mixedSites(cfg.Machine), []Window{{0, 3}}, InjectOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("window under a cancelled context returned %v, want context.Canceled", err)
	}
}

// The memoized oracle must agree with a fresh golden machine at arbitrary
// (including out-of-order) instruction counts.
func TestGoldenOracleMatchesFreshRuns(t *testing.T) {
	p, err := prog.Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	o := newGoldenOracle(p)
	for _, k := range []uint64{500, 100, 1200, 1200, 0, 700} {
		sig, stores, err := o.at(k)
		if err != nil {
			t.Fatal(err)
		}
		g, err := isa.NewMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		g.Run(int(k))
		if sig != g.StoreSignature() || stores != uint64(g.Stores()) {
			t.Errorf("at(%d) = (%#x, %d), fresh run (%#x, %d)",
				k, sig, stores, g.StoreSignature(), g.Stores())
		}
	}
}

// allSnapshots replays pl's warmup and keeps a snapshot at every grid
// point (Config.planGrid): the reference a plan that keeps only the snapshots a
// run can read is checked against.
func allSnapshots(t *testing.T, pl *CampaignPlan) []planCheckpoint {
	t.Helper()
	probe := fault.NewProbe(pl.sites, pl.opts.SplitPayload)
	m, err := pipeline.New(pl.cfg.Machine, pl.cfg.Mode, pl.prog, pipeline.WithInjector(probe))
	if err != nil {
		t.Fatal(err)
	}
	probe.Now = m.Cycle
	var cps []planCheckpoint
	m.RunWithCheckpoints(pl.cfg.MaxInstructions, pl.cfg.planGrid(), func(live *pipeline.Machine) {
		cps = append(cps, planCheckpoint{cycle: live.Cycle(), snap: live.Snapshot(), uses: probe.AppendUses(nil)})
	})
	return cps
}

// A plan keeps only the warmup snapshots a run can read, and every run
// reads exactly what it would read with all of them kept. On each
// canonical list and a mix run in windows, with fast-forward off and on:
//   - every kept snapshot equals the reference snapshot of its cycle, and
//     is a fork source of some run or comes after a transient's shot;
//   - every run forks from the largest grid point below its first
//     fire (or runs cold when there is none), and every cycle a
//     reconvergence check can happen at holds its snapshot;
//   - every run's result and path, convergence included, equal those of
//     the same plan holding every snapshot;
//   - with fast-forward on, the latent plan keeps no snapshot from the
//     first mark whose handoff is usable on.
//
// Every list here with a transient runs at an interval equal to its grid,
// so every grid point from its first shot on is a reference, and a spent
// run is cut where it would be with every snapshot kept.
// TestCampaignPlanConvergesAtKeptSnapshots covers a coarser interval.
func TestCampaignPlanCheckpointsOnDemand(t *testing.T) {
	mc := pipeline.DefaultConfig()
	mixed := mixedSites(mc)
	lists := []struct {
		name     string
		sites    []fault.Site
		instrs   int
		interval int64
		windows  []Window
	}{
		{"latent", LatentSites(mc), 30_000, 2500, nil},
		{"transient", TransientSites(mc, 200), 6_000, 500, nil},
		{"intermittent", IntermittentSites(mc, 64, 16, 75), 4_000, 500, nil},
		{"control-flow", ControlFlowSites(mc), 8_000, 500, nil},
		{"mixed-window", mixed, 1_500, 250, []Window{{0, 3}, {3, 6}, {6, 10}, {0, len(mixed)}, {6, 8}}},
		// Every few cycles: fires land on snapshot cycles, and with
		// fast-forward on, sites firing before the first usable handoff fork.
		{"standard", StandardSites(mc), 600, 5, nil},
	}
	p := prog.MustBenchmark("gcc")
	opts := InjectOptions{SplitPayload: true}
	forks, cuts := 0, 0
	for _, l := range lists {
		for _, ff := range []bool{false, true} {
			cfg := checkpointTestConfig(pipeline.ModeBlackJack, l.instrs)
			cfg.CheckpointInterval, cfg.FastForward = l.interval, ff
			name := fmt.Sprintf("%s/ff=%v", l.name, ff)
			pl, err := NewCampaignPlan(cfg, p, l.sites, opts)
			if err != nil {
				t.Fatal(err)
			}
			all := allSnapshots(t, pl)
			ref := *pl
			ref.cps = all
			t.Logf("%s: %d of %d snapshots kept", name, pl.Checkpoints(), len(all))

			byCycle := map[int64]planCheckpoint{}
			for _, cp := range all {
				byCycle[cp.cycle] = cp
			}
			for _, cp := range pl.cps {
				want, ok := byCycle[cp.cycle]
				if !ok || !pipeline.Fork(cp.snap).Matches(want.snap) || !reflect.DeepEqual(cp.uses, want.uses) {
					t.Errorf("%s: kept snapshot at cycle %d differs from the reference", name, cp.cycle)
				}
			}

			windows, err := siteWindows(l.sites, l.windows)
			if err != nil {
				t.Fatal(err)
			}
			forkedFrom := map[int64]bool{}
			firstShot := int64(-1)
			for i, s := range l.sites {
				if f := pl.probe.FireCycle(i); f >= 0 && s.EffectiveKind() == fault.KindTransient && (firstShot < 0 || f < firstShot) {
					firstShot = f
				}
			}
			for _, w := range windows {
				got, gotPath, err := pl.injectCtx(nil, w.Lo, w.Hi, newRunStorage())
				if err != nil {
					t.Fatal(err)
				}
				want, wantPath, err := ref.injectCtx(nil, w.Lo, w.Hi, newRunStorage())
				if err != nil {
					t.Fatal(err)
				}
				if gotPath.Converged {
					cuts++
				}
				if !reflect.DeepEqual(got, want) || gotPath != wantPath {
					t.Errorf("%s window %v: %+v %+v, with every snapshot %+v %+v", name, w, got, gotPath, want, wantPath)
				}
				minFire := int64(-1)
				for i := w.Lo; i < w.Hi; i++ {
					if f := pl.probe.FireCycle(i); f >= 0 && (minFire < 0 || f < minFire) {
						minFire = f
					}
				}
				grid := cfg.planGrid()
				below := (minFire - 1) / grid * grid
				switch {
				case gotPath.Path == pathForked:
					forks++
					forkedFrom[gotPath.ForkCycle] = true
					if gotPath.ForkCycle != below || below == 0 {
						t.Errorf("%s window %v: forked at %d, first fire %d", name, w, gotPath.ForkCycle, minFire)
					}
				case gotPath.Path == pathCold && below > 0:
					t.Errorf("%s window %v: ran cold, first fire %d", name, w, minFire)
				}
			}
			for _, cp := range all {
				if firstShot >= 0 && cp.cycle >= firstShot && pl.checkpointAt(cp.cycle) == nil {
					t.Errorf("%s: no snapshot at cycle %d for a reconvergence check", name, cp.cycle)
				}
			}
			if l.windows == nil {
				for _, cp := range pl.cps {
					if !forkedFrom[cp.cycle] && (firstShot < 0 || cp.cycle < firstShot) {
						t.Errorf("%s: kept snapshot at cycle %d, which no run reads", name, cp.cycle)
					}
				}
			}
			if l.name == "latent" && ff {
				for _, mk := range pl.marks {
					if mk.instrs > uint64(cfg.ffWarmup()) {
						for _, cp := range pl.cps {
							if cp.cycle >= mk.cycle {
								t.Errorf("%s: kept snapshot at cycle %d, after the first usable handoff at %d", name, cp.cycle, mk.cycle)
							}
						}
						break
					}
				}
			}
		}
	}
	if forks == 0 || cuts == 0 {
		t.Errorf("%d forked and %d reconverged runs; the check needs both", forks, cuts)
	}
}

// A warmup ends at the first hook boundary where every site has fired, on
// a list with no one-shot transient, and every run of its plan is served
// exactly what a plan over the whole warmup serves. The reference plan
// holds the same list plus one trigger-gated site that never fires: sites
// do not interact on the probe, so it runs the whole warmup and reads the
// same fire cycles, snapshots and marks for the shared sites. The latent
// list (sites that never fire) and a transient list where every site fires
// (a spent injector reads the tail) must run the whole warmup.
func TestCampaignPlanWarmupEndsAtLastFire(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	base := Default(pipeline.ModeBlackJack, 8000)
	m, err := pipeline.New(base.Machine, base.Mode, p)
	if err != nil {
		t.Fatal(err)
	}
	full := m.Run(base.MaxInstructions).Cycles
	never := fault.Site{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 3,
		TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF}
	opts := InjectOptions{SplitPayload: true}
	plan := func(t *testing.T, cfg Config, sites []fault.Site) *CampaignPlan {
		t.Helper()
		pl, err := NewCampaignPlan(cfg, p, sites, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.warmValid {
			t.Fatal("warmup invalid")
		}
		return pl
	}

	// The sites of the transient list that fire in the budget's first half,
	// so a warmup that ignored the transients would end well before the
	// budget's.
	transient := TransientSites(base.Machine, 20)
	shots := plan(t, base, transient)
	var firing []fault.Site
	for i, s := range transient {
		if f := shots.probe.FireCycle(i); f >= 0 && f < full/2 {
			firing = append(firing, s)
		}
	}
	if len(firing) < 2 {
		t.Fatalf("only %d transient sites fire", len(firing))
	}

	configs := []struct {
		name string
		ckpt int64
		ff   bool
	}{{"ckpt", 2500, false}, {"ff", 0, true}, {"ff+ckpt", 2500, true}}
	for _, c := range configs {
		cfg := base
		cfg.CheckpointInterval, cfg.FastForward = c.ckpt, c.ff
		hook := cfg.planGrid()
		t.Run(c.name, func(t *testing.T) {
			sites := ControlFlowSites(cfg.Machine)
			pl := plan(t, cfg, sites)
			ref := plan(t, cfg, append(append([]fault.Site(nil), sites...), never))
			lastFire := int64(-1)
			for i := range sites {
				lastFire = max(lastFire, pl.probe.FireCycle(i))
			}
			t.Logf("warmup ends at cycle %d of %d, last fire %d", pl.warm.Cycles, full, lastFire)
			if got := pl.warm.Cycles; !pl.warmCut || got >= full || got > lastFire+hook {
				t.Errorf("warmup cut %v at cycle %d; a plain run takes %d, the last fire is at %d", pl.warmCut, got, full, lastFire)
			}
			if ref.warmCut || ref.warm.Cycles != full {
				t.Fatalf("reference warmup cut %v at cycle %d of %d", ref.warmCut, ref.warm.Cycles, full)
			}
			if _, err := pl.warmStats(); err == nil {
				t.Error("a cut warmup serves its statistics")
			}
			if pl.Checkpoints() != ref.Checkpoints() {
				t.Errorf("%d checkpoints kept, reference %d", pl.Checkpoints(), ref.Checkpoints())
			}
			windows := []Window{{0, len(sites)}}
			for i := range sites {
				windows = append(windows, Window{i, i + 1})
			}
			for _, w := range windows {
				got, gotPath, err := pl.injectCtx(nil, w.Lo, w.Hi, newRunStorage())
				if err != nil {
					t.Fatal(err)
				}
				want, wantPath, err := ref.injectCtx(nil, w.Lo, w.Hi, newRunStorage())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) || gotPath != wantPath {
					t.Errorf("window %v: %+v %+v, over the whole warmup %+v %+v", w, got, gotPath, want, wantPath)
				}
			}
			for _, l := range []struct {
				name  string
				sites []fault.Site
			}{{"latent", LatentSites(cfg.Machine)}, {"transient", firing}} {
				if pl := plan(t, cfg, l.sites); pl.warmCut || pl.warm.Cycles != full {
					t.Errorf("%s warmup cut %v at cycle %d of %d", l.name, pl.warmCut, pl.warm.Cycles, full)
				}
			}
		})
	}
}

// Fast-forward marks lie on the plan grid whatever the checkpoint
// interval, so on the latent list the runs a plan fast-forwards are the
// same runs, field for field, at every interval the grid step divides as
// with fast-forward alone: same results, same handoffs.
func TestCampaignFastForwardRowsIndependentOfInterval(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	opts := InjectOptions{SplitPayload: true}
	rows := func(ckpt int64) (res []InjectionResult, paths []pathInfo) {
		cfg := Default(pipeline.ModeBlackJack, 30_000)
		cfg.CheckpointInterval, cfg.FastForward = ckpt, true
		sites := LatentSites(cfg.Machine)
		pl, err := NewCampaignPlan(cfg, p, sites, opts)
		if err != nil {
			t.Fatal(err)
		}
		rs := newRunStorage()
		for i := range sites {
			r, pi, err := pl.injectCtx(nil, i, i+1, rs)
			if err != nil {
				t.Fatal(err)
			}
			res, paths = append(res, r), append(paths, pi)
		}
		return res, paths
	}
	want, wantPaths := rows(0)
	ff := 0
	for _, pi := range wantPaths {
		if pi.Path == pathFF {
			ff++
		}
	}
	if ff == 0 {
		t.Fatal("no latent run fast-forwards")
	}
	for _, ckpt := range []int64{500, 1000, 2500} {
		got, gotPaths := rows(ckpt)
		for i := range want {
			if (wantPaths[i].Path == pathFF) != (gotPaths[i].Path == pathFF) {
				t.Errorf("interval %d, site %d: path %s, with fast-forward alone %s", ckpt, i, gotPaths[i].Path, wantPaths[i].Path)
			} else if wantPaths[i].Path == pathFF && (!reflect.DeepEqual(got[i], want[i]) || gotPaths[i] != wantPaths[i]) {
				t.Errorf("interval %d, site %d: %+v %+v, with fast-forward alone %+v %+v", ckpt, i, got[i], gotPaths[i], want[i], wantPaths[i])
			}
		}
	}
	t.Logf("%d of %d latent runs fast-forward", ff, len(want))
}
