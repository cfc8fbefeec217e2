package pipeline

import (
	"context"
	"testing"

	"blackjack/internal/detect"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/prog"
	"blackjack/internal/rename"
)

// panicInjector watches integer ALU way 0 and panics at its n-th result
// there: a run that dies mid-cycle, as a fault-wedged campaign run does
// before the harness recovers it.
type panicInjector struct{ n, seen int }

func (p *panicInjector) Watched() []fault.Resource {
	return []fault.Resource{{Hook: fault.HookResult, Unit: isa.UnitIntALU, Way: 0}}
}

func (p *panicInjector) CorruptResult(_ isa.UnitClass, _ int, _ isa.Inst, v uint64) uint64 {
	if p.seen++; p.seen == p.n {
		panic("panicInjector: wedged")
	}
	return v
}

func (*panicInjector) CorruptDecode(_ int, in isa.Inst) isa.Inst           { return in }
func (*panicInjector) CorruptPayload(_, _ int, in isa.Inst) isa.Inst       { return in }
func (*panicInjector) CorruptAddr(_ isa.UnitClass, _ int, a uint64) uint64 { return a }
func (*panicInjector) CorruptBranch(_ isa.UnitClass, _ int, t bool) bool   { return t }
func (*panicInjector) CorruptBranchTarget(_ isa.UnitClass, _, t int) int   { return t }
func (*panicInjector) CorruptRegRead(_ rename.PhysReg, v uint64) uint64    { return v }

// recycleDirtyEnds leaves a machine in each state a campaign run can end
// in: stopped at its first detection, deadlocked, panicked mid-cycle and
// recovered, interrupted by its run context, and cut by Stop (here on a
// forked run, where convergence cuts happen). Each dirty run but the
// fork uses the Table 1 caches, a different geometry from the rebuilds',
// and the deadlocked one resizes every structure as well.
var recycleDirtyEnds = []struct {
	name  string
	dirty func(t *testing.T, m *Machine, mode Mode, p *isa.Program, cp *Checkpoint)
}{
	{"stopped-on-detect", func(t *testing.T, m *Machine, mode Mode, p *isa.Program, _ *Checkpoint) {
		inj := &fault.Injector{Sites: []fault.Site{{Class: fault.FrontendWay, Way: 0, Field: fault.FieldRs2}}}
		mustInit(t, m, DefaultConfig(), mode, p, WithInjector(inj), WithStopOnDetect())
		if st := m.Run(20_000); mode.UsesDTQ() && !st.StoppedOnDetect {
			t.Fatal("the detecting run did not stop on its detection")
		}
	}},
	{"deadlocked", func(t *testing.T, m *Machine, mode Mode, p *isa.Program, _ *Checkpoint) {
		cfg := resizedConfig()
		cfg.MaxCycles = 700
		mustInit(t, m, cfg, mode, p)
		if !m.Run(20_000).Deadlocked {
			t.Fatal("the cycle-limited run did not deadlock")
		}
	}},
	{"panicked", func(t *testing.T, m *Machine, mode Mode, p *isa.Program, _ *Checkpoint) {
		mustInit(t, m, DefaultConfig(), mode, p, WithInjector(&panicInjector{n: 200}))
		defer func() {
			if recover() == nil {
				t.Fatal("the wedging run did not panic")
			}
		}()
		m.Run(20_000)
	}},
	{"interrupted", func(t *testing.T, m *Machine, mode Mode, p *isa.Program, _ *Checkpoint) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		mustInit(t, m, DefaultConfig(), mode, p, WithRunContext(ctx))
		if !m.Run(20_000).Interrupted {
			t.Fatal("the cancelled run was not interrupted")
		}
	}},
	{"stopped", func(t *testing.T, m *Machine, _ Mode, _ *isa.Program, cp *Checkpoint) {
		m.ForkFrom(cp)
		m.RunWithCheckpoints(20_000, 500, func(l *Machine) {
			if l.Cycle() >= cp.Cycle()+1000 {
				l.Stop()
			}
		})
	}},
}

// resizedConfig differs from the rebuilds' configuration in every size a
// rebuild must change: stage widths, windows, queues, register file, unit
// counts and cache geometry.
func resizedConfig() Config {
	cfg := DefaultConfig()
	cfg.FetchWidth, cfg.RenameWidth, cfg.IssueWidth, cfg.CommitWidth = 6, 6, 6, 6
	cfg.ActiveList, cfg.LSQ, cfg.IssueQueue, cfg.PhysRegs = 256, 32, 96, 512
	cfg.DTQ, cfg.LVQ, cfg.StoreBuffer, cfg.BOQ = 512, 64, 32, 48
	cfg.Units[isa.UnitMem] = 3
	cfg.Cache.L2Ways = 4
	return cfg
}

func mustInit(t *testing.T, m *Machine, cfg Config, mode Mode, p *isa.Program, opts ...Option) {
	t.Helper()
	if err := m.Init(cfg, mode, p, opts...); err != nil {
		t.Fatal(err)
	}
}

// TestRecycledMachineMatchesFresh is the stale-state proof for building a
// run into a used machine: from every way a campaign run can end, a cold
// build (Init), a fork (ForkFrom) and an arch-seeded build (InitFromArch)
// into the dirty machine must equal a fresh New, Fork or NewFromArch
// machine at cycle 0 and at every 500th cycle (Matches), and end with equal
// statistics, in all four modes.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	const n = 3000
	p := prog.MustBenchmark("gzip")
	cfg := smallCacheConfig(false)
	g, err := isa.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(1000)
	arch := g.CaptureArch()
	// Cold builds install an injector whose one site never fires but is
	// watched; forks and arch-seeded builds install none, so a watch bit
	// left over from a dirty run's injector calls into a nil injector.
	watched := func() Option {
		never := fault.Site{Class: fault.BackendWay, Unit: isa.UnitMem, Way: 1, BitMask: 1,
			TriggerMask: ^uint64(0), TriggerValue: 0xDEADBEEFDEADBEEF}
		return WithInjector(&fault.Injector{Sites: []fault.Site{never}})
	}

	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		src, err := New(cfg, mode, p)
		if err != nil {
			t.Fatal(err)
		}
		var cp *Checkpoint
		src.RunWithCheckpoints(n, 700, func(l *Machine) {
			cp = l.Snapshot()
			l.Stop()
		})
		builds := []struct {
			name  string
			fresh func() (*Machine, error)
			into  func(m *Machine) error
		}{
			{"cold", func() (*Machine, error) { return New(cfg, mode, p, watched()) },
				func(m *Machine) error { return m.Init(cfg, mode, p, watched()) }},
			{"fork", func() (*Machine, error) { return Fork(cp), nil },
				func(m *Machine) error { m.ForkFrom(cp); return nil }},
			{"arch", func() (*Machine, error) { return NewFromArch(cfg, mode, p, arch) },
				func(m *Machine) error { return m.InitFromArch(cfg, mode, p, arch) }},
		}
		for _, end := range recycleDirtyEnds {
			for _, b := range builds {
				label := mode.String() + "/" + end.name + "/" + b.name
				m := &Machine{}
				end.dirty(t, m, mode, p, cp)
				if err := b.into(m); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				fresh, err := b.fresh()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				matchLockstep(t, label, fresh, m, n)
			}
		}
	}
}

// matchLockstep runs ref, snapshotting it at cycle 0 and every 500 cycles,
// then runs got and checks it Matches each snapshot at its cycle and ends
// with equal statistics.
func matchLockstep(t *testing.T, label string, ref, got *Machine, n int) {
	t.Helper()
	snaps := []*Checkpoint{ref.Snapshot()}
	want := *ref.RunWithCheckpoints(n, 500, func(l *Machine) { snaps = append(snaps, l.Snapshot()) })
	if !got.Matches(snaps[0]) {
		t.Fatalf("%s: differs from a fresh build before running", label)
	}
	i := 1
	st := got.RunWithCheckpoints(n, 500, func(l *Machine) {
		if i >= len(snaps) || !l.Matches(snaps[i]) {
			t.Errorf("%s: differs from a fresh build at cycle %d", label, l.Cycle())
			l.Stop()
		}
		i++
	})
	if i != len(snaps) {
		t.Errorf("%s: reached %d checkpoint cycles, a fresh build %d", label, i, len(snaps))
	}
	if !statsEqual(&want, st) {
		t.Errorf("%s: statistics differ from a fresh build:\nfresh:    %+v\nrecycled: %+v", label, want, *st)
	}
}

// TestRecycledBuildsAllocateNothing: once a machine has run each kind of
// build, building into it again and running a fault-free run allocates
// nothing, whatever the mode. The detection sink is the caller's, as in a
// campaign worker.
func TestRecycledBuildsAllocateNothing(t *testing.T) {
	p := prog.MustBenchmark("gzip")
	cfg := DefaultConfig()
	g, err := isa.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(1000)
	arch := g.CaptureArch()
	sink := &detect.Sink{}
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		src, err := New(cfg, mode, p)
		if err != nil {
			t.Fatal(err)
		}
		var cp *Checkpoint
		src.RunWithCheckpoints(3000, 700, func(l *Machine) {
			cp = l.Snapshot()
			l.Stop()
		})
		m := &Machine{}
		builds := []struct {
			name string
			run  func()
		}{
			{"cold", func() { mustInit(t, m, cfg, mode, p, WithSink(sink)); m.Run(3000) }},
			{"fork", func() { m.ForkFrom(cp, WithSink(sink)); m.Run(3000) }},
			{"arch", func() {
				if err := m.InitFromArch(cfg, mode, p, arch, WithSink(sink)); err != nil {
					t.Fatal(err)
				}
				m.Run(3000)
			}},
		}
		for _, b := range builds {
			b.run() // grows the storage this kind of run needs
		}
		for _, b := range builds {
			if allocs := testing.AllocsPerRun(3, b.run); allocs != 0 {
				t.Errorf("%v: a recycled %s build and run allocates %.0f times", mode, b.name, allocs)
			}
		}
	}
}

// TestSnapshotIntoMatchesFresh is the stale-state proof for rebuilding a
// checkpoint in place: SnapshotInto over a checkpoint of another program,
// mode and machine size, whose sink holds detections, gives a checkpoint
// that Matches a fresh Snapshot both ways, and forks from the two match at
// every 500th cycle and end with equal statistics, in all four modes.
func TestSnapshotIntoMatchesFresh(t *testing.T) {
	const n = 3000
	p, other := prog.MustBenchmark("gzip"), prog.MustBenchmark("gcc")
	cfg := smallCacheConfig(false)
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		otherMode := ModeBlackJack
		if mode == ModeBlackJack {
			otherMode = ModeSRT
		}
		inj := &fault.Injector{Sites: []fault.Site{{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 0, BitMask: 1 << 9}}}
		d, err := New(resizedConfig(), otherMode, other, WithInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		var dirty *Checkpoint
		d.RunWithCheckpoints(n, 900, func(l *Machine) {
			if l.Sink().Total() > 0 {
				dirty = l.Snapshot()
				l.Stop()
			}
		})
		if dirty == nil {
			t.Fatalf("%v: the dirty run detected nothing", mode)
		}

		src, err := New(cfg, mode, p)
		if err != nil {
			t.Fatal(err)
		}
		var fresh, reused *Checkpoint
		src.RunWithCheckpoints(n, 700, func(l *Machine) {
			fresh = l.Snapshot()
			reused = l.SnapshotInto(dirty, nil)
			l.Stop()
		})
		if reused != dirty {
			t.Fatalf("%v: SnapshotInto returned a new checkpoint", mode)
		}
		if !Fork(reused).Matches(fresh) || !Fork(fresh).Matches(reused) {
			t.Fatalf("%v: a snapshot into a dirty checkpoint differs from a fresh one", mode)
		}
		matchLockstep(t, mode.String(), Fork(fresh), Fork(reused), n)
	}
}

// TestSnapshotSharingMatchesFullCopy takes checkpoints as a campaign warmup
// does: each shares the memory and tag pages that equal those of the latest
// kept one, and one not kept is rebuilt in place for the next. In all four
// modes, every kept checkpoint Matches a full copy of its cycle both ways
// once every later one is taken (so no rebuild wrote a page it shares),
// and forks from the two match at every 500th cycle and end with equal
// statistics.
func TestSnapshotSharingMatchesFullCopy(t *testing.T) {
	const n = 3000
	p := prog.MustBenchmark("gcc")
	cfg := smallCacheConfig(false)
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		m, err := New(cfg, mode, p)
		if err != nil {
			t.Fatal(err)
		}
		var kept, full []*Checkpoint
		var spare *Checkpoint
		taken := 0
		m.RunWithCheckpoints(n, 250, func(l *Machine) {
			var prev *Checkpoint
			if len(kept) > 0 {
				prev = kept[len(kept)-1]
			}
			cp := l.SnapshotInto(spare, prev)
			spare = nil
			if taken++; taken%3 == 1 {
				kept, full = append(kept, cp), append(full, l.Snapshot())
			} else {
				spare = cp
			}
		})
		if len(kept) < 3 {
			t.Fatalf("%v: only %d checkpoints kept", mode, len(kept))
		}
		for i, cp := range kept {
			if !Fork(cp).Matches(full[i]) || !Fork(full[i]).Matches(cp) {
				t.Errorf("%v: the sharing checkpoint at cycle %d differs from a full copy", mode, cp.Cycle())
			}
		}
		last := len(kept) - 1
		matchLockstep(t, mode.String(), Fork(full[last]), Fork(kept[last]), n)
	}
}
