package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/prog"
)

// The five machine variants checkpointing must reproduce exactly: the four
// modes of Section 6 plus the merging-shuffle extension.
var snapshotVariants = []struct {
	name  string
	mode  Mode
	merge bool
}{
	{"single", ModeSingle, false},
	{"srt", ModeSRT, false},
	{"blackjack-ns", ModeBlackJackNS, false},
	{"blackjack", ModeBlackJack, false},
	{"blackjack-merge", ModeBlackJack, true},
}

// smallCacheConfig shrinks the cache hierarchy so per-cycle snapshots stay
// cheap (the default 2MB L2 dominates clone cost); determinism does not
// depend on cache geometry.
func smallCacheConfig(merge bool) Config {
	cfg := DefaultConfig()
	cfg.MergePackets = merge
	cfg.Cache.L1SizeKB = 16
	cfg.Cache.L2SizeKB = 64
	return cfg
}

// assertSameFinalState compares every externally observable piece of final
// machine state: full statistics, the committed architectural registers of
// both contexts, and the memory image.
func assertSameFinalState(t *testing.T, label string, ref, got *Machine, refSt, gotSt *Stats) {
	t.Helper()
	if !reflect.DeepEqual(refSt, gotSt) {
		t.Fatalf("%s: stats diverge:\ncold: %+v\nfork: %+v", label, refSt, gotSt)
	}
	for r := 0; r < isa.NumArchRegs; r++ {
		if a, b := ref.ArchReg(0, isa.Reg(r)), got.ArchReg(0, isa.Reg(r)); a != b {
			t.Fatalf("%s: leading arch reg %d: cold %#x, fork %#x", label, r, a, b)
		}
	}
	if ref.mode.UsesDTQ() {
		for r := 0; r < isa.NumArchRegs; r++ {
			if a, b := ref.TrailingArchReg(isa.Reg(r)), got.TrailingArchReg(isa.Reg(r)); a != b {
				t.Fatalf("%s: trailing arch reg %d: cold %#x, fork %#x", label, r, a, b)
			}
		}
	}
	if ref.MemSize() != got.MemSize() {
		t.Fatalf("%s: memory sizes differ: %d vs %d", label, ref.MemSize(), got.MemSize())
	}
	for addr := 0; addr < ref.MemSize(); addr += 8 {
		if a, b := ref.MemWord(uint64(addr)), got.MemWord(uint64(addr)); a != b {
			t.Fatalf("%s: mem[%d]: cold %#x, fork %#x", label, addr, a, b)
		}
	}
}

// A machine forked from a snapshot taken at EVERY cycle must finish
// byte-identical to the cold run it was forked from. This is the strongest
// interval (1): every single cycle of the run is a valid fork point.
func TestForkEveryCycleMatchesColdRun(t *testing.T) {
	const n = 1 << 20
	p := sumProgram(60)
	for _, v := range snapshotVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCacheConfig(v.merge)
			ref, refSt := run(t, cfg, v.mode, p, n)

			m, err := New(cfg, v.mode, p)
			if err != nil {
				t.Fatal(err)
			}
			forks := 0
			st := m.RunWithCheckpoints(n, 1, func(live *Machine) {
				cp := live.Snapshot()
				f := Fork(cp)
				fSt := f.Run(n)
				label := fmt.Sprintf("fork@%d", cp.Cycle())
				assertSameFinalState(t, label, ref, f, refSt, fSt)
				forks++
			})
			if st.Deadlocked {
				t.Fatal("checkpointed run deadlocked")
			}
			// The hooked run itself must also match (hooks must not perturb).
			assertSameFinalState(t, "hooked-run", ref, m, refSt, st)
			if forks < 100 {
				t.Fatalf("only %d snapshots taken; program too short to exercise forking", forks)
			}
		})
	}
}

// Same property at sparse intervals on a real benchmark program (branchy
// code, cache misses, mispredict squashes in flight at snapshot time).
func TestForkAtIntervalsMatchesColdRun(t *testing.T) {
	const n = 3000
	p := prog.MustBenchmark("gcc")
	for _, v := range snapshotVariants {
		for _, interval := range []int64{250, 1000} {
			t.Run(fmt.Sprintf("%s/interval-%d", v.name, interval), func(t *testing.T) {
				cfg := smallCacheConfig(v.merge)
				ref, refSt := run(t, cfg, v.mode, p, n)

				m, err := New(cfg, v.mode, p)
				if err != nil {
					t.Fatal(err)
				}
				forks := 0
				st := m.RunWithCheckpoints(n, interval, func(live *Machine) {
					cp := live.Snapshot()
					f := Fork(cp)
					fSt := f.Run(n)
					label := fmt.Sprintf("fork@%d", cp.Cycle())
					assertSameFinalState(t, label, ref, f, refSt, fSt)
					forks++
				})
				if st.Deadlocked {
					t.Fatal("checkpointed run deadlocked")
				}
				assertSameFinalState(t, "hooked-run", ref, m, refSt, st)
				if forks == 0 {
					t.Fatal("no snapshots taken")
				}
			})
		}
	}
}

// Restore must rewind the SAME machine object to the checkpoint; re-running
// it must reproduce the original final state exactly.
func TestRestoreRewindsMachine(t *testing.T) {
	const n = 1 << 20
	p := sumProgram(200)
	for _, v := range snapshotVariants {
		t.Run(v.name, func(t *testing.T) {
			cfg := smallCacheConfig(v.merge)
			m, err := New(cfg, v.mode, p)
			if err != nil {
				t.Fatal(err)
			}
			var cp *Checkpoint
			st := m.RunWithCheckpoints(n, 100, func(live *Machine) {
				if cp == nil {
					cp = live.Snapshot()
				}
			})
			if st.Deadlocked {
				t.Fatal("run deadlocked")
			}
			if cp == nil {
				t.Fatal("no checkpoint taken")
			}
			first := *st // copy: Run returns a pointer into the machine

			m.Restore(cp)
			if m.StatsSnapshot().Cycles != cp.Cycle() {
				t.Fatalf("restore left cycle %d, checkpoint was %d", m.StatsSnapshot().Cycles, cp.Cycle())
			}
			again := m.Run(n)
			if !reflect.DeepEqual(&first, again) {
				t.Fatalf("rerun after Restore diverged:\nfirst: %+v\nagain: %+v", first, *again)
			}
		})
	}
}

// Mutation smoke test: the comparison machinery above must actually catch
// state divergence. Corrupt one register of a forked copy and verify the
// cold/fork final states now differ — if a Snapshot field were ever missed,
// this is the failure shape the tests above would produce.
func TestForkStateComparisonCatchesMutation(t *testing.T) {
	const n = 1 << 20
	p := sumProgram(200)
	cfg := smallCacheConfig(false)
	ref, refSt := run(t, cfg, ModeSingle, p, n)

	m, err := New(cfg, ModeSingle, p)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	st := m.RunWithCheckpoints(n, 100, func(live *Machine) {
		if cp == nil {
			cp = live.Snapshot()
		}
	})
	if st.Deadlocked || cp == nil {
		t.Fatal("run deadlocked or no checkpoint")
	}

	f := Fork(cp)
	// Corrupt a memory word the program never writes, behind the pipeline's
	// back. (A register corruption can die silently: consumers capture values
	// at issue and the loop remaps its registers every iteration.)
	f.mem.Store(8, f.mem.Load(8)^0xff)
	fSt := f.Run(n)

	same := reflect.DeepEqual(refSt, fSt)
	for r := 0; r < isa.NumArchRegs && same; r++ {
		if ref.ArchReg(0, isa.Reg(r)) != f.ArchReg(0, isa.Reg(r)) {
			same = false
		}
	}
	for addr := 0; addr < ref.MemSize() && same; addr += 8 {
		if ref.MemWord(uint64(addr)) != f.MemWord(uint64(addr)) {
			same = false
		}
	}
	if same {
		t.Fatal("corrupted fork produced identical final state; comparison has no teeth")
	}
}

// A checkpoint carries machine state, not harness state: a fork built
// without options runs fault-free and never drives the injector the
// snapshotted machine carried. (Were the warmup's Probe shared, its use
// counters would move, and concurrent forks would race on them.)
func TestForkDropsWarmupInjector(t *testing.T) {
	pr := &fault.Probe{Sites: []fault.Site{
		{Class: fault.FrontendWay, Way: 0, Transient: true, FireAt: 1 << 40},
		{Class: fault.BackendWay, Unit: isa.UnitIntALU, Way: 1, ArmAt: 1 << 40},
	}}
	m, err := New(DefaultConfig(), ModeBlackJack, prog.MustBenchmark("gcc"), WithInjector(pr))
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	m.RunWithCheckpoints(3000, 1000, func(live *Machine) {
		if cp == nil {
			cp = live.Snapshot()
		}
	})
	if cp == nil {
		t.Fatal("no checkpoint taken")
	}
	before := pr.UsesSnapshot()
	if before[0] == 0 || before[1] == 0 {
		t.Fatalf("warmup probe counted no uses: %v", before)
	}
	Fork(cp).Run(3000)
	if after := pr.UsesSnapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("fork without an injector drove the warmup's probe: uses %v -> %v", before, after)
	}
}
