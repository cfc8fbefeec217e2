package pipeline

import (
	"testing"

	"blackjack/internal/core"
	"blackjack/internal/isa"
	"blackjack/internal/prog"
)

// run builds and runs a machine, failing the test on construction errors.
func run(t *testing.T, cfg Config, mode Mode, p *isa.Program, n int) (*Machine, *Stats) {
	t.Helper()
	m, err := New(cfg, mode, p, nil...)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run(n)
	if st.Deadlocked {
		t.Fatalf("%v run deadlocked at cycle %d (lead committed %d, trail committed %d)",
			mode, st.Cycles, st.Committed[0], st.Committed[1])
	}
	return m, st
}

// golden runs the functional emulator for exactly n instructions.
func golden(t *testing.T, p *isa.Program, n uint64) *isa.Machine {
	t.Helper()
	g, err := isa.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int(n))
	return g
}

func sumProgram(n int64) *isa.Program {
	b := prog.NewBuilder("sum")
	b.Data(64)
	b.Li(1, n)
	b.Li(3, 0)
	b.Label("loop")
	b.Op3(isa.OpAdd, 3, 3, 1)
	b.Addi(1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.St(isa.ZeroReg, 3, 0)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}

func TestSingleModeHandProgram(t *testing.T) {
	p := sumProgram(100)
	m, st := run(t, DefaultConfig(), ModeSingle, p, 1<<20)
	if got := m.ArchReg(0, isa.IntReg(3)); got != 5050 {
		t.Errorf("r3 = %d, want 5050", got)
	}
	if got := m.MemWord(0); got != 5050 {
		t.Errorf("mem[0] = %d, want 5050", got)
	}
	if st.ReleasedStores != 1 {
		t.Errorf("released stores = %d, want 1", st.ReleasedStores)
	}
	if ipc := st.IPC(); ipc < 0.3 || ipc > 4.0 {
		t.Errorf("IPC = %.2f out of sane range", ipc)
	}
}

// The out-of-order single-thread pipeline must commit exactly the golden
// model's architectural results — registers, memory output stream — on every
// synthetic benchmark.
func TestSingleModeMatchesGolden(t *testing.T) {
	for _, name := range []string{"equake", "gcc", "gzip", "sixtrack", "vortex", "swim"} {
		t.Run(name, func(t *testing.T) {
			p := prog.MustBenchmark(name)
			_, st := run(t, DefaultConfig(), ModeSingle, p, 8000)
			g := golden(t, p, st.Committed[0])
			if st.ReleasedStores != uint64(g.Stores()) {
				t.Errorf("stores: pipeline %d, golden %d", st.ReleasedStores, g.Stores())
			}
			if st.StoreSignature != g.StoreSignature() {
				t.Errorf("store signature mismatch: %#x vs %#x", st.StoreSignature, g.StoreSignature())
			}
		})
	}
}

// After a program halts, the pipeline is fully drained and its rename map
// reflects exactly the committed architectural state; every register must
// match the golden model. (Mid-run the map holds speculative mappings, so the
// comparison is only meaningful at a halt boundary.)
func TestSingleModeRegisterStateMatchesGolden(t *testing.T) {
	b := prog.NewBuilder("regs")
	b.Data(256)
	b.InitWords(3, 1, 4, 1, 5, 9, 2, 6)
	b.Li(1, 40)
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.Ld(isa.Reg(8+i), isa.ZeroReg, int64(8*i))
		b.Op3(isa.OpAdd, isa.Reg(16+i), isa.Reg(8+i), 1)
		b.FLd(isa.FPReg(8+i), isa.ZeroReg, int64(8*i))
		b.Op3(isa.OpFAdd, isa.FPReg(16+i), isa.FPReg(8+i), isa.FPReg(8+i))
	}
	b.Op3(isa.OpMul, 2, 1, 1)
	b.Op3(isa.OpDiv, 3, 2, 1)
	b.St(isa.ZeroReg, 2, 128)
	b.Addi(1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, st := run(t, DefaultConfig(), ModeSingle, p, 1<<20)
	g := golden(t, p, st.Committed[0])
	if !g.Halted() {
		t.Fatal("golden model did not halt at the same instruction count")
	}
	for r := 0; r < isa.NumArchRegs; r++ {
		reg := isa.Reg(r)
		if got, want := m.ArchReg(0, reg), g.Reg(reg); got != want {
			t.Errorf("%v = %#x, want %#x", reg, got, want)
		}
	}
}

// SRT: fault-free redundant execution must raise no detection events, commit
// the same count in both threads, and release exactly the golden store
// stream. Frontend diversity must be exactly zero (Section 4.1).
func TestSRTFaultFree(t *testing.T) {
	for _, name := range []string{"equake", "gzip", "sixtrack"} {
		t.Run(name, func(t *testing.T) {
			p := prog.MustBenchmark(name)
			m, st := run(t, DefaultConfig(), ModeSRT, p, 6000)
			if !m.Sink().Empty() {
				t.Fatalf("detections in fault-free run: %v", m.Sink().Events())
			}
			if st.Committed[0] != st.Committed[1] {
				t.Errorf("committed: lead %d, trail %d", st.Committed[0], st.Committed[1])
			}
			g := golden(t, p, st.Committed[0])
			if st.StoreSignature != g.StoreSignature() {
				t.Error("released store stream differs from golden model")
			}
			if fd := st.FrontendDiversity(); fd != 0 {
				t.Errorf("SRT frontend diversity = %.3f, want exactly 0", fd)
			}
			if st.Pairs == 0 {
				t.Error("no pairs accounted")
			}
		})
	}
}

// BlackJack: fault-free execution must pass every commit check (dependence,
// PC order, store compare) with zero events, match the golden output, and
// achieve exactly 100% frontend diversity (Section 6.1).
func TestBlackJackFaultFree(t *testing.T) {
	for _, name := range []string{"equake", "gzip", "sixtrack", "vortex"} {
		t.Run(name, func(t *testing.T) {
			p := prog.MustBenchmark(name)
			m, st := run(t, DefaultConfig(), ModeBlackJack, p, 6000)
			if !m.Sink().Empty() {
				t.Fatalf("detections in fault-free run: %v", m.Sink().Events())
			}
			if st.Committed[0] != st.Committed[1] {
				t.Errorf("committed: lead %d, trail %d", st.Committed[0], st.Committed[1])
			}
			g := golden(t, p, st.Committed[0])
			if st.StoreSignature != g.StoreSignature() {
				t.Error("released store stream differs from golden model")
			}
			if fd := st.FrontendDiversity(); fd != 1.0 {
				t.Errorf("BlackJack frontend diversity = %.4f, want exactly 1.0", fd)
			}
			if cov := st.Coverage(); cov < 0.85 {
				t.Errorf("BlackJack coverage = %.3f, want > 0.85", cov)
			}
		})
	}
}

func TestBlackJackNSFaultFree(t *testing.T) {
	p := prog.MustBenchmark("gcc")
	m, st := run(t, DefaultConfig(), ModeBlackJackNS, p, 6000)
	if !m.Sink().Empty() {
		t.Fatalf("detections in fault-free run: %v", m.Sink().Events())
	}
	g := golden(t, p, st.Committed[0])
	if st.StoreSignature != g.StoreSignature() {
		t.Error("released store stream differs from golden model")
	}
	if st.ShuffleNOPs != 0 || st.ShuffleSplits != 0 {
		t.Errorf("BlackJack-NS must not shuffle: nops=%d splits=%d", st.ShuffleNOPs, st.ShuffleSplits)
	}
}

func TestDeterminism(t *testing.T) {
	p := prog.MustBenchmark("bzip")
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJack} {
		_, a := run(t, DefaultConfig(), mode, p, 3000)
		_, b := run(t, DefaultConfig(), mode, p, 3000)
		if a.Cycles != b.Cycles || a.StoreSignature != b.StoreSignature ||
			a.Committed != b.Committed || a.CoverageSum != b.CoverageSum {
			t.Errorf("%v: runs differ: %d vs %d cycles", mode, a.Cycles, b.Cycles)
		}
	}
}

// A pure dependent chain of single-cycle adds must commit about one
// instruction per cycle; independent adds must exceed IPC 2.
func TestIPCExtremes(t *testing.T) {
	chain := prog.NewBuilder("chain")
	chain.Data(8)
	chain.Label("loop")
	for i := 0; i < 16; i++ {
		chain.Addi(1, 1, 1)
	}
	chain.Jmp("loop")
	pChain, err := chain.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, st := run(t, DefaultConfig(), ModeSingle, pChain, 4000)
	if ipc := st.IPC(); ipc > 1.4 {
		t.Errorf("dependent chain IPC = %.2f, want near 1", ipc)
	}

	indep := prog.NewBuilder("indep")
	indep.Data(8)
	indep.Label("loop")
	for i := 0; i < 16; i++ {
		indep.Addi(isa.Reg(2+i%8), isa.ZeroReg, int64(i))
	}
	indep.Jmp("loop")
	pIndep, err := indep.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, st2 := run(t, DefaultConfig(), ModeSingle, pIndep, 8000)
	if ipc := st2.IPC(); ipc < 2.0 {
		t.Errorf("independent IPC = %.2f, want > 2", ipc)
	}
	if st2.IPC() <= st.IPC() {
		t.Error("independent code should out-run a dependent chain")
	}
}

// Branch-heavy data-dependent code exercises misprediction squash; results
// must still match the golden model exactly.
func TestMispredictRecoveryMatchesGolden(t *testing.T) {
	pr, err := prog.Generate(prog.Profile{
		Name: "branchy", Seed: 99,
		LoadFrac: 0.2, StoreFrac: 0.1,
		ChainFrac: 0.3, RandLoadFrac: 0.2, WorkingSetKB: 64, Stride: 136,
		BranchEvery: 3, DataDepBranchFrac: 0.8, SkipMax: 3,
		BlockOps: 16, Blocks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, st := run(t, DefaultConfig(), ModeSingle, pr, 10000)
	if st.Mispredicts == 0 {
		t.Fatal("test expects mispredictions to occur")
	}
	g := golden(t, pr, st.Committed[0])
	if st.StoreSignature != g.StoreSignature() {
		t.Error("store stream differs from golden under heavy misprediction")
	}
}

// The same branchy workload must also survive redundant modes untouched.
func TestMispredictRecoveryRedundantModes(t *testing.T) {
	pr, err := prog.Generate(prog.Profile{
		Name: "branchy2", Seed: 7,
		LoadFrac: 0.15, StoreFrac: 0.1, FPALUFrac: 0.1,
		ChainFrac: 0.3, RandLoadFrac: 0.3, WorkingSetKB: 256, Stride: 136,
		BranchEvery: 4, DataDepBranchFrac: 0.6, SkipMax: 3,
		BlockOps: 16, Blocks: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeSRT, ModeBlackJack} {
		t.Run(mode.String(), func(t *testing.T) {
			m, st := run(t, DefaultConfig(), mode, pr, 5000)
			if !m.Sink().Empty() {
				t.Fatalf("detections: %v", m.Sink().Events())
			}
			g := golden(t, pr, st.Committed[0])
			if st.StoreSignature != g.StoreSignature() {
				t.Error("store stream differs from golden")
			}
		})
	}
}

func TestHaltTerminatesAllModes(t *testing.T) {
	p := sumProgram(50)
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		t.Run(mode.String(), func(t *testing.T) {
			m, st := run(t, DefaultConfig(), mode, p, 1<<20)
			if m.MemWord(0) != 1275 {
				t.Errorf("mem[0] = %d, want 1275", m.MemWord(0))
			}
			if mode.Redundant() && st.Committed[1] != st.Committed[0] {
				t.Errorf("trailing committed %d, leading %d", st.Committed[1], st.Committed[0])
			}
		})
	}
}

func TestDeadlockBackstop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCycles = 50
	p := prog.MustBenchmark("gcc")
	m, err := New(cfg, ModeSingle, p)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Run(1 << 30)
	if !st.Deadlocked {
		t.Error("tiny cycle budget should trip the backstop")
	}
}

func TestModeParsing(t *testing.T) {
	for _, mode := range []Mode{ModeSingle, ModeSRT, ModeBlackJackNS, ModeBlackJack} {
		got, err := ParseMode(mode.String())
		if err != nil || got != mode {
			t.Errorf("ParseMode(%q) = (%v,%v)", mode.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) should fail")
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		edit func(*Config)
	}{
		{"narrow fetch", func(c *Config) { c.FetchWidth = 2 }},
		{"zero issue", func(c *Config) { c.IssueWidth = 0 }},
		{"zero rob", func(c *Config) { c.ActiveList = 0 }},
		{"too few regs", func(c *Config) { c.PhysRegs = 100 }},
		{"zero dtq", func(c *Config) { c.DTQ = 0 }},
		{"negative slack", func(c *Config) { c.Slack = -1 }},
		{"no mem units", func(c *Config) { c.Units[isa.UnitMem] = 0 }},
		{"zero class latency", func(c *Config) { c.ClassLat[isa.UnitIntALU] = 0 }},
		{"tiny fetch queue", func(c *Config) { c.FetchQueue = 2 }},
		{"bad cache", func(c *Config) { c.Cache.LineBytes = 3 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.edit(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

// SRT's coverage is accidental; BlackJack's is engineered. On the same
// workload BlackJack must dominate SRT in both total and backend coverage.
func TestBlackJackCoverageBeatsSRT(t *testing.T) {
	p := prog.MustBenchmark("wupwise")
	_, srt := run(t, DefaultConfig(), ModeSRT, p, 6000)
	_, bj := run(t, DefaultConfig(), ModeBlackJack, p, 6000)
	if bj.Coverage() <= srt.Coverage() {
		t.Errorf("coverage: blackjack %.3f <= srt %.3f", bj.Coverage(), srt.Coverage())
	}
	if bj.BackendDiversity() <= srt.BackendDiversity() {
		t.Errorf("backend: blackjack %.3f <= srt %.3f", bj.BackendDiversity(), srt.BackendDiversity())
	}
}

// Redundancy costs cycles: single < SRT < BlackJack in runtime for the same
// instruction budget.
func TestPerformanceOrdering(t *testing.T) {
	p := prog.MustBenchmark("gzip")
	_, single := run(t, DefaultConfig(), ModeSingle, p, 6000)
	_, srt := run(t, DefaultConfig(), ModeSRT, p, 6000)
	_, bj := run(t, DefaultConfig(), ModeBlackJack, p, 6000)
	if !(single.Cycles < srt.Cycles) {
		t.Errorf("cycles: single %d !< srt %d", single.Cycles, srt.Cycles)
	}
	if !(srt.Cycles < bj.Cycles) {
		t.Errorf("cycles: srt %d !< blackjack %d", srt.Cycles, bj.Cycles)
	}
}

// The merging-shuffle extension must preserve correctness (golden output, no
// detections) and reduce the trailing thread's packet count.
func TestMergingShuffleCorrectAndEffective(t *testing.T) {
	p := prog.MustBenchmark("sixtrack")
	cfg := DefaultConfig()
	_, base := run(t, cfg, ModeBlackJack, p, 8000)
	cfg.MergePackets = true
	m, merged := run(t, cfg, ModeBlackJack, p, 8000)
	if !m.Sink().Empty() {
		t.Fatalf("detections with merging shuffle: %v", m.Sink().Events())
	}
	g := golden(t, p, merged.Committed[0])
	if merged.StoreSignature != g.StoreSignature() {
		t.Error("merging shuffle corrupted the output stream")
	}
	if merged.MergedPackets == 0 {
		t.Fatal("no packets merged on a high-ILP workload")
	}
	if merged.TrailingPackets >= base.TrailingPackets {
		t.Errorf("trailing packets %d (merged) >= %d (base)", merged.TrailingPackets, base.TrailingPackets)
	}
	if merged.Cycles > base.Cycles {
		t.Errorf("merging made it slower: %d > %d cycles", merged.Cycles, base.Cycles)
	}
	if merged.Coverage() < base.Coverage()-0.03 {
		t.Errorf("merging cost too much coverage: %.3f vs %.3f", merged.Coverage(), base.Coverage())
	}
}

// MergedPackets counts merges that happened: each is exactly one shuffle
// whose input spans two DTQ packets. A merge that waits for packet-queue
// space must not count again on every retry cycle.
func TestMergedPacketsCountsPerformedMerges(t *testing.T) {
	for _, c := range []struct {
		bench string
		n     int
	}{{"gzip", 300}, {"sixtrack", 8000}} {
		cfg := DefaultConfig()
		cfg.MergePackets = true
		spanning := uint64(0)
		m, err := New(cfg, ModeBlackJack, prog.MustBenchmark(c.bench), WithShuffleObserver(func(_ int64, in []*core.Entry, _ []core.Packet) {
			if in[0].PacketID != in[len(in)-1].PacketID {
				spanning++
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		st := m.Run(c.n)
		if spanning == 0 || st.MergedPackets != spanning {
			t.Errorf("%s: MergedPackets = %d, shuffles spanning two packets = %d", c.bench, st.MergedPackets, spanning)
		}
	}
}
