package diffcheck

import (
	"context"
	"errors"
	"strings"
	"testing"

	"blackjack/internal/core"
	"blackjack/internal/fault"
	"blackjack/internal/isa"
	"blackjack/internal/obs"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
	"blackjack/internal/sim"
)

func mustNoDivergences(t *testing.T, rep *ProgramReport, label string) {
	t.Helper()
	for _, d := range rep.Divergences {
		t.Errorf("%s: %v", label, d)
	}
}

func TestCheckBenchmarksClean(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	for _, name := range []string{"gzip", "swim"} {
		p, err := prog.Benchmark(name)
		if err != nil {
			t.Fatalf("benchmark %s: %v", name, err)
		}
		mustNoDivergences(t, CheckProgram(cfg, p, 2000), name)
	}
}

func TestAdversarialProgramsCheckClean(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	for seed := uint64(0); seed < 6; seed++ {
		p, err := prog.AdversarialProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustNoDivergences(t, CheckProgram(cfg, p, 2500), p.Name)
	}
}

func TestFuzzCampaignClean(t *testing.T) {
	sum, err := Fuzz(FuzzOptions{Programs: 12, Seed: 7, MaxInstr: 2000})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range sum.Failures {
		for _, d := range f.Divergences {
			t.Errorf("program %d (%s, seed %#x): %v", f.Index, f.Source, f.Seed, d)
		}
	}
	if sum.Shuffles == 0 || sum.Entries == 0 {
		t.Fatalf("campaign validated no shuffles (calls=%d entries=%d)", sum.Shuffles, sum.Entries)
	}
}

func TestFuzzCampaignDeterministic(t *testing.T) {
	a, err := Fuzz(FuzzOptions{Programs: 6, Seed: 11, MaxInstr: 1000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fuzz(FuzzOptions{Programs: 6, Seed: 11, MaxInstr: 1000, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != b.Runs || a.Shuffles != b.Shuffles || a.Entries != b.Entries || len(a.Failures) != len(b.Failures) {
		t.Fatalf("worker count changed results: %+v vs %+v", a, b)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		p, err := prog.AdversarialProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q := DecodeProgram(enc)
		if q.DataSize != p.DataSize {
			t.Fatalf("seed %d: data size %d -> %d", seed, p.DataSize, q.DataSize)
		}
		if len(q.Init) != len(p.Init) {
			t.Fatalf("seed %d: init %d -> %d words", seed, len(p.Init), len(q.Init))
		}
		for i := range p.Init {
			if p.Init[i] != q.Init[i] {
				t.Fatalf("seed %d: init word %d differs", seed, i)
			}
		}
		if len(q.Code) != len(p.Code) {
			t.Fatalf("seed %d: code %d -> %d insts", seed, len(p.Code), len(q.Code))
		}
		for i := range p.Code {
			if p.Code[i] != q.Code[i] {
				t.Fatalf("seed %d: inst %d: %v -> %v", seed, i, p.Code[i], q.Code[i])
			}
		}
	}
}

func TestDecodeIsTotal(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{0xff},
		{0xff, 0xff, 0xff},
		{3, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8},
		make([]byte, 1000),
	}
	// A pseudo-random blob with a huge claimed init count.
	blob := make([]byte, 300)
	for i := range blob {
		blob[i] = byte(i*37 + 11)
	}
	blob[1], blob[2] = 0xff, 0xff
	inputs = append(inputs, blob)
	for i, in := range inputs {
		p := DecodeProgram(in)
		if err := p.Validate(); err != nil {
			t.Fatalf("input %d: decoded program invalid: %v", i, err)
		}
		if p.Code[len(p.Code)-1].Op != isa.OpHalt {
			t.Fatalf("input %d: no trailing halt", i)
		}
	}
}

// --- shuffle invariant checker: positive and mutation smoke tests ---

func shuffleUnits() [isa.NumUnitClasses]int {
	return pipeline.DefaultConfig().Units
}

func mkEntries(ways ...[2]int) []*core.Entry {
	out := make([]*core.Entry, len(ways))
	for i, w := range ways {
		out[i] = &core.Entry{
			Seq: uint64(i + 1), PacketID: 9, PC: i,
			RawInst:  isa.Inst{Op: isa.OpAdd, Rd: 1, Rs1: 1},
			FrontWay: w[0], BackWay: w[1], Class: isa.UnitIntALU,
			Committed: true,
		}
	}
	return out
}

func TestCheckShuffleAcceptsRealShuffler(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	sh := &core.Shuffler{Width: cfg.FetchWidth, Units: cfg.Units}
	in := mkEntries([2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2}, [2]int{3, 3})
	out := sh.Shuffle(in)
	if errs := CheckShuffle(cfg.FetchWidth, cfg.Units, true, false, in, out); len(errs) != 0 {
		t.Fatalf("real shuffler flagged: %v", errs)
	}
}

// TestBrokenShuffleCaught is the mutation smoke test of the acceptance
// criteria: deliberately broken shuffle outputs must be flagged by the
// invariant checker.
func TestBrokenShuffleCaught(t *testing.T) {
	width := 4
	units := shuffleUnits()
	mk := func() ([]*core.Entry, []core.Packet) {
		in := mkEntries([2]int{0, 0}, [2]int{1, 1})
		// A legal placement: entry0 (fe 0, be 0) -> slot 1 (planned be 1);
		// entry1 (fe 1, be 1) -> slot 2 (planned be... intALU count below = 1
		// -> conflict!). Build instead: entry1 -> slot 0 (planned be 0 ==
		// leading be 1? no, planned 0 != 1, fe 0 != 1: legal).
		out := []core.Packet{{ID: 1, Slots: make([]core.Slot, width)}}
		out[0].Slots[0] = core.Slot{Entry: in[1]}
		out[0].Slots[1] = core.Slot{Entry: in[0]}
		return in, out
	}

	if in, out := mk(); len(CheckShuffle(width, units, true, false, in, out)) != 0 {
		t.Fatalf("baseline placement flagged: %v", CheckShuffle(width, units, true, false, in, out))
	}

	cases := []struct {
		name   string
		mutate func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet)
		want   string
	}{
		{"entry on its own frontend way", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			out[0].Slots[0], out[0].Slots[1] = core.Slot{}, core.Slot{}
			out[0].Slots[0] = core.Slot{Entry: in[0]} // fe way 0 == slot 0
			out[0].Slots[2] = core.Slot{Entry: in[1]}
			return in, out
		}, "frontend way"},
		{"entry on its leading backend way", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			out[0].Slots[0], out[0].Slots[1] = core.Slot{}, core.Slot{}
			out[0].Slots[1] = core.Slot{Entry: in[0]} // planned be 0 == leading be 0
			out[0].Slots[2] = core.Slot{Entry: in[1]}
			in[0].BackWay = 0
			return in, out
		}, "backend way"},
		{"dropped entry", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			out[0].Slots[1] = core.Slot{}
			return in, out
		}, "lost by shuffle"},
		{"duplicated entry", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			out[0].Slots[3] = core.Slot{Entry: in[0]}
			return in, out
		}, "placed twice"},
		{"foreign entry", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			alien := &core.Entry{Seq: 99, Committed: true, FrontWay: 1, Class: isa.UnitIntALU}
			out[0].Slots[3] = core.Slot{Entry: alien}
			return in, out
		}, "foreign entry"},
		{"uncommitted entry reached shuffle", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			in[0].Committed = false
			return in, out
		}, "uncommitted"},
		{"wrong slot count", func(in []*core.Entry, out []core.Packet) ([]*core.Entry, []core.Packet) {
			out[0].Slots = out[0].Slots[:width-1]
			return in, out
		}, "slots"},
	}
	for _, tc := range cases {
		in, out := mk()
		in, out = tc.mutate(in, out)
		errs := CheckShuffle(width, units, true, false, in, out)
		found := false
		for _, e := range errs {
			if strings.Contains(e, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: checker missed it (errors: %v)", tc.name, errs)
		}
	}
}

func TestCheckShufflePassThroughContract(t *testing.T) {
	width := 4
	units := shuffleUnits()
	in := mkEntries([2]int{0, 0}, [2]int{1, 1})
	out := []core.Packet{{ID: 1, Slots: make([]core.Slot, width)}}
	out[0].Slots[0] = core.Slot{Entry: in[0]}
	out[0].Slots[1] = core.Slot{Entry: in[1]}
	if errs := CheckShuffle(width, units, false, false, in, out); len(errs) != 0 {
		t.Fatalf("legal pass-through flagged: %v", errs)
	}
	// Reordered pass-through must be flagged (BlackJack-NS preserves order).
	out[0].Slots[0], out[0].Slots[1] = core.Slot{Entry: in[1]}, core.Slot{Entry: in[0]}
	if errs := CheckShuffle(width, units, false, false, in, out); len(errs) == 0 {
		t.Fatal("reordered pass-through not flagged")
	}
	// NOPs never appear without shuffle.
	out[0].Slots[0], out[0].Slots[1] = core.Slot{Entry: in[0]}, core.Slot{Entry: in[1]}
	out[0].Slots[2] = core.Slot{IsNOP: true, NopClass: isa.UnitIntALU}
	if errs := CheckShuffle(width, units, false, false, in, out); len(errs) == 0 {
		t.Fatal("pass-through NOP not flagged")
	}
}

// TestBrokenMachineShuffleCaught wires a corrupting observer scenario: it
// validates that a machine-level shuffle mutation (an entry forced onto its
// leading frontend way) is caught by the same checker the harness installs.
func TestBrokenMachineShuffleCaught(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	sh := &core.Shuffler{Width: cfg.FetchWidth, Units: cfg.Units}
	ic := NewInvariantChecker(cfg, pipeline.ModeBlackJack)
	in := mkEntries([2]int{0, 0}, [2]int{1, 1}, [2]int{2, 2})
	out := sh.Shuffle(in)
	// Sabotage: move the first placed entry onto its leading frontend way.
sabotage:
	for pi := range out {
		for si := range out[pi].Slots {
			if e := out[pi].Slots[si].Entry; e != nil && si != e.FrontWay {
				out[pi].Slots[si] = core.Slot{}
				out[pi].Slots[e.FrontWay] = core.Slot{Entry: e}
				break sabotage
			}
		}
	}
	ic.Observe(1, in, out)
	if len(ic.Errors()) == 0 {
		t.Fatal("sabotaged machine shuffle not caught")
	}
}

func TestMinimizeShrinksFailure(t *testing.T) {
	p, err := prog.AdversarialProgram(3)
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic failure: the program contains an integer multiply.
	hasMul := func(q *isa.Program) bool {
		for _, in := range q.Code {
			if in.Op == isa.OpMul {
				return true
			}
		}
		return false
	}
	if !hasMul(p) {
		t.Skip("seed produced no multiply")
	}
	min := Minimize(p, hasMul, 0)
	if !hasMul(min) {
		t.Fatal("minimized program lost the failure")
	}
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized program invalid: %v", err)
	}
	// ddmin should reduce a hundreds-of-instructions program to (nearly)
	// just the multiply and the final halt.
	if len(min.Code) > 4 {
		t.Fatalf("weak minimization: %d instructions remain (want <= 4)", len(min.Code))
	}
	if min.DataSize > 1024 {
		t.Fatalf("data segment not shrunk: %d", min.DataSize)
	}
}

func TestMinimizeKeepsBranchTargetsValid(t *testing.T) {
	b := prog.NewBuilder("branchy")
	b.Data(1024)
	b.Li(isa.IntReg(1), 3)
	b.Label("top")
	b.Op3(isa.OpMul, isa.IntReg(2), isa.IntReg(1), isa.IntReg(1))
	b.Addi(isa.IntReg(1), isa.IntReg(1), -1)
	b.Branch(isa.OpBne, isa.IntReg(1), isa.ZeroReg, "top")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fails := func(q *isa.Program) bool {
		for _, in := range q.Code {
			if in.IsBranch() && (in.Imm < 0 || in.Imm >= int64(len(q.Code))) {
				t.Fatalf("candidate with invalid branch target %d/%d", in.Imm, len(q.Code))
			}
			if in.Op == isa.OpMul {
				return true
			}
		}
		return false
	}
	min := Minimize(p, fails, 0)
	if err := min.Validate(); err != nil {
		t.Fatalf("minimized program invalid: %v", err)
	}
}

func TestPadNopsPreservesOracleState(t *testing.T) {
	p, err := prog.Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	orig, err := isa.NewMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	orig.Run(3000)
	k := 3
	padded, err := isa.NewMachine(PadNops(p, k))
	if err != nil {
		t.Fatal(err)
	}
	padded.Run(3000 + k)
	if orig.StoreSignature() != padded.StoreSignature() {
		t.Fatalf("NOP padding changed the store stream: %#x vs %#x", orig.StoreSignature(), padded.StoreSignature())
	}
	for r := isa.Reg(0); r < isa.NumArchRegs; r++ {
		if orig.Reg(r) != padded.Reg(r) {
			t.Fatalf("NOP padding changed %s: %#x vs %#x", r, orig.Reg(r), padded.Reg(r))
		}
	}
}

func TestStressProgramsRun(t *testing.T) {
	for shape := prog.StressIntALU; shape <= prog.StressMixed; shape++ {
		p, err := prog.StressProgram(99, shape)
		if err != nil {
			t.Fatalf("shape %d: %v", shape, err)
		}
		g, err := isa.NewMachine(p)
		if err != nil {
			t.Fatalf("shape %d: %v", shape, err)
		}
		g.Run(5000)
		if g.Retired() == 0 {
			t.Fatalf("shape %d: no instructions retired", shape)
		}
	}
}

func TestCoverageMatrix(t *testing.T) {
	cfg := sim.Default(pipeline.ModeBlackJack, 1500)
	m, err := CoverageMatrix(MatrixOptions{Config: cfg, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) < 12 {
		t.Fatalf("matrix too small: %d cells", len(m.Cells))
	}
	if !m.OK() {
		t.Fatalf("coverage matrix violations:\n%s\n%s", strings.Join(m.Problems(), "\n"), m)
	}

	// Forked and reconverged runs count exactly what cold runs count, down
	// to the latency sums, with the campaigns running concurrently. The
	// transient cells take both paths; the permanent ones would only
	// double the test's time with more forks.
	kinds := []fault.Kind{fault.KindTransient}
	cold, err := CoverageMatrix(MatrixOptions{Config: cfg, Seed: 5, Kinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	planned := cfg
	planned.CheckpointInterval, planned.Metrics = 500, obs.NewRegistry()
	ckpt, err := CoverageMatrix(MatrixOptions{Config: planned, Seed: 5, Kinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ckpt.String(), cold.String(); got != want {
		t.Errorf("checkpointed matrix differs from cold:\n%s\nwant:\n%s", got, want)
	}
	for _, key := range []string{"campaign.forked_runs", "campaign.converged.runs"} {
		if planned.Metrics.CounterValue(key) == 0 {
			t.Errorf("checkpointed matrix ran no %s", key)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := cfg
	cancelled.Ctx = ctx
	if _, err := CoverageMatrix(MatrixOptions{Config: cancelled, Seed: 5}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled matrix: err = %v, want context.Canceled", err)
	}

	// Fast-forwarded runs stop at their first detection like every other
	// run, so the fast-forwarded matrix counts exactly what the cold one
	// does. Its latencies are window-relative and may differ.
	sampled := cfg
	sampled.FastForward = true
	ff, err := CoverageMatrix(MatrixOptions{Config: sampled, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Cells {
		want, got := m.Cells[i], ff.Cells[i]
		want.LatencySum, want.LatencyRuns = 0, 0
		got.LatencySum, got.LatencyRuns = 0, 0
		if got != want {
			t.Errorf("fast-forwarded cell %s counts %+v, cold %+v", want.Name(), got, want)
		}
	}

	// A setting under which the matrix could not count every run exactly.
	isolated := cfg
	isolated.Resilience.Isolate = true
	if _, err := CoverageMatrix(MatrixOptions{Config: isolated, Seed: 5}); err == nil || !strings.Contains(err.Error(), "Isolate") {
		t.Errorf("Isolate: err = %v, want a refusal naming it", err)
	}
}
