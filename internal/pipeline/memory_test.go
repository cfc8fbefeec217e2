package pipeline

import (
	"runtime"
	"testing"

	"blackjack/internal/isa"
	"blackjack/internal/prog"
)

// bigSegmentProgram loops over a read-modify-write of an Init-backed word
// plus a store to the last word of a 64 MB data segment.
func bigSegmentProgram(t *testing.T) *isa.Program {
	t.Helper()
	const size = 64 << 20
	b := prog.NewBuilder("big-segment")
	b.Data(size)
	b.InitWords(1, 2, 3, 4)
	b.Li(1, 1<<20)
	b.Label("loop")
	b.Ld(4, isa.ZeroReg, 8)
	b.Op3(isa.OpAdd, 4, 4, 1)
	b.St(isa.ZeroReg, 4, 8)
	b.St(isa.ZeroReg, 4, size-8)
	b.Addi(1, 1, -1)
	b.Branch(isa.OpBne, 1, isa.ZeroReg, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// allocatedBytes returns the bytes f allocates (runtime.MemStats.TotalAlloc).
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestRunBytesIndependentOfDataSegment: building a machine and running it
// allocates for the pages the run writes, not for the whole data segment.
// A 64 MB segment must cost well under 1 MB in the pipeline and in the
// pooled golden emulator.
func TestRunBytesIndependentOfDataSegment(t *testing.T) {
	p := bigSegmentProgram(t)
	const budget = 1 << 20

	pipeBytes := allocatedBytes(func() {
		m, err := New(DefaultConfig(), ModeBlackJack, p)
		if err != nil {
			t.Fatal(err)
		}
		if st := m.Run(1000); st.Deadlocked || st.Committed[0] < 1000 {
			t.Fatalf("pipeline run: deadlocked=%v committed=%d", st.Deadlocked, st.Committed[0])
		}
	})
	if pipeBytes >= budget {
		t.Errorf("pipeline.New + 1k-instruction Run allocated %d bytes, budget %d", pipeBytes, budget)
	}

	emuBytes := allocatedBytes(func() {
		m, err := isa.AcquireMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		m.Run(1000)
		if err := m.ResetTo(p); err != nil {
			t.Fatal(err)
		}
		m.Run(1000)
		isa.ReleaseMachine(m)
	})
	if emuBytes >= budget {
		t.Errorf("isa.AcquireMachine + ResetTo allocated %d bytes, budget %d", emuBytes, budget)
	}
	t.Logf("pipeline %d bytes, emulator %d bytes for a %d-byte segment", pipeBytes, emuBytes, p.DataSize)
}
