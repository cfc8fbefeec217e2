package sim

import (
	"slices"
	"sync"
	"testing"

	"blackjack/internal/isa"
	"blackjack/internal/pipeline"
	"blackjack/internal/prog"
)

// TestSharedProgramInitReadOnly: every machine built from a program reads
// never-written pages straight from the program's Init image, so Init is
// shared by all of them. Running 8 pipeline machines and 8 golden emulators
// on one *isa.Program at once — the generated program's Init covers its
// whole data segment, so every store lands on an Init-backed page — must
// leave Init untouched (and, under -race, report no race on it).
func TestSharedProgramInitReadOnly(t *testing.T) {
	p, err := prog.Benchmark("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Init)*8 != p.DataSize {
		t.Fatalf("Init covers %d of %d bytes; want the whole segment", len(p.Init)*8, p.DataSize)
	}
	want := slices.Clone(p.Init)
	modes := []pipeline.Mode{pipeline.ModeSingle, pipeline.ModeSRT, pipeline.ModeBlackJackNS, pipeline.ModeBlackJack}

	var wg sync.WaitGroup
	stores := make([]uint64, 16)
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			m, err := pipeline.New(pipeline.DefaultConfig(), modes[i%len(modes)], p)
			if err != nil {
				t.Error(err)
				return
			}
			st := m.Run(2000)
			stores[i] = st.ReleasedStores
		}()
		go func() {
			defer wg.Done()
			m, err := isa.AcquireMachine(p)
			if err != nil {
				t.Error(err)
				return
			}
			m.Run(20000)
			stores[8+i] = uint64(m.Stores())
			isa.ReleaseMachine(m)
		}()
	}
	wg.Wait()
	for i, n := range stores {
		if n == 0 {
			t.Errorf("machine %d released no stores; the test needs stores to Init-backed pages", i)
		}
	}
	if !slices.Equal(p.Init, want) {
		t.Fatal("Program.Init changed while machines ran on it")
	}
}
