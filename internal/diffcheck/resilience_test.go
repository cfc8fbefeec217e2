package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"blackjack/internal/isa"
	"blackjack/internal/runcache"
)

// withFuzzHook installs a fuzz test hook for the test's duration. Tests
// using it must not run in parallel with each other.
func withFuzzHook(t *testing.T, hook func(i int, p *isa.Program)) {
	t.Helper()
	fuzzTestHook = hook
	t.Cleanup(func() { fuzzTestHook = nil })
}

// fuzzSummaryString renders everything observable about a summary except
// CacheHits (which intentionally differs between fresh and resumed
// sessions).
func fuzzSummaryString(sum *FuzzSummary) string {
	var b strings.Builder
	fmt.Fprintf(&b, "programs=%d runs=%d shuffles=%d entries=%d\n",
		sum.Programs, sum.Runs, sum.Shuffles, sum.Entries)
	for _, f := range sum.Failures {
		prog := "<nil>"
		if f.Program != nil {
			prog = fmt.Sprintf("%s/%d", f.Program.Name, len(f.Program.Code))
		}
		min := "<nil>"
		if f.Minimized != nil {
			min = fmt.Sprintf("%d", len(f.Minimized.Code))
		}
		fmt.Fprintf(&b, "fail %d seed=%#x source=%s prog=%s min=%s enc=%d divs=%v\n",
			f.Index, f.Seed, f.Source, prog, min, len(f.Encoded), f.Divergences)
	}
	return b.String()
}

func TestFuzzPanicIsolatedAsDivergence(t *testing.T) {
	withFuzzHook(t, func(i int, p *isa.Program) {
		if i == 3 {
			panic("poisoned check")
		}
	})
	sum, err := Fuzz(FuzzOptions{Programs: 6, Seed: 11, MaxInstr: 800, Workers: 2})
	if err != nil {
		t.Fatalf("panic escaped the isolation boundary: %v", err)
	}
	if len(sum.Failures) != 1 {
		t.Fatalf("expected exactly the poisoned program to fail, got %d failures", len(sum.Failures))
	}
	f := sum.Failures[0]
	if f.Index != 3 {
		t.Fatalf("failure at index %d, want 3", f.Index)
	}
	if len(f.Divergences) != 1 || f.Divergences[0].Variant != harnessVariant || f.Divergences[0].Kind != "panic" {
		t.Fatalf("unexpected divergences: %v", f.Divergences)
	}
	if !strings.Contains(f.Divergences[0].Detail, "poisoned check") {
		t.Fatalf("panic value lost: %q", f.Divergences[0].Detail)
	}
	if f.Program == nil {
		t.Fatal("failure lost its program")
	}
	// The other five programs completed and contributed runs.
	if sum.Runs == 0 || sum.Shuffles == 0 {
		t.Fatalf("healthy programs did not run: %+v", sum)
	}
}

func TestFuzzShrinkTreatsPanicAsFailing(t *testing.T) {
	// Every minimization candidate panics too: delta debugging must treat
	// that as "still fails" and keep shrinking instead of crashing.
	withFuzzHook(t, func(i int, p *isa.Program) {
		if i == 2 || i == -1 {
			panic("poisoned check")
		}
	})
	sum, err := Fuzz(FuzzOptions{Programs: 3, Seed: 5, MaxInstr: 500, Workers: 1, Shrink: true, ShrinkTests: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) != 1 || sum.Failures[0].Index != 2 {
		t.Fatalf("expected one failure at index 2: %+v", sum.Failures)
	}
	f := sum.Failures[0]
	if f.Minimized == nil {
		t.Fatal("panic-inducing program was not minimized")
	}
	if len(f.Minimized.Code) >= len(f.Program.Code) {
		t.Fatalf("minimization made no progress: %d -> %d instructions",
			len(f.Program.Code), len(f.Minimized.Code))
	}
}

// testStore opens a fresh run store in a temporary directory.
func testStore(t *testing.T) *runcache.Store {
	t.Helper()
	s, err := runcache.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// cellPath is where store keeps program i's cell of the session opts.
func cellPath(store *runcache.Store, opts FuzzOptions, i int) string {
	id := opts.withDefaults().cell(i).ID()
	return filepath.Join(store.Dir(), id[:2], id+".json")
}

func TestFuzzJournalResumeByteIdentical(t *testing.T) {
	// The hook makes program 2 a deterministic failure so the resumed
	// session exercises failure replay (program regeneration + minimized
	// decoding), not just the clean path.
	hook := func(i int, p *isa.Program) {
		if i == 2 {
			panic("poisoned check")
		}
	}
	withFuzzHook(t, hook)
	opts := FuzzOptions{Programs: 8, Seed: 23, MaxInstr: 800, Workers: 2, Shrink: true, ShrinkTests: 30}

	ref, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := fuzzSummaryString(ref)

	sopts := opts
	sopts.Cache = testStore(t)
	full, err := Fuzz(sopts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fuzzSummaryString(full); got != want {
		t.Fatalf("stored run diverged from plain run:\n got: %s\nwant: %s", got, want)
	}
	if full.CacheHits != 0 {
		t.Fatalf("fresh stored run claims %d cached programs", full.CacheHits)
	}

	// Simulate a crash after the first 4 programs: the later cells are
	// gone, and one is truncated, which the store reads as a miss.
	cells := make(map[string][]byte)
	for i := 0; i < opts.Programs; i++ {
		path := cellPath(sopts.Cache, opts, i)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("program %d has no cell: %v", i, err)
		}
		cells[path] = raw
	}
	for _, workers := range []int{1, 3, 8} {
		// Each resume completes the store, so re-crash it per iteration.
		for i := 4; i < opts.Programs; i++ {
			path := cellPath(sopts.Cache, opts, i)
			if i == 7 {
				if err := os.WriteFile(path, cells[path][:len(cells[path])/2], 0o644); err != nil {
					t.Fatal(err)
				}
			} else if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		ropts := sopts
		ropts.Workers = workers
		resumed, err := Fuzz(ropts)
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if resumed.CacheHits != 4 {
			t.Fatalf("workers=%d: CacheHits=%d, want 4", workers, resumed.CacheHits)
		}
		if got := fuzzSummaryString(resumed); got != want {
			t.Fatalf("workers=%d: resumed summary diverged:\n got: %s\nwant: %s", workers, got, want)
		}
	}
}

// fuzzSharesExactly fills a fresh store with session a, then runs session
// b on the same store. b must be served exactly the shared programs a
// stored, no other, and its summary must equal a run of b with no store.
func fuzzSharesExactly(t *testing.T, a, b FuzzOptions, shared int) {
	t.Helper()
	want, err := Fuzz(b)
	if err != nil {
		t.Fatal(err)
	}
	a.Cache = testStore(t)
	if _, err := Fuzz(a); err != nil {
		t.Fatal(err)
	}
	b.Cache = a.Cache
	got, err := Fuzz(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheHits != shared {
		t.Errorf("CacheHits = %d, want %d (the programs the two sessions share)", got.CacheHits, shared)
	}
	if g, w := fuzzSummaryString(got), fuzzSummaryString(want); g != w {
		t.Errorf("session on the shared store differs from its run with no store:\n got: %s\nwant: %s", g, w)
	}
}

// A store filled by one session serves nothing to a session with another
// seed, budget or variant. The program count is deliberately NOT part of
// a cell's key: a session stored under -n 4 resumes (and extends) under a
// larger -n.
func TestFuzzJournalKeyMismatch(t *testing.T) {
	opts := FuzzOptions{Programs: 4, Seed: 9, MaxInstr: 500}
	variant := Variants()[0]
	for _, tc := range []struct {
		name   string
		other  FuzzOptions
		shared int
	}{
		{"seed", FuzzOptions{Programs: 4, Seed: 10, MaxInstr: 500}, 0},
		{"maxinstr", FuzzOptions{Programs: 4, Seed: 9, MaxInstr: 600}, 0},
		{"variant", FuzzOptions{Programs: 4, Seed: 9, MaxInstr: 500, Variant: &variant}, 0},
		{"programs", FuzzOptions{Programs: 6, Seed: 9, MaxInstr: 500}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) { fuzzSharesExactly(t, opts, tc.other, tc.shared) })
	}
}

// A session on a store filled by a session with another seed is served
// nothing from it: Fuzz once replayed whatever positional journal it was
// handed by index, so a seed-2 session on a seed-1 journal reported seed
// 1's programs as its own.
func TestFuzzRefusesForeignJournal(t *testing.T) {
	opts := FuzzOptions{Programs: 3, Seed: 1, MaxInstr: 500, Workers: 1}
	other := opts
	other.Seed = 2
	fuzzSharesExactly(t, opts, other, 0)
}

// A program is durable before it is reported: with OnProgress set, every
// progress event finds its program's cell already readable through a
// second store opened on the same directory, live and stored programs
// alike.
func TestFuzzJournalDurableBeforeProgress(t *testing.T) {
	store := testStore(t)
	for _, resume := range []bool{false, true} {
		var mu sync.Mutex
		var missing []int
		opts := FuzzOptions{Programs: 6, Seed: 4, MaxInstr: 500, Workers: 2, Cache: store}
		opts.OnProgress = func(i int, _ bool, _ int) {
			other, err := runcache.Open(store.Dir(), 0)
			var rec fuzzRecord
			if err != nil || !other.Get(opts.withDefaults().cell(i), &rec) {
				mu.Lock()
				missing = append(missing, i)
				mu.Unlock()
			}
		}
		sum, err := Fuzz(opts)
		if err != nil {
			t.Fatal(err)
		}
		if resume != (sum.CacheHits == opts.Programs) {
			t.Fatalf("resume=%v: %d of %d programs served from the store", resume, sum.CacheHits, opts.Programs)
		}
		if len(missing) > 0 {
			t.Errorf("resume=%v: programs %v were reported before their cell was in the store", resume, missing)
		}
	}
}

func TestFuzzGracefulCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	started := 0
	withFuzzHook(t, func(i int, p *isa.Program) {
		mu.Lock()
		started++
		if started == 3 {
			cancel()
		}
		mu.Unlock()
	})

	opts := FuzzOptions{Programs: 10, Seed: 31, MaxInstr: 800, Workers: 1}
	store := testStore(t)
	copts := opts
	copts.Ctx = ctx
	copts.Cache = store
	if _, err := Fuzz(copts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}

	// The interrupted programs' cells survived; a rerun on the store
	// completes the campaign and matches an uninterrupted run.
	fuzzTestHook = nil
	ref, err := Fuzz(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := int(store.Stats().Puts)
	if done == 0 {
		t.Fatal("cancelled campaign stored nothing")
	}
	ropts := opts
	ropts.Cache = store
	resumed, err := Fuzz(ropts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits != done {
		t.Fatalf("CacheHits=%d, store holds %d", resumed.CacheHits, done)
	}
	if got, want := fuzzSummaryString(resumed), fuzzSummaryString(ref); got != want {
		t.Fatalf("resumed summary diverged:\n got: %s\nwant: %s", got, want)
	}
}
